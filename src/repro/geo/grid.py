"""Uniform grid partition of the study area (§IV-B).

GridGNN represents each road segment as the sequence of grid cells its
geometry passes through; the decoder input also uses the (x, y) grid index
of each GPS point.  The paper uses 50 m × 50 m cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .distance import PolylineMeasures, measure_polylines


@dataclass(frozen=True)
class Grid:
    """A rows × cols partition of the rectangle [x0, x1) × [y0, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float
    cell_size: float = 50.0

    def to_array(self) -> np.ndarray:
        """The five defining floats, for artifact serialization."""
        return np.array([self.x0, self.y0, self.x1, self.y1, self.cell_size],
                        dtype=np.float64)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "Grid":
        """Rebuild a grid saved with :meth:`to_array` (exact floats, so the
        result compares equal to — and hashes like — the original)."""
        values = np.asarray(values, dtype=np.float64)
        return cls(float(values[0]), float(values[1]), float(values[2]),
                   float(values[3]), float(values[4]))

    @property
    def cols(self) -> int:
        return max(1, int(np.ceil((self.x1 - self.x0) / self.cell_size)))

    @property
    def rows(self) -> int:
        return max(1, int(np.ceil((self.y1 - self.y0) / self.cell_size)))

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    def cell_of(self, x, y) -> Tuple[np.ndarray, np.ndarray]:
        """(row, col) indices of points, clamped to the grid boundary."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        # The ufunc pair is np.clip's result without its per-call np.iinfo
        # lookups on int64 — this runs on every routed request.
        col = np.minimum(np.maximum(
            ((x - self.x0) // self.cell_size).astype(np.int64), 0), self.cols - 1)
        row = np.minimum(np.maximum(
            ((y - self.y0) // self.cell_size).astype(np.int64), 0), self.rows - 1)
        return row, col

    def flat_index(self, row, col) -> np.ndarray:
        """Flattened cell index used for embedding lookup tables."""
        return np.asarray(row, dtype=np.int64) * self.cols + np.asarray(col, dtype=np.int64)

    def flat_cell_of(self, x, y) -> np.ndarray:
        row, col = self.cell_of(x, y)
        return self.flat_index(row, col)

    def cell_center(self, row: int, col: int) -> Tuple[float, float]:
        cx = self.x0 + (col + 0.5) * self.cell_size
        cy = self.y0 + (row + 0.5) * self.cell_size
        return cx, cy

    def traverse_polyline(self, polyline: np.ndarray, step: float | None = None) -> List[Tuple[int, int]]:
        """Ordered, deduplicated cells a polyline passes through.

        Samples the polyline at ``step`` meters (default: half a cell) and
        collapses consecutive duplicates — the grid sequence S_i that feeds
        GridGNN's grid GRU (Eq. 1).  The one-row call of
        :meth:`traverse_polylines`.
        """
        polyline = np.asarray(polyline, dtype=np.float64)
        _, rows, cols = self.traverse_polylines(
            polyline, np.array([0, len(polyline)]), step)
        return list(zip(rows.tolist(), cols.tolist()))

    def traverse_polylines(self, points: np.ndarray, indptr: np.ndarray,
                           step: float | None = None,
                           measures: PolylineMeasures | None = None
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`traverse_polyline` for every polyline of a packed table
        at once, as CSR ``(cell_indptr, rows, cols)``: polyline ``p`` is
        ``points[indptr[p]:indptr[p+1]]`` and its cells are
        ``rows[cell_indptr[p]:cell_indptr[p+1]]`` (and ``cols``).
        ``measures`` is the table's :func:`measure_polylines`, if the
        caller holds it.

        Each polyline gets the one-row walk's floating-point sequence
        exactly: its piece lengths and their running sums are the 1-D
        calls' (:func:`measure_polylines`); sample ``i`` of ``n`` is
        ``np.linspace``'s own ``i · (total / (n - 1))``, the last one
        ``total`` (linspace's zero-step branch yields the same zeros: the
        step is 0 only when ``total`` is); and the piece a sample lies on —
        ``searchsorted(cumulative, d, "right") - 1``, clipped — is the
        count of the polyline's cumulative lengths at or below it, clipped
        to its last piece.
        """
        points = np.asarray(points, dtype=np.float64)
        indptr = np.asarray(indptr, dtype=np.int64)
        measured = measures or measure_polylines(points, indptr)
        vectors, lengths, reached, total = (
            measured.vectors, measured.lengths, measured.reached, measured.total)
        pieces = np.diff(indptr) - 1
        step = step or self.cell_size / 2.0
        n = len(pieces)

        count = np.maximum(np.ceil(total / step).astype(np.int64) + 1, 2)
        owner = np.repeat(np.arange(n), count)
        first = np.cumsum(count) - count
        distances = (np.arange(len(owner)) - first[owner]) * (total / (count - 1))[owner]
        distances[first + count - 1] = total

        piece = np.empty(len(owner), dtype=np.int64)
        sample_pieces = pieces[owner]
        for k, _ in measured.groups:
            taken = np.flatnonzero(sample_pieces == k)
            ends = indptr[owner[taken], None] + np.arange(1, k + 1)
            piece[taken] = np.minimum(
                (reached[ends] <= distances[taken, None]).sum(axis=1), k - 1)
        vertex = indptr[owner] + piece
        frac = (distances - reached[vertex]) / np.maximum(lengths[vertex], 1e-12)
        samples = points[vertex] + frac[:, None] * vectors[vertex]

        rows, cols = self.cell_of(samples[:, 0], samples[:, 1])
        keep = np.ones(len(owner), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        keep[first] = True
        cell_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[keep], minlength=n), out=cell_indptr[1:])
        return cell_indptr, rows[keep], cols[keep]
