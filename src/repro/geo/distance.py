"""Geographic primitives: point↔segment math in the planar frame.

The whole system works in a local metric frame (meters east/north of a
reference point) because every paper quantity — GPS error radii, the δ
receptive field, γ/β weight scales, grid cells — is specified in meters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..nn.graph import sort_unique


def project_point_to_polyline(point: np.ndarray, polyline: np.ndarray) -> Tuple[float, float, np.ndarray]:
    """Project ``point`` onto a polyline of shape ``(k, 2)``.

    Returns ``(distance, ratio, foot)`` where ``distance`` is the
    perpendicular distance in meters, ``ratio`` in [0, 1] is the arc-length
    position of the foot along the polyline (the paper's *moving ratio*),
    and ``foot`` is the projected (x, y).
    """
    point = np.asarray(point, dtype=np.float64)
    polyline = np.asarray(polyline, dtype=np.float64)
    if polyline.ndim != 2 or polyline.shape[0] < 2:
        raise ValueError("polyline must contain at least two vertices")

    starts = polyline[:-1]
    ends = polyline[1:]
    seg_vec = ends - starts
    seg_len2 = np.einsum("ij,ij->i", seg_vec, seg_vec)
    seg_len = np.sqrt(seg_len2)
    # Parameter of the projection clamped to each sub-segment.
    rel = point[None, :] - starts
    t = np.einsum("ij,ij->i", rel, seg_vec) / np.maximum(seg_len2, 1e-12)
    t = np.clip(t, 0.0, 1.0)
    feet = starts + t[:, None] * seg_vec
    dists = np.linalg.norm(point[None, :] - feet, axis=1)

    best = int(np.argmin(dists))
    cumulative = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = max(float(cumulative[-1]), 1e-12)
    along = cumulative[best] + t[best] * seg_len[best]
    ratio = float(np.clip(along / total, 0.0, 1.0))
    return float(dists[best]), ratio, feet[best]


def point_along_polyline(polyline: np.ndarray, ratio: float) -> np.ndarray:
    """Inverse of the projection: the (x, y) at arc-length fraction ``ratio``."""
    polyline = np.asarray(polyline, dtype=np.float64)
    seg_vec = polyline[1:] - polyline[:-1]
    seg_len = np.linalg.norm(seg_vec, axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = max(float(cumulative[-1]), 1e-12)
    target = float(np.clip(ratio, 0.0, 1.0)) * total
    index = int(np.searchsorted(cumulative, target, side="right") - 1)
    index = min(index, len(seg_len) - 1)
    leftover = target - cumulative[index]
    frac = leftover / max(seg_len[index], 1e-12)
    return polyline[index] + frac * seg_vec[index]


def polyline_length(polyline: np.ndarray) -> float:
    polyline = np.asarray(polyline, dtype=np.float64)
    return float(np.linalg.norm(polyline[1:] - polyline[:-1], axis=1).sum())


@dataclass(frozen=True)
class PolylineMeasures:
    """Piece geometry of a packed polyline table ``(points, indptr)``:
    polyline ``p`` is ``points[indptr[p]:indptr[p+1]]`` and its piece ``j``
    starts at vertex row ``indptr[p] + j`` (the difference rows that span
    two polylines are never read)."""

    vectors: np.ndarray   # (m - 1, 2) vertex differences
    lengths: np.ndarray   # (m - 1,) their norms
    reached: np.ndarray   # (m,) the polyline's length before each vertex
    total: np.ndarray     # (n,) each polyline's length
    groups: List[Tuple[int, np.ndarray]]  # (piece count, its polylines)


def measure_polylines(points: np.ndarray, indptr: np.ndarray) -> PolylineMeasures:
    """:class:`PolylineMeasures` of a packed table.  Piece lengths are
    summed and accumulated as 2-D row reductions over the polylines with
    the same piece count, so ``total[p]`` is bit-equal to
    :func:`polyline_length` of polyline ``p`` (and ``reached`` to its
    ``np.cumsum``)."""
    pieces = np.diff(indptr) - 1
    if points.ndim != 2 or np.any(pieces < 1):
        raise ValueError("polyline must contain at least two vertices")
    vectors = points[1:] - points[:-1]
    lengths = np.linalg.norm(vectors, axis=1)
    reached = np.zeros(len(points))
    total = np.empty(len(pieces))
    groups = [(k, np.flatnonzero(pieces == k))
              for k in sort_unique(pieces).tolist()]
    for k, members in groups:
        starts = indptr[members, None] + np.arange(k)
        piece_lengths = lengths[starts]
        total[members] = piece_lengths.sum(axis=1)
        reached[starts + 1] = np.cumsum(piece_lengths, axis=1)
    return PolylineMeasures(vectors, lengths, reached, total, groups)


def gaussian_weight(distance, scale: float) -> np.ndarray:
    """The paper's influence kernel, Eq. 5: exp(-d^2 / scale^2)."""
    distance = np.asarray(distance, dtype=np.float64)
    return np.exp(-(distance**2) / float(scale) ** 2)
