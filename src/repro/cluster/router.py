"""Trace → shard routing over a coarse spatial grid.

The router answers one question per request: *which shard owns every fix
of this trace?*  It reuses :class:`repro.geo.grid.Grid` as the spatial
key: a coarse grid over the union of all shard bounding boxes, with each
cell pre-assigned to the shard whose bbox contains its center.  Routing a
trace is then one pass over its fixes in plain Python — a cell lookup per
fix, no per-request numpy — and the candidate answer is confirmed with an
exact bbox containment check so boundary cells (whose centers may sit on
the wrong side of a shard edge) can never misroute.

Traces the grid cannot place are classified exactly:

* ``outside``  — at least one fix lies in no shard's bbox;
* ``straddle`` — every fix is covered, but by more than one shard (the
  trace crosses a shard boundary; a single recovery request cannot span
  two road networks).

Both raise :class:`RouteError`; the cluster turns them into dead-letter
entries instead of serving a wrong-city recovery.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..geo.grid import Grid
from .shardmap import BBox


class RouteError(ValueError):
    """A trace no single shard can own. ``reason`` ∈ {outside, straddle}."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"unroutable trace ({reason}): {detail}")
        self.reason = reason
        self.detail = detail


#: Upper bound on router grid cells — the owner array covers the UNION of
#: all shard bboxes, so far-apart cities (e.g. real projected coordinates
#: megameters apart) would otherwise allocate area-proportional memory.
#: Beyond the cap the cell size auto-coarsens; routing stays exact because
#: the grid is only a fast path confirmed by precise bbox containment.
MAX_GRID_CELLS = 1 << 18


class ShardRouter:
    """Maps traces to shard indices by bounding box via a coarse grid."""

    def __init__(self, boxes: Sequence[BBox], cell_size: float = 200.0) -> None:
        if not boxes:
            raise ValueError("router needs at least one shard bbox")
        self.boxes = [tuple(float(v) for v in box) for box in boxes]
        arr = np.asarray(self.boxes, dtype=np.float64)  # (n, 4)

        x0, y0 = float(arr[:, 0].min()), float(arr[:, 1].min())
        x1, y1 = float(arr[:, 2].max()), float(arr[:, 3].max())
        cell = float(cell_size)
        while (max(1, np.ceil((x1 - x0) / cell))
               * max(1, np.ceil((y1 - y0) / cell))) > MAX_GRID_CELLS:
            cell *= 2.0
        self.grid = Grid(x0=x0, y0=y0, x1=x1, y1=y1, cell_size=cell)
        # Cell → owning shard (or -1).  Centers are unambiguous because
        # shard boxes are disjoint (ShardMap enforces it); cells straddling
        # a bbox edge get the shard of their center and are re-checked
        # exactly at route time.
        rows, cols = np.meshgrid(np.arange(self.grid.rows),
                                 np.arange(self.grid.cols), indexing="ij")
        cx = self.grid.x0 + (cols.ravel() + 0.5) * self.grid.cell_size
        cy = self.grid.y0 + (rows.ravel() + 0.5) * self.grid.cell_size
        inside = ((cx >= arr[:, 0, None]) & (cx <= arr[:, 2, None])
                  & (cy >= arr[:, 1, None]) & (cy <= arr[:, 3, None]))
        self._owner: List[int] = np.where(
            inside.any(axis=0), inside.argmax(axis=0), -1).tolist()
        grid = self.grid
        self._frame = (grid.x0, grid.y0, grid.x1, grid.y1, grid.cell_size,
                       grid.cols, grid.cols - 1, grid.rows - 1)

    # ------------------------------------------------------------------
    def shard_of_points(self, xy) -> int:
        """The single shard index owning every point, else RouteError.

        ``xy`` is an (n, 2) array or a sequence of (x, y) number pairs; any
        other shape is a ``ValueError``.  Bbox edges are inclusive.
        """
        if isinstance(xy, np.ndarray):
            xy = xy.tolist()
        try:
            # ``- 0.0``: numbers only, ints as the floats numpy would make.
            points = [(x - 0.0, y - 0.0) for x, y in xy]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"expected (n, 2) points ({exc})") from None
        if not points:
            raise ValueError("expected (n, 2) points, got none")

        # Fast path: every fix inside the union rectangle (points outside
        # it would clamp onto border cells), in a cell of the first fix's
        # shard, and inside that shard's box.
        gx0, gy0, gx1, gy1, cell, cols, last_col, last_row = self._frame
        owners = self._owner
        owned = []
        for x, y in points:
            if not (gx0 <= x <= gx1 and gy0 <= y <= gy1):
                break
            owned.append(owners[min(int((y - gy0) // cell), last_row) * cols
                                + min(int((x - gx0) // cell), last_col)])
        else:
            candidate = owned[0]
            if candidate >= 0 and owned.count(candidate) == len(owned):
                bx0, by0, bx1, by1 = self.boxes[candidate]
                if all(bx0 <= x <= bx1 and by0 <= y <= by1 for x, y in points):
                    return candidate

        # Slow path (boundary cells, rejections): exact containment per
        # shard, also used to classify the failure reason precisely.
        inside = [[bx0 <= x <= bx1 and by0 <= y <= by1 for x, y in points]
                  for bx0, by0, bx1, by1 in self.boxes]
        full = [index for index, row in enumerate(inside) if all(row)]
        if len(full) == 1:
            return full[0]
        covered = [any(column) for column in zip(*inside)]
        if not all(covered):
            missing = [index for index, hit in enumerate(covered) if not hit]
            fix = points[missing[0]]
            raise RouteError(
                "outside",
                f"{len(missing)}/{len(points)} fixes outside every shard "
                f"(first: ({fix[0]:.1f}, {fix[1]:.1f}))",
            )
        touched = [index for index, row in enumerate(inside) if any(row)]
        raise RouteError(
            "straddle",
            f"trace spans shards {touched}; recovery cannot cross shard "
            "boundaries",
        )

    def coverage(self) -> Tuple[int, int]:
        """(cells owned by some shard, total cells) — telemetry/debugging."""
        return sum(owner >= 0 for owner in self._owner), len(self._owner)
