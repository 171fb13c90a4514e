"""An STR-ordered scan index over rectangles (Guttman [51], STR packing).

The Sub-Graph Generation module must find every road segment within δ
meters of a GPS point for each point of each trajectory, so the lookup is
on the hot path.  Items are laid out in Sort-Tile-Recursive leaf order and
every query is one vectorized bounding-box test over that layout; the
index stores integer item ids so callers keep ownership of the geometry.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


def _str_scan_order(bboxes: np.ndarray, leaf_capacity: int) -> np.ndarray:
    """Item ids in the order a depth-first walk of the STR-packed tree
    emits them: the STR leaves (x-sorted strips, each y-sorted and cut into
    ``leaf_capacity`` chunks) concatenated in reverse — a stack walk visits
    the children of every level last to first
    (``tests/reference.py::reference_scan_order`` is that walk)."""
    n = len(bboxes)
    if n <= leaf_capacity:
        return np.arange(n, dtype=np.int64)
    centers_x = (bboxes[:, 0] + bboxes[:, 2]) / 2.0
    centers_y = (bboxes[:, 1] + bboxes[:, 3]) / 2.0
    leaf_count = int(np.ceil(n / leaf_capacity))
    slice_count = max(1, int(np.ceil(np.sqrt(leaf_count))))
    per_slice = int(np.ceil(n / slice_count))
    order_x = np.argsort(centers_x, kind="stable")
    leaves: List[np.ndarray] = []
    for i in range(0, n, per_slice):
        strip = order_x[i:i + per_slice]
        strip = strip[np.argsort(centers_y[strip], kind="stable")]
        leaves.extend(strip[j:j + leaf_capacity]
                      for j in range(0, len(strip), leaf_capacity))
    return np.concatenate(leaves[::-1])


class RTree:
    """Static index bulk-loaded from item bounding boxes: the item ids in
    STR scan order plus their boxes as four contiguous columns in that
    order (a strided column of an ``(n, 4)`` table costs the bbox test ~2x
    in cache lines).  Hits come out as a subsequence of the scan order."""

    def __init__(self, bboxes: np.ndarray, leaf_capacity: int = 16) -> None:
        bboxes = np.asarray(bboxes, dtype=np.float64)
        if bboxes.ndim != 2 or bboxes.shape[1] != 4:
            raise ValueError("bboxes must have shape (n, 4): xmin, ymin, xmax, ymax")
        if np.any(bboxes[:, 0] > bboxes[:, 2]) or np.any(bboxes[:, 1] > bboxes[:, 3]):
            raise ValueError("malformed bounding boxes (min > max)")
        #: item ids in scan order, and their (4, n) xmin/ymin/xmax/ymax rows
        self.order = _str_scan_order(bboxes, max(2, leaf_capacity))
        self.columns = np.ascontiguousarray(bboxes[self.order].T)

    @classmethod
    def from_arrays(cls, order: np.ndarray, columns: np.ndarray) -> "RTree":
        """An index over another index's ``order`` and ``columns``,
        skipping the STR sort.  Nothing is copied: externally owned
        (memory-mapped, write-protected) arrays stay exactly that, and
        queries are bit-identical to the exporting index's."""
        tree = object.__new__(cls)
        tree.order = np.asarray(order, dtype=np.int64)
        tree.columns = np.asarray(columns, dtype=np.float64)
        return tree

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _hit(self, xmin, ymin, xmax, ymax) -> np.ndarray:
        """Boolean bbox-intersection test over every item, in scan order."""
        x0, y0, x1, y1 = self.columns
        return ~((x1 < xmin) | (xmax < x0) | (y1 < ymin) | (ymax < y0))

    def rect_ids(self, xmin: float, ymin: float, xmax: float,
                 ymax: float) -> np.ndarray:
        """Ids of items whose bounding box intersects the query rectangle,
        in scan order: one vectorized bbox test over every item."""
        return self.order[self._hit(xmin, ymin, xmax, ymax)]

    def query_rect(self, xmin: float, ymin: float, xmax: float, ymax: float) -> List[int]:
        """:meth:`rect_ids` as a python list."""
        return self.rect_ids(xmin, ymin, xmax, ymax).tolist()

    def query_radius(self, x: float, y: float, radius: float) -> List[int]:
        """Candidate ids within ``radius`` of (x, y) — bbox-level filter.

        Callers refine with exact point-to-geometry distance; the index
        guarantees no false negatives.
        """
        return self.query_rect(x - radius, y - radius, x + radius, y + radius)

    def query_radius_many(self, points: np.ndarray, radius: float,
                          block: Optional[int] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """CSR-packed radius queries for many points in one bbox pass.

        Returns ``(indptr, ids)`` where point ``q``'s candidates occupy
        ``ids[indptr[q]:indptr[q+1]]`` — each row exactly the ids (and
        order) :meth:`query_radius` returns for that point.  The broadcast
        test runs over blocks of query points so peak memory is bounded by
        ``block × n`` booleans rather than ``Q × n`` on large road
        networks, while each block keeps the vectorized inner test.
        ``block`` overrides the default ~4M-boolean budget per block.
        """
        points = np.asarray(points, dtype=np.float64)
        if not len(points):
            return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        # No query square reaches an item outside the union box of all of
        # them: drop those columns once, test each point against the rest.
        near = np.flatnonzero(self._hit(*(points.min(axis=0) - radius),
                                        *(points.max(axis=0) + radius)))
        if not len(near):
            return np.zeros(len(points) + 1, dtype=np.int64), near
        order = self.order[near]
        x0, y0, x1, y1 = self.columns[:, near]
        if block is None:
            block = (1 << 22) // len(order)
        block = max(1, min(len(points), block))
        counts = np.zeros(len(points), dtype=np.int64)
        id_blocks: List[np.ndarray] = []
        for start in range(0, len(points), block):
            x = points[start:start + block, 0:1]
            y = points[start:start + block, 1:2]
            hit = ~((x1 < x - radius) | (x + radius < x0)
                    | (y1 < y - radius) | (y + radius < y0))
            counts[start:start + block] = hit.sum(axis=1)
            id_blocks.append(np.broadcast_to(order, hit.shape)[hit])
        indptr = np.zeros(len(points) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, np.concatenate(id_blocks)

    def __len__(self) -> int:
        return len(self.order)
