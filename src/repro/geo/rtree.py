"""A packed R-tree over rectangles (Guttman [51], STR bulk loading).

The Sub-Graph Generation module must find every road segment within δ
meters of a GPS point for each point of each trajectory, so the lookup is
on the hot path.  The tree is bulk-loaded with the Sort-Tile-Recursive
packing and answers rectangle/radius queries; it stores integer item ids so
callers keep ownership of the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class _Node:
    bbox: Tuple[float, float, float, float]  # (xmin, ymin, xmax, ymax)
    children: List["_Node"] = field(default_factory=list)
    items: List[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _union_bbox(boxes: np.ndarray) -> Tuple[float, float, float, float]:
    return (
        float(boxes[:, 0].min()),
        float(boxes[:, 1].min()),
        float(boxes[:, 2].max()),
        float(boxes[:, 3].max()),
    )


def _intersects(a: Tuple[float, float, float, float], b: Tuple[float, float, float, float]) -> bool:
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


class RTree:
    """Static R-tree bulk-loaded from item bounding boxes."""

    def __init__(self, bboxes: np.ndarray, leaf_capacity: int = 16) -> None:
        bboxes = np.asarray(bboxes, dtype=np.float64)
        if bboxes.ndim != 2 or bboxes.shape[1] != 4:
            raise ValueError("bboxes must have shape (n, 4): xmin, ymin, xmax, ymax")
        if np.any(bboxes[:, 0] > bboxes[:, 2]) or np.any(bboxes[:, 1] > bboxes[:, 3]):
            raise ValueError("malformed bounding boxes (min > max)")
        self._bboxes = bboxes
        self._leaf_capacity = max(2, leaf_capacity)
        self.root: Optional[_Node] = self._build(np.arange(len(bboxes))) if len(bboxes) else None
        self._scan_order: Optional[np.ndarray] = None
        self._scan_boxes: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(cls, bboxes: np.ndarray, scan_order: np.ndarray,
                    scan_boxes: Optional[np.ndarray] = None,
                    leaf_capacity: int = 16) -> "RTree":
        """An index over externally owned (possibly memory-mapped,
        write-protected) arrays, skipping the STR build entirely.

        Every query runs off the scan arrays (see :meth:`_scan_arrays`),
        and ``scan_order`` *is* the original build's traversal order, so
        results are bit-identical to the tree the arrays were exported
        from.  No array is copied: ``np.asarray`` on a matching-dtype
        buffer returns a sharing view and read-only inputs stay read-only.
        """
        tree = object.__new__(cls)
        tree._bboxes = np.asarray(bboxes, dtype=np.float64)
        tree._leaf_capacity = max(2, leaf_capacity)
        if len(tree._bboxes):
            tree._scan_order = np.asarray(scan_order, dtype=np.int64)
            tree._scan_boxes = (np.asarray(scan_boxes, dtype=np.float64)
                                if scan_boxes is not None
                                else tree._bboxes[tree._scan_order])
            # Queries never walk the node tree once scan arrays exist; a
            # bare root carrying the union bbox keeps `root is None`
            # emptiness checks working without re-packing.
            tree.root = _Node(bbox=_union_bbox(tree._bboxes))
        else:
            tree._scan_order = None
            tree._scan_boxes = None
            tree.root = None
        return tree

    # ------------------------------------------------------------------
    # STR bulk loading
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray) -> _Node:
        if len(ids) <= self._leaf_capacity:
            return _Node(bbox=_union_bbox(self._bboxes[ids]), items=list(map(int, ids)))

        boxes = self._bboxes[ids]
        centers_x = (boxes[:, 0] + boxes[:, 2]) / 2.0
        centers_y = (boxes[:, 1] + boxes[:, 3]) / 2.0

        leaf_count = int(np.ceil(len(ids) / self._leaf_capacity))
        slice_count = max(1, int(np.ceil(np.sqrt(leaf_count))))
        per_slice = int(np.ceil(len(ids) / slice_count))

        order_x = np.argsort(centers_x, kind="stable")
        children: List[_Node] = []
        for i in range(0, len(ids), per_slice):
            strip = order_x[i : i + per_slice]
            strip_sorted = strip[np.argsort(centers_y[strip], kind="stable")]
            for j in range(0, len(strip_sorted), self._leaf_capacity):
                chunk = ids[strip_sorted[j : j + self._leaf_capacity]]
                children.append(
                    _Node(bbox=_union_bbox(self._bboxes[chunk]), items=list(map(int, chunk)))
                )

        # Pack upward until a single root remains.
        while len(children) > 1:
            parents: List[_Node] = []
            for i in range(0, len(children), self._leaf_capacity):
                group = children[i : i + self._leaf_capacity]
                bbox = (
                    min(c.bbox[0] for c in group),
                    min(c.bbox[1] for c in group),
                    max(c.bbox[2] for c in group),
                    max(c.bbox[3] for c in group),
                )
                parents.append(_Node(bbox=bbox, children=group))
            children = parents
        return children[0]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _scan_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Item ids in full depth-first traversal order plus their bboxes
        gathered into that order, built lazily on first query.

        A rectangle query emits hits as a *subsequence* of this fixed
        order: the stack walk visits nodes in one deterministic sequence
        and pruning only removes whole subtrees, never reorders survivors.
        That makes the vectorized scan below order-identical to the
        original per-node walk.
        """
        if self._scan_order is None:
            order: List[int] = []
            stack = [self.root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    order.extend(node.items)
                else:
                    stack.extend(node.children)
            self._scan_order = np.asarray(order, dtype=np.int64)
            self._scan_boxes = self._bboxes[self._scan_order]
        return self._scan_order, self._scan_boxes

    def _scan_columns(self) -> Tuple[np.ndarray, ...]:
        """``(order, xmin, ymin, xmax, ymax)``: the scan boxes as four
        contiguous columns, derived on first query — a strided column of
        the ``(n, 4)`` table costs the bbox test ~2x in cache lines."""
        columns = self.__dict__.get("_scan_cols")
        if columns is None:
            order, boxes = self._scan_arrays()
            columns = (order, *(np.ascontiguousarray(boxes[:, k]) for k in range(4)))
            self.__dict__["_scan_cols"] = columns
        return columns

    def query_rect(self, xmin: float, ymin: float, xmax: float, ymax: float) -> List[int]:
        """Ids of items whose bounding box intersects the query rectangle.

        One vectorized bbox test over every item (gathered in traversal
        order) instead of a recursive node walk: the same float
        comparisons as :func:`_intersects`, the same hit set (a node bbox
        contains its items' bboxes, so node-level pruning never removes a
        hit), and the same output order — bit-identical results for every
        caller, ~an order of magnitude faster on constraint-mask / prior /
        sub-graph hot paths.
        """
        if self.root is None:
            return []
        order, x0, y0, x1, y1 = self._scan_columns()
        hit = ~((x1 < xmin) | (xmax < x0) | (y1 < ymin) | (ymax < y0))
        return order[hit].tolist()

    def query_radius(self, x: float, y: float, radius: float) -> List[int]:
        """Candidate ids within ``radius`` of (x, y) — bbox-level filter.

        Callers refine with exact point-to-geometry distance; the tree
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
        if self.root is None or not len(points):
            return np.zeros(len(points) + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        order, x0, y0, x1, y1 = self._scan_columns()
        if block is None:
            block = (1 << 22) // max(1, len(order))
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
        ids = (np.concatenate(id_blocks) if id_blocks
               else np.zeros(0, dtype=np.int64))
        return indptr, ids

    def __len__(self) -> int:
        return len(self._bboxes)
