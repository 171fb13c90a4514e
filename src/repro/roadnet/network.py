"""Road network model (paper Definition 1).

A road network is a directed graph whose *nodes are road segments*; an edge
(e_i, e_j) exists iff traffic can flow directly from segment e_i onto
segment e_j.  Each segment carries polyline geometry in the local metric
frame, a road level (functional class, 0-7), and an ``elevated`` flag used
by the §VI-D robustness experiments.  The network is built from exactly
those arrays — one packed polyline point table, the per-segment levels and
flags, and a ``(2, E)`` edge index — and every query reads arrays.

The class is the single owner of everything immutable about a city, each
structure memoized once on the network in the layout its kernel reads, so
N models and replicas over one network share one copy:

* static features ``f_r`` (8-way one-hot level + length + in/out degree,
  |f_r| = 11 as in §VI-A3) and the (self-looped) edge index;
* the STR-ordered scan index over segment bounding boxes and the flat
  sub-segment columns behind every δ-radius lookup;
* per-grid cell sequences (GridGNN's Eq. 1 input) and the k-hop forward
  closure the decoder's reachability mask gathers from;
* projection of GPS points onto segments and the inverse
  (segment, ratio) → (x, y) mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..geo.distance import (PolylineMeasures, measure_polylines, point_along_polyline,
                            polyline_length, project_point_to_polyline)
from ..geo.grid import Grid
from ..geo.rtree import RTree
from ..nn.graph import (add_self_loops, csr_from_pairs, ragged_positions,
                        sort_unique, sorted_lookup)

NUM_ROAD_LEVELS = 8

#: Pairs per distance-kernel call in a batched query: the kernel's dozen
#: row-wide arrays stay in cache (8.8 ns a row at 16k rows, 12.5 at 64k,
#: 25.6 at 128k); a small city's whole request is one block.
_PAIR_BLOCK = 1 << 14


@dataclass
class RoadSegment:
    """One directed road segment: the element type of the lazy
    :attr:`RoadNetwork.segments` view."""

    segment_id: int
    polyline: np.ndarray  # (k, 2) meters
    level: int = 2
    elevated: bool = False
    length: float = field(init=False)

    def __post_init__(self) -> None:
        self.polyline = np.asarray(self.polyline, dtype=np.float64)
        if self.polyline.ndim != 2 or len(self.polyline) < 2:
            raise ValueError("segment polyline needs at least two vertices")
        if not 0 <= self.level < NUM_ROAD_LEVELS:
            raise ValueError(f"road level must be in [0, {NUM_ROAD_LEVELS}), got {self.level}")
        self.length = polyline_length(self.polyline)

    @property
    def start(self) -> np.ndarray:
        return self.polyline[0]

    @property
    def end(self) -> np.ndarray:
        return self.polyline[-1]

    def bbox(self) -> Tuple[float, float, float, float]:
        xs, ys = self.polyline[:, 0], self.polyline[:, 1]
        return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())

    def position_at(self, ratio: float) -> np.ndarray:
        """(x, y) at moving-ratio ``ratio`` along the segment."""
        return point_along_polyline(self.polyline, ratio)


class RoadNetwork:
    """Directed graph of road segments with spatial lookup support."""

    #: Python object views of the arrays, built on first access (see
    #: __getattr__).  No code in the package reads them: the ledger's
    #: trace walk (``benchmarks/ledger/workloads.py::walk_trace``) is the
    #: one reader left, and they go when it reads the arrays instead.
    _LAZY_ATTRS = ("segments", "out_neighbors")

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        """A network over an array snapshot, without copying.

        The snapshot is :meth:`export_arrays`' or any subset of it that
        holds the base arrays ``poly_indptr``, ``poly_points``, ``levels``,
        ``elevated`` and ``edge_index`` (what :func:`generate_city`
        passes).  The arrays may be externally owned —
        memory-mapped, write-protected, shared across processes (see
        :mod:`repro.roadnet.artifacts`).  They seed the memo slots the
        snapshot carries and no others; every other slot (CSR neighbors,
        sub-segment columns, scan index, static features, ...) fills on
        first use from the seeded ones, by the same code whatever the
        snapshot held, so queries are bit-identical to the exporting
        network's.  ``edge_index`` is taken as given: no self-loop or
        repeat is dropped.
        """
        def ints(name: str) -> np.ndarray:
            return np.asarray(arrays[name], dtype=np.int64)

        def floats(name: str) -> np.ndarray:
            return np.asarray(arrays[name], dtype=np.float64)

        self._num_segments = len(arrays["poly_indptr"]) - 1
        self._poly_table = (ints("poly_indptr"), floats("poly_points"))
        self._levels = _read_only(ints("levels"))
        self._elevated = _read_only(np.asarray(arrays["elevated"], dtype=np.bool_))
        self._edge_index = ints("edge_index")
        derived = {
            "_edge_loops": (("edge_index_loops",),
                            lambda: ints("edge_index_loops")),
            "_csr_out": (("out_indptr", "out_indices", "out_degree"),
                         lambda: (ints("out_indptr"), ints("out_indices"),
                                  ints("out_degree"))),
            "_csr_in": (("in_indptr", "in_indices"),
                        lambda: (ints("in_indptr"), ints("in_indices"))),
            "_geometry": (("geom_indptr", "geom_columns"),
                          lambda: (ints("geom_indptr"), *floats("geom_columns"))),
            "_rtree": (("rtree_order", "rtree_columns"),
                       lambda: RTree.from_arrays(arrays["rtree_order"],
                                                 arrays["rtree_columns"])),
            "_bounds": (("bounds",),
                        lambda: tuple(float(v) for v in arrays["bounds"])),
            "_static": (("static",), lambda: floats("static")),
        }
        for slot, (names, seed) in derived.items():
            if all(name in arrays for name in names):
                self.__dict__[slot] = seed()

    def export_arrays(self) -> Dict[str, np.ndarray]:
        """Flat ``name -> array`` snapshot of every immutable structure a
        serving replica needs — what the constructor takes back.

        Includes the derived state that is expensive to rebuild
        (sub-segment columns, scan index, static features, the self-looped
        edge index) in the layout the kernels read — ``geom_columns`` is
        ``(5, m)`` and ``rtree_columns`` ``(4, n)``, C-contiguous, so each
        row maps out of an archive as one contiguous column.  Every entry
        is read from the memoized arrays, so exporting builds no object
        view.
        """
        poly_indptr, poly_points = self._polylines()
        out_indptr, out_indices, out_degree = self.csr_out_neighbors()
        in_indptr, in_indices = self.csr_in_neighbors()
        geom_indptr, *geom_columns = self._geometry_columns()
        return {
            "poly_indptr": poly_indptr,
            "poly_points": poly_points,
            "levels": self.levels(),
            "elevated": self.elevated(),
            "edge_index": self.edge_index(),
            "edge_index_loops": self.edge_index_loops(),
            "out_indptr": out_indptr,
            "out_indices": out_indices,
            "out_degree": out_degree,
            "in_indptr": in_indptr,
            "in_indices": in_indices,
            "geom_indptr": geom_indptr,
            "geom_columns": np.stack(geom_columns),
            "rtree_order": self.rtree.order,
            "rtree_columns": self.rtree.columns,
            "bounds": np.asarray(self.bounds(), dtype=np.float64),
            "static": self.static_features(),
        }

    def __getattr__(self, name: str):
        # Consulted only after __dict__ misses, so a view is built once.
        if name in RoadNetwork._LAZY_ATTRS:
            value = self.__dict__[name] = self._materialize_lazy(name)
            return value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def _materialize_lazy(self, name: str):
        n = self.num_segments
        if name == "segments":
            indptr, points = self._polylines()
            levels, elevated = self.levels(), self.elevated()
            # Polylines stay views of the packed point table (RoadSegment
            # never copies a float64 input) — read-only when the table is.
            return [
                RoadSegment(i, points[indptr[i]:indptr[i + 1]],
                            level=int(levels[i]), elevated=bool(elevated[i]))
                for i in range(n)
            ]
        indptr, indices, _ = self.csr_out_neighbors()
        bounds, flat = indptr.tolist(), indices.tolist()
        return [flat[bounds[i]:bounds[i + 1]] for i in range(n)]

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_segments(self) -> int:
        return self._num_segments

    def __len__(self) -> int:
        return self.num_segments

    def edge_index(self) -> np.ndarray:
        """(2, E) array of directed segment-to-segment edges (treat it as
        read-only)."""
        return self._edge_index

    def levels(self) -> np.ndarray:
        """Road level (functional class, 0-7) per segment; read-only."""
        return self._levels

    def elevated(self) -> np.ndarray:
        """Whether each segment is on an elevated deck; read-only."""
        return self._elevated

    def lengths(self) -> np.ndarray:
        """Polyline length per segment in meters, memoized; read-only."""
        cached = self.__dict__.get("_lengths")
        if cached is None:
            cached = self.__dict__["_lengths"] = _read_only(self._measures().total)
        return cached

    def edge_index_loops(self) -> np.ndarray:
        """(2, E + V) edge index with self-loops appended — memoized, so
        every model over this network shares one array instead of each
        encoder concatenating its own copy.  Treat it as read-only."""
        cached = self.__dict__.get("_edge_loops")
        if cached is None:
            cached = add_self_loops(self.edge_index(), self.num_segments)
            self.__dict__["_edge_loops"] = cached
        return cached

    def csr_out_neighbors(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached CSR view of the out-neighbor lists: (indptr, indices,
        degree).  Segment ``s``'s successors are
        ``indices[indptr[s]:indptr[s+1]]`` — the array form every
        vectorized consumer (sub-graph generation, k-hop reachability)
        gathers from."""
        cached = self.__dict__.get("_csr_out")
        if cached is None:
            source, target = self.edge_index()
            cached = self.__dict__["_csr_out"] = csr_from_pairs(
                source, target, self.num_segments)
        return cached

    def csr_in_neighbors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached CSR ``(indptr, indices)`` of the in-neighbor lists."""
        cached = self.__dict__.get("_csr_in")
        if cached is None:
            source, target = self.edge_index()
            cached = self.__dict__["_csr_in"] = csr_from_pairs(
                target, source, self.num_segments)[:2]
        return cached

    def khop_closure(self, hops: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the k-hop forward closure R(s) =
        {s} ∪ N_out(s) ∪ ... ∪ N_out^hops(s), ids ascending per row —
        memoized per hop count, so every model and replica over this
        network shares one pair (what
        :class:`~repro.core.decoder.ReachabilityMask` gathers from).
        Treat the arrays as read-only."""
        cache = self.__dict__.setdefault("_khop", {})
        if hops not in cache:
            n = self.num_segments
            adj_indptr, adj_indices, degree = self.csr_out_neighbors()
            # Multi-source BFS, vectorized over ALL start nodes at once:
            # the frontier is a flat array of (root, node) pairs encoded as
            # root * n + node; each hop expands every pair's neighbors with
            # one ragged gather, dedupes them by a sort and drops the ones
            # already reached by sorted membership (tests/reference.py's
            # ReferenceReachability is the per-node set-union BFS this
            # replaces).
            identity = np.arange(n, dtype=np.int64) * (n + 1)
            reached = frontier = identity  # sorted
            for _ in range(hops):
                nodes = frontier % n
                counts = degree[nodes]
                neighbors = adj_indices[ragged_positions(adj_indptr[nodes], counts)]
                candidate = sort_unique(np.repeat(frontier // n, counts) * n + neighbors)
                frontier = candidate[~sorted_lookup(reached, candidate)[0]]
                if not len(frontier):
                    break
                # Two sorted runs of distinct keys: their merge is the union.
                reached = np.sort(np.concatenate([reached, frontier]), kind="stable")
            # Keys are sorted, so roots group contiguously.
            cache[hops] = (
                np.searchsorted(reached // n, np.arange(n + 1, dtype=np.int64)),
                reached % n)
        return cache[hops]

    def preload_khop_closure(self, hops: int, indptr: np.ndarray,
                             indices: np.ndarray) -> None:
        """Install a previously exported :meth:`khop_closure` so the BFS
        never runs (artifact warm-load path)."""
        self.__dict__.setdefault("_khop", {})[hops] = (
            np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64))

    def _polylines(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(poly_indptr, poly_points)`` — every segment's polyline in one
        ``(m, 2)`` point table, segment ``s``'s vertices at rows
        ``indptr[s]:indptr[s+1]``; the grid walk, the lengths, the boxes
        and the sub-segment columns are array passes over it.  Treat it as
        read-only."""
        return self._poly_table

    def _polyline(self, segment_id: int) -> np.ndarray:
        """Segment ``segment_id``'s ``(k, 2)`` rows of the point table."""
        indptr, points = self._poly_table
        return points[indptr[segment_id]:indptr[segment_id + 1]]

    def _measures(self) -> PolylineMeasures:
        """:func:`measure_polylines` of the point table, memoized: one pass
        serves the grid walks and the lengths (``total[s]`` is bit-equal
        to :func:`polyline_length` of segment ``s``)."""
        cached = self.__dict__.get("_measured")
        if cached is None:
            indptr, points = self._polylines()
            cached = self.__dict__["_measured"] = measure_polylines(points, indptr)
        return cached

    def _segment_boxes(self) -> np.ndarray:
        """``(V, 4)`` rows of :meth:`RoadSegment.bbox` — xmin, ymin, xmax,
        ymax — for every segment, as two reductions over the point table."""
        indptr, points = self._polylines()
        return np.concatenate([np.minimum.reduceat(points, indptr[:-1]),
                               np.maximum.reduceat(points, indptr[:-1])], axis=1)

    def bounds(self) -> Tuple[float, float, float, float]:
        cached = self.__dict__.get("_bounds")
        if cached is None:
            boxes = self._segment_boxes()
            cached = self.__dict__["_bounds"] = (
                float(boxes[:, 0].min()),
                float(boxes[:, 1].min()),
                float(boxes[:, 2].max()),
                float(boxes[:, 3].max()),
            )
        return cached

    def make_grid(self, cell_size: float = 50.0, margin: float = 100.0) -> Grid:
        """A grid covering the network with ``margin`` meters of padding."""
        x0, y0, x1, y1 = self.bounds()
        return Grid(x0 - margin, y0 - margin, x1 + margin, y1 + margin, cell_size)

    def grid_sequences(self, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
        """Padded ``(V, L)`` grid-cell index rows plus validity mask for
        ``grid`` — the GridGNN input matrices (Eq. 1), memoized per grid.

        Row ``s`` is :meth:`Grid.traverse_polyline` of segment ``s``, all
        rows walked at once by :meth:`Grid.traverse_polylines` over the
        packed point table (a packed network never materializes its
        segments for it).  The result is a static property of geometry +
        grid; memoizing it here (rather than per encoder) means N
        models/replicas over one network share one matrix pair, and packed
        networks can preload the snapshot a
        :class:`~repro.roadnet.artifacts.CityArtifacts` bundle carries.
        Treat the returned arrays as read-only.
        """
        key = (grid.x0, grid.y0, grid.x1, grid.y1, grid.cell_size)
        cache = self.__dict__.setdefault("_grid_seq_cache", {})
        if key not in cache:
            indptr, points = self._polylines()
            cells, rows, cols = grid.traverse_polylines(
                points, indptr, measures=self._measures())
            lengths = np.diff(cells)
            n = self.num_segments
            seq = np.zeros((n, int(lengths.max()) if n else 1), dtype=np.int64)
            mask = np.zeros(seq.shape, dtype=np.float64)
            owner = np.repeat(np.arange(n), lengths)
            rank = np.arange(len(owner)) - cells[owner]
            seq[owner, rank] = grid.flat_index(rows, cols)
            mask[owner, rank] = 1.0
            cache[key] = (seq, mask)
        return cache[key]

    def preload_grid_sequences(self, grid: Grid, seq: np.ndarray,
                               mask: np.ndarray) -> None:
        """Install a previously exported :meth:`grid_sequences` result so
        the polyline walk never runs (artifact warm-load path)."""
        key = (grid.x0, grid.y0, grid.x1, grid.y1, grid.cell_size)
        cache = self.__dict__.setdefault("_grid_seq_cache", {})
        cache[key] = (np.asarray(seq, dtype=np.int64),
                      np.asarray(mask, dtype=np.float64))

    # ------------------------------------------------------------------
    # Static features (f_r of §IV-B, size 11)
    # ------------------------------------------------------------------
    def static_features(self) -> np.ndarray:
        """Per-segment features: one-hot level (8) + length + in/out degree
        — memoized and shared by every encoder over this network; treat it
        as read-only (a packed network's copy is write-protected)."""
        cached = self.__dict__.get("_static")
        if cached is None:
            n = self.num_segments
            lengths = self._measures().total
            cached = np.zeros((n, NUM_ROAD_LEVELS + 3), dtype=np.float64)
            cached[np.arange(n), self.levels()] = 1.0
            cached[:, NUM_ROAD_LEVELS] = lengths / max(float(lengths.max()), 1.0)
            cached[:, NUM_ROAD_LEVELS + 1] = np.diff(self.csr_in_neighbors()[0])
            cached[:, NUM_ROAD_LEVELS + 2] = self.csr_out_neighbors()[2]
            self.__dict__["_static"] = cached
        return cached

    # ------------------------------------------------------------------
    # Spatial queries
    # ------------------------------------------------------------------
    @property
    def rtree(self) -> RTree:
        cached = self.__dict__.get("_rtree")
        if cached is None:
            cached = self.__dict__["_rtree"] = RTree(self._segment_boxes())
        return cached

    def _geometry_columns(self) -> Tuple[np.ndarray, ...]:
        """``(indptr, x0, y0, vx, vy, length²)`` — every polyline
        sub-segment of every segment as contiguous 1-D columns, segment
        ``s``'s sub-segments at rows ``indptr[s]:indptr[s+1]`` and
        ``length²`` pre-clamped to 1e-12, so the distance kernel gathers
        each column once.  The one form of this table: built here on first
        use, stored as is in the archive."""
        cached = self.__dict__.get("_geometry")
        if cached is None:
            poly_indptr, points = self._polylines()
            # Every vertex but each polyline's last starts a sub-segment.
            opens = np.ones(len(points), dtype=bool)
            opens[poly_indptr[1:] - 1] = False
            rows = np.flatnonzero(opens)
            starts = points[rows]
            vectors = points[rows + 1] - starts
            indptr = poly_indptr - np.arange(len(poly_indptr))
            vx, vy = np.ascontiguousarray(vectors.T)
            cached = self.__dict__["_geometry"] = (
                indptr, *np.ascontiguousarray(starts.T), vx, vy,
                np.maximum(vx ** 2 + vy ** 2, 1e-12))
        return cached

    def _row_distances(self, px, py, rows: np.ndarray) -> np.ndarray:
        """Distance from a point (scalars, or one coordinate per row) to
        each sub-segment row: ``project_point_to_polyline``'s clamp-and-
        measure as one fixed elementwise op sequence, in place over two
        work buffers — so a pair's distance does not depend on what else
        is in the call."""
        _, x0, y0, vx, vy, length2 = self._geometry_columns()
        sx, sy, ux, uy = x0[rows], y0[rows], vx[rows], vy[rows]
        t = px - sx
        t *= ux
        d = py - sy
        d *= uy
        t += d
        t /= length2[rows]
        np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
        np.multiply(t, ux, out=d)
        d += sx
        np.subtract(px, d, out=d)
        t *= uy
        t += sy
        np.subtract(py, t, out=t)
        d *= d
        t *= t
        d += t
        return np.sqrt(d, out=d)

    def _pair_distances(self, px, py, segment_ids: np.ndarray) -> np.ndarray:
        """Exact distance from a query point to each of ``segment_ids``:
        the minimum of :meth:`_row_distances` over a segment's
        sub-segments.  Every candidate's first sub-segment goes straight
        through the kernel; only polylines with more pay the ragged
        expansion and the reduction (most segments are one straight row,
        for which both are identities).  ``px``/``py`` are one point's
        scalars or one coordinate per candidate."""
        indptr = self._geometry_columns()[0]
        rows = indptr[segment_ids]
        extra = indptr[segment_ids + 1] - rows - 1
        bent = np.flatnonzero(extra)
        if not len(bent):
            return self._row_distances(px, py, rows)
        counts = extra[bent]
        starts = np.cumsum(counts) - counts  # of each bent segment's tail rows
        tail = np.arange(starts[-1] + counts[-1]) + np.repeat(
            rows[bent] + 1 - starts, counts)
        if np.ndim(px):
            px = np.concatenate([px, np.repeat(px[bent], counts)])
            py = np.concatenate([py, np.repeat(py[bent], counts)])
        dists = self._row_distances(px, py, np.concatenate([rows, tail]))
        tails = np.minimum.reduceat(dists[len(rows):], starts)
        dists = dists[:len(rows)]
        dists[bent] = np.minimum(dists[bent], tails)
        return dists

    def segment_distances(self, x: float, y: float,
                          segment_ids: np.ndarray) -> np.ndarray:
        """Exact point-to-geometry distances for an array of segment ids."""
        return self._pair_distances(
            x, y, np.asarray(segment_ids, dtype=np.int64))

    def segments_within_arrays(self, x: float, y: float,
                               radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """(ids, distances) of segments within ``radius``, nearest first.

        The sort is stable over the scan index's candidate order, so ties
        keep that order.
        """
        ids = self.rtree.rect_ids(x - radius, y - radius, x + radius, y + radius)
        dists = self.segment_distances(x, y, ids)
        keep = dists <= radius
        ids, dists = ids[keep], dists[keep]
        order = np.argsort(dists, kind="stable")
        return ids[order], dists[order]

    def nearest_within_arrays(self, x: float, y: float, radius: float,
                              limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """The first ``limit`` rows of :meth:`segments_within_arrays` —
        ids, distances and tie order bit for bit — from a search that is
        as wide as its answer, not as ``radius``.

        The first ball is the one expected to hold ``4 · limit`` segments
        at the network's own mean density (|V| ÷ bbox area); it doubles up
        to ``radius`` until ``limit`` hits lie inside.  A smaller ball's
        candidates are a subsequence of a larger one's scan order and
        every hit at or inside the cut distance (ties included) lies
        inside the ball, so the stable sort sees the same relative order.
        Hits count only clear of the ball's edge, where a box test and a
        computed distance could round apart.
        """
        x0, y0, x1, y1 = self.bounds()
        ball = 2.0 * math.sqrt(limit * (x1 - x0) * (y1 - y0)
                               / (math.pi * self.num_segments)) or radius
        while ball < radius:
            ids, dists = self.segments_within_arrays(x, y, ball)
            if np.searchsorted(dists, ball * (1.0 - 1e-9)) >= limit:
                return ids[:limit], dists[:limit]
            ball *= 2.0
        ids, dists = self.segments_within_arrays(x, y, radius)
        return ids[:limit], dists[:limit]

    def segments_within_batch(self, points: np.ndarray,
                              radius: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(indptr, ids, dists)`` of segments within ``radius`` of
        each row of ``points``, in scan-index candidate order (unsorted).

        The multi-point twin of :meth:`segments_within_arrays` for callers
        that scatter by segment id and don't need the nearest-first sort
        (the decode prior).  Both go through one distance kernel, so the
        distances — and anything derived from them — are bit-equal to Q
        separate single-point calls.
        """
        points = np.asarray(points, dtype=np.float64)
        indptr, ids = self.rtree.query_radius_many(points, radius)
        owner = np.repeat(np.arange(len(points)), np.diff(indptr))
        px, py = points[owner, 0], points[owner, 1]
        dists = np.empty(len(ids))
        for lo in range(0, len(ids), _PAIR_BLOCK):
            block = slice(lo, lo + _PAIR_BLOCK)
            dists[block] = self._pair_distances(px[block], py[block], ids[block])
        kept = np.flatnonzero(dists <= radius)
        return np.searchsorted(kept, indptr), ids[kept], dists[kept]

    def nearest_segment(self, x: float, y: float, search_radius: float = 200.0) -> Tuple[int, float, float]:
        """Closest segment to (x, y): returns (segment_id, distance, ratio).

        Expands the search radius geometrically until a hit is found, so it
        always succeeds on a non-empty network.
        """
        radius = search_radius
        for _ in range(18):
            ids, dists = self.segments_within_arrays(x, y, radius)
            if len(ids):
                sid = int(ids[0])
                return sid, float(dists[0]), self.project(x, y, sid)[1]
            radius *= 2.0
        raise RuntimeError(f"no segment found near ({x:.1f}, {y:.1f})")

    def project(self, x: float, y: float, segment_id: int) -> Tuple[float, float]:
        """(distance, ratio) of (x, y) projected onto a given segment."""
        dist, ratio, _ = project_point_to_polyline(
            np.array([x, y]), self._polyline(segment_id))
        return dist, ratio

    def project_ratios(self, x: float, y: float,
                       segment_ids: np.ndarray) -> np.ndarray:
        """:meth:`project`'s ratio onto each of ``segment_ids``, in one array
        pass: the polylines' pieces padded to the longest, then
        :func:`project_point_to_polyline`'s operations over every piece
        row, so each ratio is bit-equal to its one-segment call."""
        indptr, points = self._poly_table
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        first = indptr[segment_ids]
        pieces = indptr[segment_ids + 1] - first - 1
        width = int(pieces.max())
        column = np.arange(width)
        real = column < pieces[:, None]
        # Padding repeats a polyline's last piece; its rows are masked out.
        rows = (first[:, None] + np.minimum(column, pieces[:, None] - 1)).ravel()
        point = np.array([x, y], dtype=np.float64)
        starts = points[rows]
        seg_vec = points[rows + 1] - starts
        seg_len2 = np.einsum("ij,ij->i", seg_vec, seg_vec)
        seg_len = np.where(real, np.sqrt(seg_len2).reshape(real.shape), 0.0)
        rel = point[None, :] - starts
        t = np.einsum("ij,ij->i", rel, seg_vec) / np.maximum(seg_len2, 1e-12)
        t = np.clip(t, 0.0, 1.0)
        feet = starts + t[:, None] * seg_vec
        dists = np.linalg.norm(point[None, :] - feet, axis=1)
        best = np.argmin(np.where(real, dists.reshape(real.shape), np.inf), axis=1)
        cumulative = np.zeros((len(segment_ids), width + 1))
        np.cumsum(seg_len, axis=1, out=cumulative[:, 1:])
        total = np.maximum(cumulative[:, -1], 1e-12)
        k = np.arange(len(segment_ids))
        along = cumulative[k, best] + t.reshape(real.shape)[k, best] * seg_len[k, best]
        return np.clip(along / total, 0.0, 1.0)

    def position(self, segment_id: int, ratio: float) -> np.ndarray:
        """(x, y) of the point at ``ratio`` along ``segment_id``."""
        return point_along_polyline(self._polyline(segment_id), ratio)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A write-protected view of ``array`` (the caller's flags untouched)."""
    view = array.view()
    view.flags.writeable = False
    return view
