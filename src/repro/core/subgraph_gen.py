"""Sub-Graph Generation (§IV-C).

Each GPS point p becomes a weighted directed sub-graph of the road network:
the segments within δ meters of p, the network edges among them, and
per-segment influence weights ω(e, p) = exp(-dist²(e, p)/γ²) (Eq. 5).

For batched processing the sub-graphs of all points of all trajectories in
a mini-batch are flattened into one disjoint union: a single node array
with ``graph_ids`` marking which (trajectory, timestep) each node belongs
to.  GNN layers and pooling then run once over the union.

Sub-graph structure depends only on the (static) input trajectories, so
:class:`SubGraphGenerator` memoizes per-point results keyed on quantized
coordinates, for the points of the last :data:`GENERATION_BATCHES` to
twice that many batches.  The hot path is vectorized end to end:

* per-point local edges come from a precomputed CSR copy of the network's
  out-neighbor lists (one ragged gather + a reusable global→local lookup
  buffer) instead of per-node dict/set unions;
* :meth:`SubGraphGenerator.batch` deduplicates quantized points across the
  whole (b, l) grid, builds each distinct sub-graph once, and assembles
  the disjoint union with ragged CSR gathers instead of a per-point
  Python loop over list appends.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .. import profile
from ..geo.distance import gaussian_weight
from ..nn.graph import edge_targets, ragged_positions, sort_unique, sorted_lookup
from ..nn.tensor import Segments
from ..roadnet.network import RoadNetwork
from .config import RNTrajRecConfig


@dataclass
class PointSubGraph:
    """Sub-graph of a single GPS point (segment ids, local edges, weights)."""

    segments: np.ndarray      # (v,) road segment ids
    edges: np.ndarray         # (2, e) indices local to ``segments``
    weights: np.ndarray       # (v,) influence weights ω(e, p)


@dataclass
class SubGraphBatch:
    """Disjoint union of the sub-graphs of a (batch, length) point grid.

    Construction validates ``edge_index`` and builds the two :class:`Segments`
    a forward's segment ops share: nodes by sub-graph, edges by target."""

    node_segments: np.ndarray  # (total_nodes,) road segment ids
    node_weights: np.ndarray   # (total_nodes,) Eq. 5 weights
    graph_ids: np.ndarray      # (total_nodes,) flat (b * l) graph index
    edge_index: np.ndarray     # (2, total_edges) into the flat node array
    batch_size: int
    length: int
    graph_index: Segments = field(init=False, repr=False)   # over graph_ids
    target_index: Segments = field(init=False, repr=False)  # over edge_index[1]

    def __post_init__(self) -> None:
        self.edge_index, self.target_index = edge_targets(self.edge_index, self.num_nodes)
        self.graph_index = Segments(self.graph_ids, self.num_graphs)

    @property
    def num_graphs(self) -> int:
        return self.batch_size * self.length

    @property
    def num_nodes(self) -> int:
        return len(self.node_segments)


def _grow_1d(array: np.ndarray, needed: int) -> np.ndarray:
    """``array`` with capacity >= ``needed`` (amortized doubling)."""
    if len(array) >= needed:
        return array
    grown = np.empty(max(needed, 2 * len(array)), dtype=array.dtype)
    grown[: len(array)] = array
    return grown


def _grow_edges(array: np.ndarray, needed: int) -> np.ndarray:
    """(2, cap) edge buffer with capacity >= ``needed`` columns."""
    if array.shape[1] >= needed:
        return array
    grown = np.empty((2, max(needed, 2 * array.shape[1])), dtype=array.dtype)
    grown[:, : array.shape[1]] = array
    return grown


#: Age, in :meth:`SubGraphGenerator.batch` calls, at which the memo's
#: current generation becomes the previous one and the previous one is
#: dropped.  Sized from the traffic that re-uses points: a training epoch
#: re-encodes its samples every epoch (Table III's 2 000 trajectories at
#: batch 16 are ~110 batches), and a streaming session re-encodes its fixes
#: on every append while the session store holds at most 256 sessions.
GENERATION_BATCHES = 256

_PACK = 2**32  # packed key = x · 2^32 + y for |x|, |y| < 2^31


#: (node counts, segments, weights, edge counts, edges) of consecutive
#: sub-graphs, their arrays concatenated: what :meth:`_Arena.append` stacks.
_Block = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _Arena:
    """One memo generation: sub-graphs stacked in growable arrays
    (amortized-doubling appends) and indexed by a sorted array of packed
    keys, so a whole batch resolves with one ``searchsorted``.  The arrays
    are append-only (growing copies the prefix), so views handed out stay
    valid and immutable in content."""

    def __init__(self) -> None:
        self.keys = np.zeros(0, dtype=np.int64)   # sorted packed keys
        self.slots = np.zeros(0, dtype=np.int64)  # aligned arena slots
        self.views: Dict[int, PointSubGraph] = {}  # slot → shared view
        self.num_slots = 0
        self.node_indptr = np.zeros(64, dtype=np.int64)
        self.edge_indptr = np.zeros(64, dtype=np.int64)
        self.seg_data = np.empty(1024, dtype=np.int64)
        self.weight_data = np.empty(1024, dtype=np.float64)
        self.edge_data = np.empty((2, 2048), dtype=np.int64)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Slot of each packed key, -1 where the key is not held."""
        if not len(self.keys):
            return np.full(len(keys), -1, dtype=np.int64)
        hit, positions = sorted_lookup(self.keys, keys)
        return np.where(hit, self.slots[positions], -1)

    def append(self, keys: np.ndarray, block: _Block) -> np.ndarray:
        """Stack ``block``'s sub-graphs, index them under ``keys`` and
        return their slots."""
        node_counts, segments, weights, edge_counts, edges = block
        first, n = self.num_slots, len(keys)
        nodes_used = int(self.node_indptr[first])
        edges_used = int(self.edge_indptr[first])
        v, e = len(segments), edges.shape[1]
        self.node_indptr = _grow_1d(self.node_indptr, first + n + 1)
        self.edge_indptr = _grow_1d(self.edge_indptr, first + n + 1)
        np.cumsum(node_counts, out=self.node_indptr[first + 1 : first + n + 1])
        self.node_indptr[first + 1 : first + n + 1] += nodes_used
        np.cumsum(edge_counts, out=self.edge_indptr[first + 1 : first + n + 1])
        self.edge_indptr[first + 1 : first + n + 1] += edges_used
        self.seg_data = _grow_1d(self.seg_data, nodes_used + v)
        self.weight_data = _grow_1d(self.weight_data, nodes_used + v)
        self.edge_data = _grow_edges(self.edge_data, edges_used + e)
        self.seg_data[nodes_used : nodes_used + v] = segments
        self.weight_data[nodes_used : nodes_used + v] = weights
        self.edge_data[:, edges_used : edges_used + e] = edges
        self.num_slots += n
        slots = np.arange(first, first + n, dtype=np.int64)
        merged_keys = np.concatenate([self.keys, keys])
        order = np.argsort(merged_keys, kind="stable")
        self.keys = merged_keys[order]
        self.slots = np.concatenate([self.slots, slots])[order]
        return slots

    def gather(self, slots: np.ndarray) -> _Block:
        """The sub-graphs at ``slots`` as a block another arena appends."""
        node_indptr, seg_stack, weight_stack, edge_indptr, edge_stack = self.stacks()
        node_counts = node_indptr[slots + 1] - node_indptr[slots]
        edge_counts = edge_indptr[slots + 1] - edge_indptr[slots]
        node_pos = ragged_positions(node_indptr[slots], node_counts)
        edge_pos = ragged_positions(edge_indptr[slots], edge_counts)
        return (node_counts, seg_stack[node_pos], weight_stack[node_pos],
                edge_counts, edge_stack[:, edge_pos])

    def stacks(self):
        """(node_indptr, seg_stack, weight_stack, edge_indptr, edge_stack)
        views over the used prefix of the growable arrays."""
        n = self.num_slots
        nodes_used = int(self.node_indptr[n])
        edges_used = int(self.edge_indptr[n])
        return (
            self.node_indptr[: n + 1],
            self.seg_data[:nodes_used],
            self.weight_data[:nodes_used],
            self.edge_indptr[: n + 1],
            self.edge_data[:, :edges_used],
        )

    def view(self, slot: int) -> PointSubGraph:
        """The one view-based :class:`PointSubGraph` of ``slot``."""
        view = self.views.get(slot)
        if view is None:
            n0, n1 = self.node_indptr[slot : slot + 2].tolist()
            e0, e1 = self.edge_indptr[slot : slot + 2].tolist()
            view = self.views[slot] = PointSubGraph(
                segments=self.seg_data[n0:n1],
                edges=self.edge_data[:, e0:e1],
                weights=self.weight_data[n0:n1],
            )
        return view


class SubGraphGenerator:
    """Builds :class:`PointSubGraph`/:class:`SubGraphBatch` objects.

    Each built sub-graph is memoized under its 1 m-quantized point, from
    which it is built, so an entry is a pure function of its key and
    dropping one can only cost a rebuild, never change an output.  The
    memo keeps two generations (:class:`_Arena`): builds and hits land in
    the current one, a hit in the previous one is copied into the current
    one, and every :data:`GENERATION_BATCHES` calls of :meth:`batch` the
    previous generation is dropped and the current one takes its place.  A
    sub-graph unused for that many to twice that many batches is rebuilt
    on its next use, so the memo holds the recent traffic's points (~2.9 KB
    each at the small cities' defaults), not every point ever seen.
    """

    def __init__(self, network: RoadNetwork, config: RNTrajRecConfig) -> None:
        self.network = network
        self.config = config
        # CSR view of the out-neighbor lists (cached on the network): local
        # sub-graph edges are one ragged gather over these arrays instead
        # of per-node set lookups.
        self._nbr_indptr, self._nbr_indices, self._degree = (
            network.csr_out_neighbors())
        # Reusable global→local scratch (reset after every use, so a
        # fresh O(|V|) allocation is not paid per point).
        self._local_of = np.full(network.num_segments, -1, dtype=np.int64)
        # A shared model may be driven from several threads (the serving
        # scheduler's worker plus direct callers), and both the scratch
        # buffer and the arenas are mutable — one lock serializes them.
        self._lock = threading.RLock()
        self.clear_cache()

    def _built(self, points: np.ndarray) -> _Block:
        """Build the sub-graph of every quantized ``(x, y)`` row."""
        profile.count("subgraph.build", len(points))
        subs = [self._build_subgraph(x, y)
                for x, y in points.astype(np.float64).tolist()]
        return (np.array([len(sub.segments) for sub in subs], dtype=np.int64),
                np.concatenate([sub.segments for sub in subs]),
                np.concatenate([sub.weights for sub in subs]),
                np.array([sub.edges.shape[1] for sub in subs], dtype=np.int64),
                np.concatenate([sub.edges for sub in subs], axis=1))

    def _resolve_slots(self, keys: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Current-generation slots of a batch's distinct packed ``keys``
        (one quantized ``(x, y)`` row of ``points`` per key).

        Steady state (every key held) is a single ``searchsorted`` over the
        current generation's keys; the rest are copied from the previous
        generation or, held by neither, built — *from the quantized
        point*, whichever sub-metre twin of the bucket arrived — and
        appended in one block.
        """
        current = self._current
        slots = current.find(keys)
        missing = np.flatnonzero(slots < 0)
        if len(missing):
            old = self._previous.find(keys[missing])
            kept = old >= 0
            order = np.concatenate([missing[kept], missing[~kept]])
            blocks = []
            if kept.any():
                blocks.append(self._previous.gather(old[kept]))
            if not kept.all():
                blocks.append(self._built(points[missing[~kept]]))
            block = tuple(np.concatenate(parts, axis=-1) for parts in zip(*blocks))
            slots[order] = current.append(keys[order], block)
        return slots

    # ------------------------------------------------------------------
    def point_subgraph(self, x: float, y: float) -> PointSubGraph:
        """The weighted sub-graph around one GPS point (memoized).

        Repeated calls for the same quantized point within a generation
        return the *same* view-backed object (zero-copy over the arena).
        """
        qx, qy = int(round(x)), int(round(y))  # 1 m quantization
        if max(abs(qx), abs(qy)) >= 2**31:  # beyond the packed key range
            return self._build_subgraph(float(qx), float(qy))
        with self._lock:
            slot = self._resolve_slots(np.array([qx * _PACK + qy], dtype=np.int64),
                                       np.array([[qx, qy]], dtype=np.int64))
            return self._current.view(int(slot[0]))

    def _build_subgraph(self, x: float, y: float) -> PointSubGraph:
        """Construct one sub-graph from scratch (callers cache the result)."""
        cfg = self.config
        segments, distances = self.network.nearest_within_arrays(
            x, y, cfg.receptive_delta, cfg.max_subgraph_nodes)
        if not len(segments):
            sid, dist, _ = self.network.nearest_segment(x, y)
            segments = np.array([sid], dtype=np.int64)
            distances = np.array([dist])
        weights = np.maximum(gaussian_weight(distances, cfg.influence_gamma), 1e-8)

        v = len(segments)
        counts = self._degree[segments]
        neighbors = self._nbr_indices[
            ragged_positions(self._nbr_indptr[segments], counts)
        ]
        lookup = self._local_of
        lookup[segments] = np.arange(v, dtype=np.int64)
        dst = lookup[neighbors]
        lookup[segments] = -1  # reset the scratch for the next point
        keep = dst >= 0
        src = np.repeat(np.arange(v, dtype=np.int64), counts)[keep]
        dst = dst[keep]
        # Self-loops keep every node reachable by its own message.
        loops = np.arange(v, dtype=np.int64)
        edges = np.stack([np.concatenate([src, loops]),
                          np.concatenate([dst, loops])])
        return PointSubGraph(segments=segments, edges=edges, weights=weights)

    # ------------------------------------------------------------------
    def batch(self, xy: np.ndarray) -> SubGraphBatch:
        """Flatten sub-graphs of an (b, l, 2) point array into one union."""
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim != 3 or xy.shape[2] != 2:
            raise ValueError(f"expected (batch, length, 2) points, got {xy.shape}")
        b, l = xy.shape[0], xy.shape[1]

        with profile.section("subgraph.batch"), self._lock:
            flat = xy.reshape(-1, 2)
            # 1 m quantization, matching point_subgraph's key; points
            # sharing a key are built (and stored) once per batch.  The two
            # coordinates pack into one int64, the arena's key.
            quantized = np.round(flat).astype(np.int64)
            if np.abs(quantized).max(initial=0) < 2**31:
                packed = quantized[:, 0] * _PACK + quantized[:, 1]
                first, inverse = sort_unique(packed, return_index=True)
                slots = self._resolve_slots(packed[first], quantized[first])
                arena = self._current
            else:  # coordinates beyond ±2^31 m: built for this batch only
                first, inverse = sort_unique(quantized, return_index=True)
                arena = _Arena()
                slots = arena.append(np.arange(len(first)),
                                     self._built(quantized[first]))
            node_indptr, seg_stack, weight_stack, edge_indptr, edge_stack = (
                arena.stacks())

            # Assemble the per-point union with ragged gathers over the
            # arena's stacked arrays.
            point_slots = slots[inverse]
            per_point_nodes = node_indptr[point_slots + 1] - node_indptr[point_slots]
            node_offsets = np.zeros(len(inverse), dtype=np.int64)
            np.cumsum(per_point_nodes[:-1], out=node_offsets[1:])
            node_pos = ragged_positions(node_indptr[point_slots], per_point_nodes)

            per_point_edges = edge_indptr[point_slots + 1] - edge_indptr[point_slots]
            edge_pos = ragged_positions(edge_indptr[point_slots], per_point_edges)
            edge_shift = np.repeat(node_offsets, per_point_edges)

            graphs = SubGraphBatch(
                node_segments=seg_stack[node_pos],
                node_weights=weight_stack[node_pos],
                graph_ids=np.repeat(np.arange(b * l, dtype=np.int64),
                                    per_point_nodes),
                edge_index=edge_stack[:, edge_pos] + edge_shift[None, :],
                batch_size=b,
                length=l,
            )
            self._age += 1
            if self._age == GENERATION_BATCHES:
                self._previous, self._current, self._age = self._current, _Arena(), 0
            return graphs

    def clear_cache(self) -> None:
        """Drop both generations.  Sub-graphs handed out earlier keep their
        content: they view the dropped arenas' arrays."""
        with self._lock:
            self._current, self._previous = _Arena(), _Arena()
            self._age = 0  # batch() calls since the last generation flip
