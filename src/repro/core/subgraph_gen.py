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
coordinates.  The hot path is vectorized end to end:

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
from typing import Dict, Optional, Tuple

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


class SubGraphGenerator:
    """Builds :class:`PointSubGraph`/:class:`SubGraphBatch` objects."""

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
        # The per-point cache IS the arena: every built sub-graph lives
        # exactly once, stacked in growable arrays (amortized-doubling
        # appends), so batch assembly is pure ragged gathers with zero
        # per-batch concatenation and a novel point costs only its own
        # copy-in.  Packed quantized keys map to arena slots through a
        # sorted array so a whole batch resolves with one searchsorted.
        # A shared model may be driven from several threads (the serving
        # scheduler's worker plus direct callers), and both the scratch
        # buffer and the arena are mutable — one lock serializes them.
        self._lock = threading.RLock()
        self._slot_of: Dict[Tuple[int, int], int] = {}
        self._view_of: Dict[int, PointSubGraph] = {}  # slot → shared view
        self._num_slots = 0
        self._node_indptr = np.zeros(64, dtype=np.int64)
        self._edge_indptr = np.zeros(64, dtype=np.int64)
        self._seg_data = np.empty(1024, dtype=np.int64)
        self._weight_data = np.empty(1024, dtype=np.float64)
        self._edge_data = np.empty((2, 2048), dtype=np.int64)
        self._known_keys = np.zeros(0, dtype=np.int64)   # sorted packed keys
        self._known_slots = np.zeros(0, dtype=np.int64)  # aligned arena slots

    def _sub_from_slot(self, slot: int) -> PointSubGraph:
        """A view-based :class:`PointSubGraph` over the arena's arrays.

        The arena is append-only (grown buffers copy the prefix), so views
        handed out remain valid and immutable in content.
        """
        n0, n1 = int(self._node_indptr[slot]), int(self._node_indptr[slot + 1])
        e0, e1 = int(self._edge_indptr[slot]), int(self._edge_indptr[slot + 1])
        return PointSubGraph(
            segments=self._seg_data[n0:n1],
            edges=self._edge_data[:, e0:e1],
            weights=self._weight_data[n0:n1],
        )

    def _slot(self, key: Tuple[int, int]) -> int:
        """Arena slot of the sub-graph for a quantized key, built on a miss
        *from the quantized point* — the entry is a pure function of its
        key, whichever sub-metre twin of the bucket arrives first."""
        slot = self._slot_of.get(key)
        if slot is None:
            sub = self._build_subgraph(float(key[0]), float(key[1]))
            slot = self._slot_of[key] = self._num_slots
            self._num_slots += 1
            v, e = len(sub.segments), sub.edges.shape[1]
            nodes_used = int(self._node_indptr[slot])
            edges_used = int(self._edge_indptr[slot])
            self._node_indptr = _grow_1d(self._node_indptr, slot + 2)
            self._edge_indptr = _grow_1d(self._edge_indptr, slot + 2)
            self._node_indptr[slot + 1] = nodes_used + v
            self._edge_indptr[slot + 1] = edges_used + e
            self._seg_data = _grow_1d(self._seg_data, nodes_used + v)
            self._weight_data = _grow_1d(self._weight_data, nodes_used + v)
            self._seg_data[nodes_used : nodes_used + v] = sub.segments
            self._weight_data[nodes_used : nodes_used + v] = sub.weights
            self._edge_data = _grow_edges(self._edge_data, edges_used + e)
            self._edge_data[:, edges_used : edges_used + e] = sub.edges
        return slot

    def _resolve_slots(self, unique_keys: Optional[np.ndarray],
                       points: np.ndarray) -> np.ndarray:
        """Arena slots for a batch's distinct quantized ``points`` (one
        ``(x, y)`` row per entry of ``unique_keys``).

        Steady state (every key already seen) is a single ``searchsorted``
        over the sorted known-key array; only unseen keys fall back to the
        Python build path, after which the key index is re-merged.
        """
        if unique_keys is None:  # exotic coordinates: per-point Python path
            return np.fromiter((self._slot(key) for key in map(tuple, points.tolist())),
                               dtype=np.int64, count=len(points))
        known_keys, known_slots = self._known_keys, self._known_slots
        slots = np.empty(len(unique_keys), dtype=np.int64)
        hit, positions = sorted_lookup(known_keys, unique_keys)
        slots[hit] = known_slots[positions[hit]]
        missing = np.nonzero(~hit)[0]
        if len(missing):
            for u, key in zip(missing, map(tuple, points[missing].tolist())):
                slots[u] = self._slot(key)
            merged_keys = np.concatenate([known_keys, unique_keys[missing]])
            merged_slots = np.concatenate([known_slots, slots[missing]])
            order = np.argsort(merged_keys, kind="stable")
            self._known_keys = merged_keys[order]
            self._known_slots = merged_slots[order]
        return slots

    def _stacks(self):
        """(node_indptr, seg_stack, weight_stack, edge_indptr, edge_stack)
        views over the arena's growable arrays."""
        n = self._num_slots
        nodes_used = int(self._node_indptr[n])
        edges_used = int(self._edge_indptr[n])
        return (
            self._node_indptr[: n + 1],
            self._seg_data[:nodes_used],
            self._weight_data[:nodes_used],
            self._edge_indptr[: n + 1],
            self._edge_data[:, :edges_used],
        )

    # ------------------------------------------------------------------
    def point_subgraph(self, x: float, y: float) -> PointSubGraph:
        """The weighted sub-graph around one GPS point (cached in the arena).

        Repeated calls for the same quantized point return the *same*
        view-backed object (zero-copy over the arena arrays).
        """
        key = (int(round(x)), int(round(y)))  # 1 m quantization
        with self._lock:
            slot = self._slot(key)
            view = self._view_of.get(slot)
            if view is None:
                view = self._view_of[slot] = self._sub_from_slot(slot)
            return view

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
            # 1 m quantization, matching point_subgraph's cache key; points
            # sharing a key are built (and stored) once per batch.  The two
            # coordinates pack into one int64, the arena's key.
            quantized = np.round(flat).astype(np.int64)
            if np.abs(quantized).max(initial=0) < 2**31:
                packed = quantized[:, 0] * (2**32) + quantized[:, 1]
                first, inverse = sort_unique(packed, return_index=True)
                unique_keys = packed[first]
            else:  # coordinates beyond ±2^31 m: fall back to row-wise unique
                unique_keys = None
                first, inverse = sort_unique(quantized, return_index=True)
            slots = self._resolve_slots(unique_keys, quantized[first])
            node_indptr, seg_stack, weight_stack, edge_indptr, edge_stack = (
                self._stacks())

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

            return SubGraphBatch(
                node_segments=seg_stack[node_pos],
                node_weights=weight_stack[node_pos],
                graph_ids=np.repeat(np.arange(b * l, dtype=np.int64),
                                    per_point_nodes),
                edge_index=edge_stack[:, edge_pos] + edge_shift[None, :],
                batch_size=b,
                length=l,
            )

    def clear_cache(self) -> None:
        with self._lock:
            self._slot_of.clear()
            self._view_of.clear()
            self._num_slots = 0
            # Growable buffers are REPLACED, not reset in place: sub-graphs
            # handed out earlier hold views into the old buffers and must
            # keep their content.
            self._node_indptr = np.zeros(64, dtype=np.int64)
            self._edge_indptr = np.zeros(64, dtype=np.int64)
            self._seg_data = np.empty(1024, dtype=np.int64)
            self._weight_data = np.empty(1024, dtype=np.float64)
            self._edge_data = np.empty((2, 2048), dtype=np.int64)
            self._known_keys = np.zeros(0, dtype=np.int64)
            self._known_slots = np.zeros(0, dtype=np.int64)
