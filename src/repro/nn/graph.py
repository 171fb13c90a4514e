"""Graph neural network layers over flat node/edge arrays.

All layers share one calling convention designed for *batched* graphs: the
nodes of every graph in a batch are concatenated into a single
``(num_nodes, dim)`` tensor, and ``edge_index`` is a ``(2, num_edges)``
integer array of (source, target) pairs into that flat numbering.  A
disjoint union of graphs is then just one big graph, so one layer call
processes a whole mini-batch of trajectory sub-graphs (§IV-C) at once.

Self-loops are the caller's responsibility (see
:func:`add_self_loops`); GAT follows Velickovic et al. (Eqs. 3-4 of the
paper) with multi-head attention, GCN uses symmetric degree
normalization, and GIN uses a sum aggregator with an MLP.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import functional as F, init
from .layers import Linear
from .module import Module, ModuleList, Parameter
from .tensor import Segments, Tensor, gather_rows, segment_softmax, segment_sum


def add_self_loops(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Append (i, i) edges for every node; returns a new ``(2, E')`` array."""
    loops = np.arange(num_nodes, dtype=np.int64)
    return np.concatenate([edge_index, np.stack([loops, loops])], axis=1)


def csr_from_pairs(rows: np.ndarray, cols: np.ndarray,
                   num_nodes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, degree) CSR arrays of the pairs ``(rows[k],
    cols[k])`` grouped by row, each row's entries in pair order.

    The array form every vectorized adjacency consumer gathers from; node
    ``s``'s neighbors are ``indices[indptr[s]:indptr[s+1]]`` — the
    adjacency lists one pass over the pairs appends to.
    """
    rows = np.asarray(rows, dtype=np.int64)
    degree = np.bincount(rows, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    return indptr, np.asarray(cols, dtype=np.int64)[
        np.argsort(rows, kind="stable")], degree


def sorted_lookup(haystack: np.ndarray,
                  needles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Membership of ``needles`` in a sorted ``haystack``.

    Returns ``(hit, positions)`` where ``hit`` is a boolean mask and
    ``positions[hit]`` indexes the matching haystack entries.  The
    searchsorted-then-compare idiom shared by the sub-graph arena's key
    resolution and the reachability BFS frontier dedup.
    """
    needles = np.asarray(needles)
    if not len(haystack):
        return np.zeros(len(needles), dtype=bool), np.zeros(len(needles),
                                                            dtype=np.int64)
    positions = np.minimum(np.searchsorted(haystack, needles),
                           len(haystack) - 1)
    return haystack[positions] == needles, positions


def sort_unique(keys: np.ndarray, return_index: bool = False):
    """``np.unique`` by a sort and a neighbour-inequality mask.

    Without ``return_index``: the sorted distinct values of 1-D ``keys``
    (one unstable sort — the k-hop closure's frontier dedupe).  With it:
    ``(first, inverse)`` — ``np.unique(keys, [axis=0,] return_index=True,
    return_inverse=True)[1:]``, groups in its (lexicographic, for rows)
    order: a stable sort (``np.lexsort`` for ``(n, k)`` rows), so ``first``
    is each group's first occurrence, and ``inverse`` is 1-D.  Keys that
    compare equal group together (``-0.0`` with ``0.0``), as in
    ``np.unique``.  numpy 2.4's own version hashes 1-D keys (100 k int64:
    26 ms against a 0.8 ms sort, 2 vCPUs) and sorts rows as records
    (4–64 float rows: 57–78 µs against 15–19 µs here).
    """
    keys = np.asarray(keys)
    if not return_index:
        ordered = np.sort(keys)
    else:
        order = (np.argsort(keys, kind="stable") if keys.ndim == 1
                 else np.lexsort(keys.T[::-1]))
        ordered = keys[order]
    distinct = np.ones(len(ordered), dtype=bool)
    changed = ordered[1:] != ordered[:-1]
    distinct[1:] = changed if changed.ndim == 1 else changed.any(axis=1)
    if not return_index:
        return ordered[distinct]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(distinct) - 1
    return order[distinct], inverse


def ragged_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat gather positions for CSR-style ragged slices.

    Given per-row slice ``starts`` and ``counts`` into some flat array,
    returns the concatenation of ``[starts[k], ..., starts[k] + counts[k])``
    for every row ``k`` — i.e. the index array that gathers all the slices
    at once.  This replaces per-row Python loops over CSR adjacency
    (sub-graph generation, k-hop reachability) with one fancy-indexing op.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    # Global arange plus, per block, its start minus its offset in the output.
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts)


def edge_targets(edge_index: np.ndarray, num_nodes: int) -> Tuple[np.ndarray, Segments]:
    """The validated ``(2, E)`` int64 ``edge_index`` and its edges grouped by
    target node — what a GNN layer aggregates over.  Build the pair once
    per graph and hand it to every layer (``forward(x, edge_index,
    targets)``); a layer given no ``targets`` builds it per call."""
    edge_index = np.asarray(edge_index, dtype=np.int64)
    if edge_index.ndim != 2 or edge_index.shape[0] != 2:
        raise ValueError(f"edge_index must have shape (2, E), got {edge_index.shape}")
    if edge_index.size and (edge_index.min() < 0 or edge_index.max() >= num_nodes):
        raise IndexError("edge_index refers to nonexistent nodes")
    return edge_index, Segments(edge_index[1], num_nodes)


class GATLayer(Module):
    """Multi-head graph attention (paper Eqs. 3-4).

    Attention logits use the concatenation form
    ``LeakyReLU(a^T [W h_i || W h_j])`` which decomposes into
    ``a_src^T W h_i + a_dst^T W h_j`` — computed per node then gathered per
    edge, so the cost is O(V + E).
    Heads are concatenated; ``out_dim`` must be divisible by ``num_heads``.
    """

    def __init__(self, in_dim: int, out_dim: int, num_heads: int = 4, slope: float = 0.2) -> None:
        super().__init__()
        if out_dim % num_heads:
            raise ValueError(f"out_dim {out_dim} not divisible by num_heads {num_heads}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.slope = slope
        self.w = Parameter(init.xavier_uniform(in_dim, out_dim), name="gat.w")
        self.attn_src = Parameter(
            init.xavier_uniform(self.head_dim, num_heads, shape=(num_heads, self.head_dim)),
            name="gat.attn_src",
        )
        self.attn_dst = Parameter(
            init.xavier_uniform(self.head_dim, num_heads, shape=(num_heads, self.head_dim)),
            name="gat.attn_dst",
        )

    def forward(self, x: Tensor, edge_index: np.ndarray,
                targets: Optional[Segments] = None) -> Tensor:
        num_nodes = x.shape[0]
        if targets is None:
            edge_index, targets = edge_targets(edge_index, num_nodes)
        src = edge_index[0]

        transformed = (x @ self.w).reshape(num_nodes, self.num_heads, self.head_dim)
        # Per-node halves of the attention logit, shape (nodes, heads).
        alpha_src = (transformed * self.attn_src).sum(axis=-1)
        alpha_dst = (transformed * self.attn_dst).sum(axis=-1)

        logits = F.leaky_relu(gather_rows(alpha_src, src) + gather_rows(alpha_dst, targets),
                              self.slope)
        weights = segment_softmax(logits, targets)  # normalize over incoming edges

        messages = gather_rows(transformed, src)  # (edges, heads, head_dim)
        weighted = messages * weights.reshape(len(src), self.num_heads, 1)
        aggregated = segment_sum(weighted, targets)
        return F.leaky_relu(aggregated.reshape(num_nodes, self.out_dim), self.slope)


class GCNLayer(Module):
    """Graph convolution with symmetric normalization (Kipf & Welling)."""

    def __init__(self, in_dim: int, out_dim: int) -> None:
        super().__init__()
        self.linear = Linear(in_dim, out_dim)

    def forward(self, x: Tensor, edge_index: np.ndarray,
                targets: Optional[Segments] = None) -> Tensor:
        num_nodes = x.shape[0]
        if targets is None:
            edge_index, targets = edge_targets(edge_index, num_nodes)
        src, dst = edge_index[0], targets.ids
        out_degree = np.bincount(src, minlength=num_nodes).astype(np.float64)
        in_degree = targets.counts.astype(np.float64)
        norm = 1.0 / np.sqrt(np.maximum(out_degree[src], 1.0) * np.maximum(in_degree[dst], 1.0))

        messages = gather_rows(self.linear(x), src) * norm[:, None]
        return F.relu(segment_sum(messages, targets))


class GINLayer(Module):
    """Graph isomorphism layer: MLP((1 + eps) h_i + sum_j h_j)."""

    def __init__(self, in_dim: int, out_dim: int) -> None:
        super().__init__()
        self.eps = Parameter(np.zeros(1), name="gin.eps")
        self.fc1 = Linear(in_dim, out_dim)
        self.fc2 = Linear(out_dim, out_dim)

    def forward(self, x: Tensor, edge_index: np.ndarray,
                targets: Optional[Segments] = None) -> Tensor:
        if targets is None:
            edge_index, targets = edge_targets(edge_index, x.shape[0])
        neighbor_sum = segment_sum(gather_rows(x, edge_index[0]), targets)
        combined = x * (1.0 + self.eps) + neighbor_sum
        return self.fc2(F.relu(self.fc1(combined)))


class GraphStack(Module):
    """A stack of homogeneous GNN layers (used for Fig. 7(a) comparisons)."""

    def __init__(self, kind: str, dim: int, num_layers: int, num_heads: int = 4) -> None:
        super().__init__()
        kind = kind.lower()
        builders = {
            "gat": lambda: GATLayer(dim, dim, num_heads=num_heads),
            "gcn": lambda: GCNLayer(dim, dim),
            "gin": lambda: GINLayer(dim, dim),
        }
        if kind not in builders:
            raise ValueError(f"unknown GNN kind {kind!r}; expected one of {sorted(builders)}")
        self.kind = kind
        self.layers = ModuleList(builders[kind]() for _ in range(num_layers))

    def forward(self, x: Tensor, edge_index: np.ndarray) -> Tensor:
        edge_index, targets = edge_targets(edge_index, x.shape[0])
        for layer in self.layers:
            x = layer(x, edge_index, targets)
        return x
