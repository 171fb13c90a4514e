"""Reference implementations of the recovery hot path and the serving door.

Most functions/classes here are faithful copies of the per-step /
per-node Python-loop code that shipped before the hot path was
vectorized (PR 2).  They exist for the equivalence guarantees:
``tests/test_vectorized_equivalence.py`` asserts on randomized inputs that
each vectorized implementation produces bit-identical (or allclose, where
autograd bookkeeping differs by design) outputs to its reference twin.
The module lives beside the tests because only they import it, as does
:func:`run_to_completion`, the synchronous engine driver the equivalence
tests decode through.

The last section goes the other way: the numpy versions of the door's
per-request helpers (router, request validation, ε_ρ grid alignment,
cache key, response body) that the one-pass plain-Python versions
replaced; ``tests/test_door_equivalence.py`` holds the new ones to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import RNTrajRecConfig
from repro.core.decoder import DecodeConstraint, GreedyCarry, _sigmoid
from repro.core.subgraph_gen import PointSubGraph, SubGraphBatch
from repro.geo.distance import gaussian_weight, project_point_to_polyline
from repro.geo.grid import Grid
from repro.nn.graph import ragged_positions
from repro.nn.tensor import Tensor
from repro.roadnet.generator import CityConfig
from repro.cluster.router import RouteError
from repro.roadnet.network import RoadNetwork, RoadSegment
from repro.serve.request import RequestError
from repro.trajectory.dataset import Batch, make_padded_batch
from repro.trajectory.resample import epsilon_grid
from repro.trajectory.trajectory import RawTrajectory


# ----------------------------------------------------------------------
# Spatial index: the STR-packed node tree and its stack walk
# ----------------------------------------------------------------------


@dataclass
class _Node:
    bbox: Tuple[float, float, float, float]  # (xmin, ymin, xmax, ymax)
    children: List["_Node"] = field(default_factory=list)
    items: List[int] = field(default_factory=list)


def _union_bbox(boxes: np.ndarray) -> Tuple[float, float, float, float]:
    return (float(boxes[:, 0].min()), float(boxes[:, 1].min()),
            float(boxes[:, 2].max()), float(boxes[:, 3].max()))


def _intersects(a, b) -> bool:
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def _reference_str_tree(bboxes: np.ndarray, leaf_capacity: int) -> _Node:
    """The original ``RTree._build``: STR leaves, packed upward in groups
    of ``leaf_capacity`` until a single root remains."""
    ids = np.arange(len(bboxes))
    if len(ids) <= leaf_capacity:
        return _Node(bbox=_union_bbox(bboxes), items=list(map(int, ids)))
    centers_x = (bboxes[:, 0] + bboxes[:, 2]) / 2.0
    centers_y = (bboxes[:, 1] + bboxes[:, 3]) / 2.0
    leaf_count = int(np.ceil(len(ids) / leaf_capacity))
    slice_count = max(1, int(np.ceil(np.sqrt(leaf_count))))
    per_slice = int(np.ceil(len(ids) / slice_count))
    order_x = np.argsort(centers_x, kind="stable")
    children: List[_Node] = []
    for i in range(0, len(ids), per_slice):
        strip = order_x[i:i + per_slice]
        strip_sorted = strip[np.argsort(centers_y[strip], kind="stable")]
        for j in range(0, len(strip_sorted), leaf_capacity):
            chunk = ids[strip_sorted[j:j + leaf_capacity]]
            children.append(_Node(bbox=_union_bbox(bboxes[chunk]),
                                  items=list(map(int, chunk))))
    while len(children) > 1:
        parents: List[_Node] = []
        for i in range(0, len(children), leaf_capacity):
            group = children[i:i + leaf_capacity]
            bbox = (min(c.bbox[0] for c in group), min(c.bbox[1] for c in group),
                    max(c.bbox[2] for c in group), max(c.bbox[3] for c in group))
            parents.append(_Node(bbox=bbox, children=group))
        children = parents
    return children[0]


def reference_query_rect(bboxes: np.ndarray, rect: Tuple[float, float, float, float],
                         leaf_capacity: int = 16) -> List[int]:
    """The original ``RTree.query_rect``: a stack walk of the node tree
    that prunes whole subtrees by node bbox and tests items leaf by leaf.
    ``RTree`` keeps this hit set *and order* with one vectorized test over
    the items laid out in :func:`reference_scan_order`."""
    bboxes = np.asarray(bboxes, dtype=np.float64)
    if not len(bboxes):
        return []
    hits: List[int] = []
    stack = [_reference_str_tree(bboxes, max(2, leaf_capacity))]
    while stack:
        node = stack.pop()
        if not _intersects(node.bbox, rect):
            continue
        if node.children:
            stack.extend(node.children)
        else:
            hits.extend(i for i in node.items if _intersects(bboxes[i], rect))
    return hits


def reference_scan_order(bboxes: np.ndarray, leaf_capacity: int = 16) -> np.ndarray:
    """Item ids in the full (unpruned) depth-first walk order of the node
    tree — the order ``RTree`` computes directly as the STR leaves
    concatenated in reverse."""
    inf = float("inf")
    return np.asarray(
        reference_query_rect(bboxes, (-inf, -inf, inf, inf), leaf_capacity),
        dtype=np.int64)


# ----------------------------------------------------------------------
# City generator: one RoadSegment and one start-key join entry per segment
# ----------------------------------------------------------------------


def _node_key(point: np.ndarray) -> Tuple[int, int]:
    return (int(round(point[0] / 0.5)), int(round(point[1] / 0.5)))


class _CityBuilder:
    """Accumulates directed segments, their layers and U-turn partners."""

    def __init__(self) -> None:
        self.polylines: List[np.ndarray] = []
        self.levels: List[int] = []
        self.elevated: List[bool] = []
        self.layers: List[int] = []  # 0 = ground, 1 = elevated deck, -1 = ramp
        self.opposite: Dict[int, int] = {}

    def add_one_way(self, polyline: np.ndarray, level: int, elevated: bool,
                    layer: int) -> int:
        sid = len(self.polylines)
        self.polylines.append(np.asarray(polyline, dtype=np.float64))
        self.levels.append(level)
        self.elevated.append(elevated)
        self.layers.append(layer)
        return sid

    def add_two_way(self, polyline: np.ndarray, level: int, elevated: bool = False,
                    layer: int = 0) -> Tuple[int, int]:
        forward = self.add_one_way(polyline, level, elevated, layer)
        backward = self.add_one_way(np.asarray(polyline)[::-1], level, elevated, layer)
        self.opposite[forward] = backward
        self.opposite[backward] = forward
        return forward, backward


def _jittered_line(p0: np.ndarray, p1: np.ndarray, jitter: float,
                   rng: np.random.Generator) -> np.ndarray:
    mid = (p0 + p1) / 2.0
    direction = p1 - p0
    norm = np.linalg.norm(direction)
    if norm < 1e-9 or jitter <= 0:
        return np.stack([p0, p1])
    normal = np.array([-direction[1], direction[0]]) / norm
    mid = mid + normal * rng.normal(0.0, jitter)
    return np.stack([p0, mid, p1])


def reference_generate_city(config: Optional[CityConfig] = None) -> RoadNetwork:
    """The original ``generate_city``: every segment appended as a
    ``RoadSegment``, connectivity joined through a dict of start keys,
    one segment at a time, into :func:`reference_network`."""
    config = config or CityConfig()
    rng = np.random.default_rng(config.seed)
    builder = _CityBuilder()

    cols = int(round(config.width / config.block))
    rows = int(round(config.height / config.block))
    if cols < 2 or rows < 2:
        raise ValueError("city must be at least 2x2 blocks")

    def node(i: int, j: int) -> np.ndarray:
        return np.array([i * config.block, j * config.block], dtype=np.float64)

    for j in range(rows + 1):
        for i in range(cols):
            builder.add_two_way(np.stack([node(i, j), node(i + 1, j)]), level=2)
    for i in range(cols + 1):
        for j in range(rows):
            builder.add_two_way(np.stack([node(i, j), node(i, j + 1)]), level=2)

    connectors_added: set = set()
    for i in range(cols):
        for j in range(rows):
            if rng.random() >= config.minor_fraction:
                continue
            x = (i + 0.5) * config.block
            p0 = np.array([x, j * config.block])
            p1 = np.array([x, (j + 1) * config.block])
            builder.add_two_way(_jittered_line(p0, p1, config.jitter, rng), level=4)
            for jj in (j, j + 1):
                if (i, jj) in connectors_added:
                    continue
                connectors_added.add((i, jj))
                left = np.array([i * config.block, jj * config.block])
                right = np.array([(i + 1) * config.block, jj * config.block])
                mid = np.array([x, jj * config.block])
                builder.add_two_way(np.stack([left, mid]), level=4)
                builder.add_two_way(np.stack([mid, right]), level=4)

    for row in config.elevated_rows:
        if not 0 <= row <= rows:
            continue
        y = row * config.block
        offset = config.elevated_offset
        for i in range(cols):
            p0 = np.array([i * config.block, y + offset])
            p1 = np.array([(i + 1) * config.block, y + offset])
            builder.add_two_way(np.stack([p0, p1]), level=0, elevated=True, layer=1)
        for i in range(0, cols + 1, max(1, config.ramp_every)):
            ground = np.array([i * config.block, y])
            deck = np.array([i * config.block, y + offset])
            up = builder.add_one_way(np.stack([ground, deck]), level=1, elevated=True, layer=-1)
            down = builder.add_one_way(np.stack([deck, ground]), level=1, elevated=True, layer=-1)
            builder.opposite[up] = down
            builder.opposite[down] = up

    segments = [
        RoadSegment(i, poly, level, elev)
        for i, (poly, level, elev) in enumerate(
            zip(builder.polylines, builder.levels, builder.elevated))
    ]
    # Ramps (layer -1) join both decks at either end.
    starts: Dict[Tuple[int, int, int], List[int]] = {}
    for i, poly in enumerate(builder.polylines):
        layer = builder.layers[i]
        for deck in ((0, 1) if layer == -1 else (layer,)):
            starts.setdefault((*_node_key(poly[0]), deck), []).append(i)
    edges: List[Tuple[int, int]] = []
    for a, poly in enumerate(builder.polylines):
        layer = builder.layers[a]
        for deck in ((0, 1) if layer == -1 else (layer,)):
            for b in starts.get((*_node_key(poly[-1]), deck), []):
                if a == b:
                    continue
                if not config.allow_u_turn and builder.opposite.get(a) == b:
                    continue
                edges.append((a, b))
    return reference_network(segments, edges)


def reference_network(segments: Sequence[RoadSegment],
                      edges: Iterable[Tuple[int, int]]) -> RoadNetwork:
    """The original object constructor ``RoadNetwork(segments, edges)``:
    segments numbered 0..n-1 in order, self-loops and repeated edges
    dropped (first occurrence kept), then the segments packed into the
    arrays the network is built from."""
    segments = list(segments)
    if [s.segment_id for s in segments] != list(range(len(segments))):
        raise ValueError("segments must be numbered 0..n-1 in order")
    kept: List[Tuple[int, int]] = []
    seen: set = set()
    for a, b in edges:
        if a == b or (a, b) in seen:
            continue
        if not (0 <= a < len(segments) and 0 <= b < len(segments)):
            raise IndexError(f"edge ({a}, {b}) references a missing segment")
        seen.add((a, b))
        kept.append((a, b))
    return RoadNetwork({
        "poly_indptr": np.cumsum([0] + [len(s.polyline) for s in segments]),
        "poly_points": (np.concatenate([s.polyline for s in segments]) if segments
                        else np.zeros((0, 2))),
        "levels": np.array([s.level for s in segments], dtype=np.int64),
        "elevated": np.array([s.elevated for s in segments], dtype=np.bool_),
        "edge_index": np.array(kept, dtype=np.int64).reshape(-1, 2).T,
    })


# ----------------------------------------------------------------------
# Grid-cell walk: one polyline at a time
# ----------------------------------------------------------------------


def reference_traverse_polyline(grid: Grid, polyline: np.ndarray,
                                step: Optional[float] = None) -> List[Tuple[int, int]]:
    """The original ``Grid.traverse_polyline``: sample one polyline at
    ``step`` meters (default half a cell) and collapse consecutive
    duplicate cells."""
    polyline = np.asarray(polyline, dtype=np.float64)
    step = step or grid.cell_size / 2.0

    seg_vec = polyline[1:] - polyline[:-1]
    seg_len = np.linalg.norm(seg_vec, axis=1)
    total = float(seg_len.sum())
    count = max(2, int(np.ceil(total / step)) + 1)
    distances = np.linspace(0.0, total, count)

    cumulative = np.concatenate([[0.0], np.cumsum(seg_len)])
    indices = np.clip(np.searchsorted(cumulative, distances, side="right") - 1, 0, len(seg_len) - 1)
    leftover = distances - cumulative[indices]
    frac = leftover / np.maximum(seg_len[indices], 1e-12)
    points = polyline[indices] + frac[:, None] * seg_vec[indices]

    rows, cols = grid.cell_of(points[:, 0], points[:, 1])
    cells: List[Tuple[int, int]] = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        if not cells or cells[-1] != (r, c):
            cells.append((r, c))
    return cells


def reference_grid_sequences(network: RoadNetwork, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """The original ``RoadNetwork.grid_sequences``: walk each segment's
    polyline in turn and pad the flat cell rows into ``(V, L)``."""
    sequences: List[np.ndarray] = []
    for segment in network.segments:
        cells = reference_traverse_polyline(grid, segment.polyline)
        sequences.append(np.asarray([grid.flat_index(r, c) for r, c in cells],
                                    dtype=np.int64))
    max_len = max((len(s) for s in sequences), default=1)
    seq = np.zeros((network.num_segments, max_len), dtype=np.int64)
    mask = np.zeros((network.num_segments, max_len), dtype=np.float64)
    for i, row in enumerate(sequences):
        seq[i, : len(row)] = row
        mask[i, : len(row)] = 1.0
    return seq, mask


# ----------------------------------------------------------------------
# Spatial query: per-candidate Python projection loop
# ----------------------------------------------------------------------


def reference_segments_within(network: RoadNetwork, x: float, y: float,
                              radius: float) -> List[Tuple[int, float]]:
    """The original ``RoadNetwork.segments_within``: one Python
    ``project_point_to_polyline`` call per R-tree candidate (now replaced
    by one vectorized pass over a flat sub-segment table)."""
    point = np.array([x, y])
    hits: List[Tuple[int, float]] = []
    for sid in network.rtree.query_radius(x, y, radius):
        dist, _, _ = project_point_to_polyline(point, network.segments[sid].polyline)
        if dist <= radius:
            hits.append((sid, dist))
    hits.sort(key=lambda pair: pair[1])
    return hits


def reference_pair_distances(network: RoadNetwork, px, py,
                             segment_ids: np.ndarray) -> np.ndarray:
    """``RoadNetwork._pair_distances`` as it stood before the in-place row
    kernel (PR 22), verbatim: every candidate's sub-segments expanded with
    ``ragged_positions``, ~14 temporaries, ``np.clip``, one ``reduceat``."""
    indptr, x0, y0, vx, vy, length2 = network._geometry_columns()
    first = indptr[segment_ids]
    counts = indptr[segment_ids + 1] - first
    rows = ragged_positions(first, counts)
    if np.ndim(px):
        px, py = np.repeat(px, counts), np.repeat(py, counts)
    sx, sy, ux, uy = x0[rows], y0[rows], vx[rows], vy[rows]
    t = ((px - sx) * ux + (py - sy) * uy) / length2[rows]
    t = np.clip(t, 0.0, 1.0)
    dx = px - (sx + t * ux)
    dy = py - (sy + t * uy)
    dists = np.sqrt(dx * dx + dy * dy)
    return np.minimum.reduceat(dists, np.cumsum(counts) - counts)


def reference_constraint_for_fix(network: RoadNetwork, x: float, y: float,
                                 beta: float, max_gps_error: float
                                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The original Eq. 16 sparse-constraint builder (list comprehensions
    over loop-computed hits)."""
    hits = reference_segments_within(network, float(x), float(y), max_gps_error)
    if not hits:
        sid, dist, _ = network.nearest_segment(float(x), float(y))
        hits = [(sid, dist)]
    ids = np.array([sid for sid, _ in hits], dtype=np.int64)
    weights = gaussian_weight(np.array([d for _, d in hits]), beta)
    return ids, np.maximum(weights, 1e-8)


# ----------------------------------------------------------------------
# Road-network distance between positions: one loop per predecessor
# ----------------------------------------------------------------------


def reference_position_distance(engine, seg_a: int, ratio_a: float,
                                seg_b: int, ratio_b: float) -> float:
    """The original ``ShortestPathEngine.position_distance``: a running
    minimum over seg_b's in-neighbours (seg_a itself counted at 0), then
    the same minimum again for the loop case."""
    lengths = engine._lengths
    if seg_a == seg_b and ratio_b >= ratio_a:
        return float((ratio_b - ratio_a) * lengths[seg_a])
    indptr, sources = engine.network.csr_in_neighbors()
    in_neighbors = sources[indptr[seg_b]:indptr[seg_b + 1]].tolist()
    remaining = (1.0 - ratio_a) * lengths[seg_a]
    dist = engine.distances_from(seg_a)
    best = float("inf")
    for pred in in_neighbors:
        base = 0.0 if pred == seg_a else dist[pred]
        if np.isfinite(base):
            best = min(best, remaining + base + ratio_b * lengths[seg_b])
    if seg_a == seg_b:
        for pred in in_neighbors:
            if np.isfinite(dist[pred]):
                best = min(best, remaining + dist[pred] + ratio_b * lengths[seg_b])
    return float(best)


# ----------------------------------------------------------------------
# Decoder: reachability mask, interpolation prior, greedy decoding
# ----------------------------------------------------------------------


class ReferenceReachability:
    """Set-union BFS reachability (the original ``ReachabilityMask``)."""

    def __init__(self, out_neighbors: List[List[int]], hops: int = 2,
                 escape_weight: float = 0.02) -> None:
        self.hops = hops
        self.escape_weight = escape_weight
        self._sets: List[np.ndarray] = []
        for start, _ in enumerate(out_neighbors):
            frontier = {start}
            reached = {start}
            for _ in range(hops):
                frontier = {n for s in frontier for n in out_neighbors[s]} - reached
                reached |= frontier
            self._sets.append(np.fromiter(reached, dtype=np.int64))

    def combine(self, mask_row: Optional[np.ndarray], previous: np.ndarray,
                num_segments: int) -> np.ndarray:
        b = len(previous)
        if mask_row is None:
            mask_row = np.ones((b, num_segments))
        out = mask_row * self.escape_weight
        for i in range(b):
            reachable = self._sets[int(previous[i])]
            out[i, reachable] = mask_row[i, reachable]
        return out


def reference_interpolation_prior(batch: Batch, network, scale: float,
                                  floor: float) -> np.ndarray:
    """Per-(sample, step) loop version of ``decoder.interpolation_prior``."""
    b, l_rho = batch.target_segments.shape
    num_segments = network.num_segments
    prior = np.full((b, l_rho, num_segments), floor)
    radius = 3.0 * scale
    for i, sample in enumerate(batch.samples):
        low = sample.raw_low
        xs = np.interp(batch.target_times[i], low.times, low.xy[:, 0])
        ys = np.interp(batch.target_times[i], low.times, low.xy[:, 1])
        prev_xy = None
        for j in range(l_rho):
            xy = (float(xs[j]), float(ys[j]))
            if xy == prev_xy:
                prior[i, j] = prior[i, j - 1]
                continue
            hits = reference_segments_within(network, xy[0], xy[1], radius)
            for sid, dist in hits:
                prior[i, j, sid] = max(np.exp(-(dist / scale) ** 2), floor)
            prev_xy = xy
    return prior


def dense(constraint: DecodeConstraint) -> np.ndarray:
    """The (b, T, |V|) mask tensor a sparse constraint stands for, one
    :meth:`DecodeConstraint.row` per step."""
    return np.stack([constraint.row(j)
                     for j in range(constraint.base.shape[1])], 1)


def constraint_from_dense(dense: np.ndarray) -> DecodeConstraint:
    """A dense (b, T, |V|) mask tensor as the sparse constraint the decode
    consumes: base 0 and every column support."""
    b, steps, num_segments = dense.shape
    lo = num_segments * np.arange(b * steps).reshape(b, steps)
    return DecodeConstraint(
        np.zeros((b, steps)), lo, lo + num_segments,
        np.tile(np.arange(num_segments), b * steps),
        np.ascontiguousarray(dense, dtype=np.float64).reshape(-1), num_segments)


def reference_greedy_step(
    weights: "GreedyWeights",
    enc: np.ndarray,
    keys: np.ndarray,
    carry: "GreedyCarry",
    mask_row: Optional[np.ndarray],
    reachability: Optional["ReachabilityMask"],
) -> Tuple[np.ndarray, np.ndarray, "GreedyCarry"]:
    """``decoder.greedy_step`` as it was before the certified float32
    screen: the dense (b, |V|) ``mask_row`` and the full float64 logits
    row on every step — the definition the screened kernel must reproduce
    index for index, and every downstream byte with it."""
    state, prev_embed, prev_rate = carry.state, carry.prev_embed, carry.prev_rate
    prev_segments = carry.prev_segments
    b, length = enc.shape[0], enc.shape[1]
    if reachability is not None and prev_segments is not None:
        mask_row = reachability.combine(mask_row, prev_segments,
                                        weights.num_segments)
    # Additive attention (Eq. 14), mirroring AdditiveAttention.
    energy = np.tanh((state @ weights.w_g).reshape(b, 1, -1) + keys) @ weights.v
    scores = energy.reshape(b, length)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    attn = exp / exp.sum(axis=-1, keepdims=True)
    context = (attn.reshape(b, 1, -1) @ enc).reshape(b, -1)
    # GRU cell (Eq. 15), mirroring nn.GRUCell.forward.
    x = np.concatenate([prev_embed, prev_rate, context], axis=-1)
    hx = np.concatenate([state, x], axis=-1)
    z = _sigmoid(hx @ weights.w_z + weights.b_z)
    r = _sigmoid(hx @ weights.w_r + weights.b_r)
    rhx = np.concatenate([r * state, x], axis=-1)
    c = np.tanh(rhx @ weights.w_c + weights.b_c)
    state = (1.0 - z) * state + z * c
    # Segment head + Eq. 16 mask, argmax only.
    logits = state @ weights.head
    if mask_row is not None:
        logits = logits + np.log(np.maximum(mask_row, 1e-12))
    predicted = np.argmax(logits, axis=-1)
    # Rate head (Eq. 17), mirroring _rate.
    prev_embed = weights.embed_table[predicted]
    rate = _sigmoid(
        np.concatenate([prev_embed, state], axis=-1) @ weights.rate_w
        + weights.rate_b
    )
    rates = np.minimum(np.maximum(rate.reshape(b), 0.0), 1.0 - 1e-9)
    return predicted, rates, GreedyCarry(state, prev_embed, rates[:, None],
                                         predicted)


def reference_decode_greedy(
    decoder,
    encoder_outputs: Tensor,
    initial_state: Tensor,
    target_length: int,
    constraint: Optional[np.ndarray],
    reachability=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The original greedy loop: full autograd graph, loop-based masking."""
    b = encoder_outputs.shape[0]
    state = initial_state
    prev_embed = decoder.start_embedding.reshape(1, -1) * Tensor(np.ones((b, 1)))
    prev_rate = Tensor(np.zeros((b, 1)))

    segments = np.zeros((b, target_length), dtype=np.int64)
    rates = np.zeros((b, target_length))
    for j in range(target_length):
        mask_row = constraint[:, j, :].copy() if constraint is not None else None
        if reachability is not None and j > 0:
            mask_row = reachability.combine(mask_row, segments[:, j - 1],
                                            decoder.num_segments)
        log_probs, state, _ = decoder._step(prev_embed, prev_rate, state,
                                            encoder_outputs, mask_row)
        predicted = np.argmax(log_probs.data, axis=-1)
        segments[:, j] = predicted
        pred_embed = decoder.segment_embedding(predicted)
        rate = decoder._rate(pred_embed, state)
        rates[:, j] = np.clip(rate.data.reshape(b), 0.0, 1.0 - 1e-9)
        prev_embed = pred_embed
        prev_rate = Tensor(rates[:, j][:, None])
    return segments, rates


# ----------------------------------------------------------------------
# Sub-graph generation (per-node dict/set unions, per-point batch loop)
# ----------------------------------------------------------------------


class ReferenceSubGraphGenerator:
    """The original per-point / per-node sub-graph builder."""

    def __init__(self, network: RoadNetwork, config: RNTrajRecConfig) -> None:
        self.network = network
        self.config = config
        self._cache: Dict[Tuple[int, int], PointSubGraph] = {}

    def point_subgraph(self, x: float, y: float) -> PointSubGraph:
        key = (int(round(x)), int(round(y)))  # 1 m quantization
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        # The entry is built from the point it is keyed by, so it does not
        # depend on which sub-metre twin of the bucket arrived first.
        x, y = float(key[0]), float(key[1])

        cfg = self.config
        hits = reference_segments_within(self.network, x, y, cfg.receptive_delta)
        if not hits:
            sid, dist, _ = self.network.nearest_segment(x, y)
            hits = [(sid, dist)]
        hits = hits[: cfg.max_subgraph_nodes]

        segments = np.asarray([sid for sid, _ in hits], dtype=np.int64)
        distances = np.asarray([d for _, d in hits], dtype=np.float64)
        weights = np.maximum(gaussian_weight(distances, cfg.influence_gamma), 1e-8)

        local = {int(sid): i for i, sid in enumerate(segments)}
        edge_src: List[int] = []
        edge_dst: List[int] = []
        for sid, i in local.items():
            for neighbor in self.network.out_neighbors[sid]:
                j = local.get(int(neighbor))
                if j is not None:
                    edge_src.append(i)
                    edge_dst.append(j)
        for i in range(len(segments)):
            edge_src.append(i)
            edge_dst.append(i)

        result = PointSubGraph(
            segments=segments,
            edges=np.asarray([edge_src, edge_dst], dtype=np.int64),
            weights=weights,
        )
        self._cache[key] = result
        return result

    def batch(self, xy: np.ndarray) -> SubGraphBatch:
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim != 3 or xy.shape[2] != 2:
            raise ValueError(f"expected (batch, length, 2) points, got {xy.shape}")
        b, l = xy.shape[0], xy.shape[1]

        node_segments: List[np.ndarray] = []
        node_weights: List[np.ndarray] = []
        graph_ids: List[np.ndarray] = []
        edge_blocks: List[np.ndarray] = []
        offset = 0
        for gid, (px, py) in enumerate(xy.reshape(-1, 2)):
            sub = self.point_subgraph(float(px), float(py))
            v = len(sub.segments)
            node_segments.append(sub.segments)
            node_weights.append(sub.weights)
            graph_ids.append(np.full(v, gid, dtype=np.int64))
            edge_blocks.append(sub.edges + offset)
            offset += v

        return SubGraphBatch(
            node_segments=np.concatenate(node_segments),
            node_weights=np.concatenate(node_weights),
            graph_ids=np.concatenate(graph_ids),
            edge_index=np.concatenate(edge_blocks, axis=1),
            batch_size=b,
            length=l,
        )


# ----------------------------------------------------------------------
# GNN scatter kernel and constraint-mask materialization
# ----------------------------------------------------------------------


def reference_scatter_sum(values: np.ndarray, segment_ids: np.ndarray,
                          num_segments: int) -> np.ndarray:
    """``np.add.at`` scatter-add (original ``segment_sum`` forward kernel)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, segment_ids, values)
    return out


def reference_segment_softmax(scores: np.ndarray, segment_ids: np.ndarray,
                              num_segments: int) -> np.ndarray:
    """``segment_softmax``'s forward as it stood before PR 22: the shift
    from ``np.maximum.at`` over a −inf table, sums from ``np.add.at``."""
    seg_max = np.full((num_segments,) + scores.shape[1:], -np.inf, dtype=scores.dtype)
    np.maximum.at(seg_max, segment_ids, scores)
    seg_max[~np.isfinite(seg_max)] = 0.0
    exp = np.exp(scores - seg_max[segment_ids])
    denom = reference_scatter_sum(exp, segment_ids, num_segments)
    return exp / (denom[segment_ids] + 1e-12)


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic forward as it stood before its branch-free form: both
    branches evaluated, the clipped sign selecting with ``np.where``."""
    clipped = np.clip(x, -60.0, 60.0)
    exp_neg = np.exp(-np.abs(clipped))
    return np.where(clipped >= 0, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))


def reference_leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """Leaky-ReLU's forward before its branch-free form."""
    return np.where(x > 0, x, slope * x)


def reference_constraint_matrix(sample, num_segments: int) -> np.ndarray:
    """Row-buffer loop building one sample's dense (l_ρ, |V|) Eq. 16 mask:
    1.0 at an unobserved step; 0 off the fix's entry and its weights on it
    at an observed one."""
    mask = np.ones((sample.target_length, num_segments), dtype=np.float64)
    for step, entry in enumerate(sample.constraints):
        if entry is None:
            continue
        ids, weights = entry
        row = np.zeros(num_segments, dtype=np.float64)
        row[ids] = weights
        mask[step] = row
    return mask


def reference_constraint_tensor(batch: Batch, num_segments: int,
                                start: int = 0) -> np.ndarray:
    """The (b, l_ρ − start, |V|) Eq. 16 mask of grid steps ``[start:]``:
    the definition ``decode_constraint(batch, network, 0.0, ...)`` builds
    sparsely (and training masks with)."""
    return np.stack([reference_constraint_matrix(s, num_segments)[start:]
                     for s in batch.samples])


# ----------------------------------------------------------------------
# Pre-continuous-batching scheduler path (run-to-completion draining)
# ----------------------------------------------------------------------


def run_to_completion(engine, jobs) -> list:
    """Admit what fits, step until drained, admitting as slots free up.

    A synchronous driver of a :class:`repro.serve.engine.ContinuousEngine`
    for the equivalence tests — the serving path drives the engine from
    :class:`~repro.serve.batching.ContinuousScheduler` instead.  Results
    (``DecodeResult``) come back in ``jobs`` order; a retirement's error
    is raised.
    """
    results: list = [None] * len(jobs)
    slot_to_index: Dict[int, int] = {}
    pending = list(enumerate(jobs))
    pending.reverse()  # pop() from the front of the original order

    def _admit_available() -> None:
        while pending and engine.free_slots > 0:
            index, job = pending.pop()
            slot_to_index[engine.admit(job)] = index

    _admit_available()
    while slot_to_index:
        for retirement in engine.step():
            index = slot_to_index.pop(retirement.slot)
            if retirement.error is not None:
                raise retirement.error
            results[index] = retirement.result
        _admit_available()
    return [result for result in results if result is not None]


def reference_run_to_completion(model, samples) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The serving decode path as it existed before the continuous engine:
    group concurrent samples by input length (the micro-batcher's group
    key), pad each group's target grids to a common length, decode the
    padded batch in one ``recover`` call to completion and truncate each
    row back to its true length, and only then start the next group.
    Returns per-sample (segments, rates) in submission order — the twin
    the engine's interleaved decode is pinned against in
    ``tests/test_vectorized_equivalence.py``.
    """
    groups: Dict[int, List[int]] = {}
    for index, sample in enumerate(samples):
        groups.setdefault(sample.input_length, []).append(index)
    results: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(samples)
    for indices in groups.values():
        batch, lengths = make_padded_batch([samples[i] for i in indices])
        segments, rates = model.recover(batch)
        for row, (i, length) in enumerate(zip(indices, lengths)):
            results[i] = (segments[row, :length], rates[row, :length])
    return [result for result in results if result is not None]


# ----------------------------------------------------------------------
# The serving door's per-request helpers, as numpy
# ----------------------------------------------------------------------
class ReferenceShardRouter:
    """``ShardRouter`` with the vectorized cell lookup and containment."""

    def __init__(self, boxes, cell_size: float = 200.0,
                 max_grid_cells: int = 1 << 18) -> None:
        self.boxes = [tuple(float(v) for v in box) for box in boxes]
        arr = np.asarray(self.boxes, dtype=np.float64)
        self._x0, self._y0 = arr[:, 0], arr[:, 1]
        self._x1, self._y1 = arr[:, 2], arr[:, 3]
        x0, y0 = float(arr[:, 0].min()), float(arr[:, 1].min())
        x1, y1 = float(arr[:, 2].max()), float(arr[:, 3].max())
        cell = float(cell_size)
        while (max(1, np.ceil((x1 - x0) / cell))
               * max(1, np.ceil((y1 - y0) / cell))) > max_grid_cells:
            cell *= 2.0
        self.grid = Grid(x0=x0, y0=y0, x1=x1, y1=y1, cell_size=cell)
        rows, cols = np.meshgrid(np.arange(self.grid.rows),
                                 np.arange(self.grid.cols), indexing="ij")
        cx = self.grid.x0 + (cols.ravel() + 0.5) * self.grid.cell_size
        cy = self.grid.y0 + (rows.ravel() + 0.5) * self.grid.cell_size
        inside = self._containment(cx, cy)
        self._owner = np.where(inside.any(axis=0), inside.argmax(axis=0),
                               -1).astype(np.int64)

    def _containment(self, x, y):
        return ((x >= self._x0[:, None]) & (x <= self._x1[:, None])
                & (y >= self._y0[:, None]) & (y <= self._y1[:, None]))

    def shard_of_points(self, xy) -> int:
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2 or len(xy) == 0:
            raise ValueError(f"expected (n, 2) points, got shape {xy.shape}")
        x, y = xy[:, 0], xy[:, 1]
        in_union = ((x >= self.grid.x0) & (x <= self.grid.x1)
                    & (y >= self.grid.y0) & (y <= self.grid.y1))
        if bool(in_union.all()):
            owners = self._owner[self.grid.flat_cell_of(x, y)]
            candidate = int(owners[0])
            if candidate >= 0 and bool((owners == candidate).all()):
                if bool(self._containment(x, y)[candidate].all()):
                    return candidate
        inside = self._containment(x, y)
        full = np.flatnonzero(inside.all(axis=1))
        if len(full) == 1:
            return int(full[0])
        covered = inside.any(axis=0)
        if not bool(covered.all()):
            missing = np.flatnonzero(~covered)
            fix = xy[missing[0]]
            raise RouteError(
                "outside",
                f"{len(missing)}/{len(xy)} fixes outside every shard "
                f"(first: ({fix[0]:.1f}, {fix[1]:.1f}))",
            )
        touched = sorted(int(i) for i in np.flatnonzero(inside.any(axis=1)))
        raise RouteError(
            "straddle",
            f"trace spans shards {touched}; recovery cannot cross shard "
            "boundaries",
        )

    def coverage(self) -> Tuple[int, int]:
        return int((self._owner >= 0).sum()), int(self._owner.size)


def reference_raw(xy, times) -> RawTrajectory:
    """``RecoveryRequest(xy, times).raw()``: the arrays made at
    construction, then ``RawTrajectory``'s checks and the finite check."""
    xy = np.asarray(xy, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    try:
        raw = RawTrajectory(xy, times)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc
    if not (np.all(np.isfinite(raw.xy)) and np.all(np.isfinite(raw.times))):
        raise RequestError("GPS positions and times must be finite")
    return raw


def reference_grid_alignment(times, interval: float):
    """(grid times, snapped steps), the whole grid built to be counted."""
    times = np.asarray(times, dtype=np.float64)
    grid_times = epsilon_grid(float(times[0]), float(times[-1]), interval)
    steps = np.clip(
        np.round((times - times[0]) / interval).astype(np.int64),
        0, len(grid_times) - 1,
    )
    return grid_times, steps


def reference_quantize_key(xy, times, xy_precision: float = 0.1,
                           time_precision: float = 0.1, extra: Tuple = ()):
    xy = np.asarray(xy, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    qxy = np.round(xy / xy_precision).astype(np.int64)
    qt = np.round((times - times[0]) / time_precision).astype(np.int64)
    return (extra, qxy.shape, qxy.tobytes(), qt.tobytes())


def reference_shard_key(xy, times, interval: float, hour: int = 12,
                        holiday: bool = False, origin=(0.0, 0.0),
                        xy_precision: float = 0.1, time_precision: float = 0.1):
    """The shard's cache key as numpy built it: localize, validate, align,
    quantize."""
    points = np.asarray(xy, dtype=np.float64)
    if any(origin):
        points = points - np.array(origin)
    raw = reference_raw(points, times)
    if len(raw) < 2:
        raise RequestError("a recovery request needs at least two GPS fixes")
    grid_times, steps = reference_grid_alignment(raw.times, interval)
    return reference_quantize_key(
        raw.xy, raw.times, xy_precision=xy_precision,
        time_precision=time_precision,
        extra=(int(hour) % 24, bool(holiday), len(grid_times), steps.tobytes()))


def reference_response_payload(response) -> Dict:
    return {
        "request_id": response.request_id,
        "segments": response.trajectory.segments.tolist(),
        "ratios": [round(float(r), 6) for r in response.trajectory.ratios],
        "times": response.trajectory.times.tolist(),
        "cached": response.cached,
        "latency_ms": round(response.latency_ms, 3),
        "model": response.model,
        "model_tag": response.model_tag,
        "shard": response.shard,
        "session_id": response.session_id,
        "revised_from": response.revised_from,
    }
