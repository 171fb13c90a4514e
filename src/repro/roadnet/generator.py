"""Synthetic city generator — the stand-in for OpenStreetMap extracts.

The paper trains on Shanghai / Chengdu / Porto road networks, which are
not available offline.  This generator builds cities with the structural
features that make trajectory recovery hard (and that the paper's
experiments probe):

* an arterial grid (level 2) whose spacing controls intersection density;
* minor streets (level 4) subdividing a fraction of blocks;
* two-way traffic modeled as paired opposite-direction segments;
* an **elevated expressway** (level 0, ``elevated=True``) running above a
  trunk corridor, connected only at sparse ramps — reproducing the
  elevated/ground ambiguity that §VI-D's SR%k experiment measures;
* optional geometric jitter so minor roads are not perfectly straight.

All coordinates are meters in the local frame.  Segment connectivity is
derived from shared endpoints, with turn restrictions that forbid instant
U-turns onto the paired opposite segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..nn.graph import ragged_positions, sorted_lookup
from .network import RoadNetwork

_NODE_QUANT = 0.5  # meters; endpoints are snapped to this before matching


@dataclass(frozen=True)
class CityConfig:
    """Parameters of a synthetic city."""

    width: float = 2000.0
    height: float = 2000.0
    block: float = 250.0
    minor_fraction: float = 0.5
    elevated_rows: Tuple[int, ...] = (2,)
    ramp_every: int = 3
    elevated_offset: float = 10.0
    jitter: float = 6.0
    seed: int = 7
    allow_u_turn: bool = False


class _Pairs:
    """Roads as arrays, every one two-way: road ``p`` becomes segment
    ``2p`` along its polyline and ``2p + 1`` back along it (its U-turn
    partner).  Roads are numbered by ``key``, which is their place in the
    generator's segment order."""

    def __init__(self) -> None:
        self.chunks: List[Tuple[np.ndarray, ...]] = []
        self.next_key = 0

    def add(self, polylines: np.ndarray, level: int, elevated: bool = False,
            layer: int = 0, keys: np.ndarray | None = None) -> None:
        """``(c, k, 2)`` polylines; ``keys`` default to the next ``c``."""
        count, k = polylines.shape[:2]
        if keys is None:
            keys = self.next_key + np.arange(count)
            self.next_key += count
        self.chunks.append((polylines.reshape(-1, 2), np.full(count, k), keys,
                            np.full(count, level), np.full(count, elevated),
                            np.full(count, layer)))

    def network(self, allow_u_turn: bool) -> RoadNetwork:
        vertices, counts, keys, levels, elevated, layers = (
            np.concatenate(column) for column in zip(*self.chunks))
        order = np.argsort(keys)
        starts = (np.cumsum(counts) - counts)[order]
        counts = counts[order]
        # Segment 2p + d walks road p's vertices forward (d = 0) or back.
        seg_counts = np.repeat(counts, 2)
        poly_indptr = np.zeros(len(seg_counts) + 1, dtype=np.int64)
        np.cumsum(seg_counts, out=poly_indptr[1:])
        segment = np.repeat(np.arange(len(seg_counts)), seg_counts)
        step = np.arange(len(segment)) - poly_indptr[segment]
        road = segment >> 1
        step = np.where(segment & 1, counts[road] - 1 - step, step)
        poly_points = vertices[starts[road] + step]
        layers = np.repeat(layers[order], 2)
        return RoadNetwork({
            "poly_indptr": poly_indptr,
            "poly_points": poly_points,
            "levels": np.repeat(levels[order], 2).astype(np.int64),
            "elevated": np.repeat(elevated[order], 2).astype(np.bool_),
            "edge_index": _connect(poly_points, poly_indptr, layers, allow_u_turn),
        })


def _connect(points: np.ndarray, indptr: np.ndarray, layers: np.ndarray,
             allow_u_turn: bool) -> np.ndarray:
    """The ``(2, E)`` edge index: segment a feeds segment b iff a's end
    node is b's start node *on the same deck* (0 ground, 1 elevated).  A
    ramp (layer -1) bridges the decks: it starts on both and ends on both.

    Edges come out by source, then by the source's end deck (ground before
    elevated), then by target id; self-edges and, unless
    ``allow_u_turn``, the U-turn partner are dropped, and an edge a ramp
    reaches on both decks is kept once."""
    n = len(layers)
    keys = np.rint(points[np.concatenate([indptr[:-1], indptr[1:] - 1])]
                   / _NODE_QUANT).astype(np.int64)
    keys -= keys.min(axis=0)
    node = keys[:, 0] * (keys[:, 1].max() + 1) + keys[:, 1]
    # One join entry per (segment, deck), segments in id order; a ramp's
    # ground entry (rank 0) precedes its deck entry (rank 1).
    bridge = layers < 0
    entry = np.repeat(np.arange(n), 1 + bridge)
    rank = np.zeros(len(entry), dtype=np.int64)
    rank[1:] = entry[1:] == entry[:-1]
    deck = np.where(bridge[entry], rank, layers[entry])
    start = 2 * node[entry] + deck
    end = 2 * node[n + entry] + deck
    by_start = np.argsort(start, kind="stable")  # ids ascending per node
    start, starters = start[by_start], entry[by_start]
    lo = np.searchsorted(start, end, side="left")
    counts = np.searchsorted(start, end, side="right") - lo
    a = np.repeat(entry, counts)
    b = starters[ragged_positions(lo, counts)]
    keep = a != b
    if not allow_u_turn:
        keep &= b != (a ^ 1)
    # A start list holds each segment once, so an edge can only repeat as
    # a ramp's deck-entry edge its ground entry already gave.  Sources
    # ascend and so do each entry's targets, so the rank-0 codes are sorted.
    code = a * n + b
    ground = np.repeat(rank, counts) == 0
    deck_edges = np.flatnonzero(keep & ~ground)
    repeat, _ = sorted_lookup(code[keep & ground], code[deck_edges])
    keep[deck_edges[repeat]] = False
    return np.stack([a[keep], b[keep]])


def generate_city(config: CityConfig | None = None) -> RoadNetwork:
    """Build a synthetic city road network from ``config``.

    The network is built from its polyline table, levels, elevated flags
    and edge index; no per-segment object is made.
    """
    config = config or CityConfig()
    rng = np.random.default_rng(config.seed)
    block = config.block
    roads = _Pairs()

    cols = int(round(config.width / block))
    rows = int(round(config.height / block))
    if cols < 2 or rows < 2:
        raise ValueError("city must be at least 2x2 blocks")

    def lines(x0, y0, x1, y1) -> np.ndarray:
        """``(c, 2, 2)`` straight polylines from broadcast endpoints."""
        return np.stack(np.broadcast_arrays(x0, y0, x1, y1), -1).astype(
            np.float64).reshape(-1, 2, 2)

    # Arterial grid (level 2), one road per block edge: the rows, then the
    # columns.
    i, j = np.arange(cols), np.arange(rows + 1)[:, None]
    roads.add(lines(i * block, j * block, (i + 1) * block, j * block), level=2)
    i, j = np.arange(cols + 1)[:, None], np.arange(rows)
    roads.add(lines(i * block, j * block, i * block, (j + 1) * block), level=2)

    # Minor streets (level 4) bisect a random subset of blocks vertically,
    # their mid-point jittered orthogonally.  The draws stay one block at a
    # time in (i, j) order: a uniform per block, a normal per kept block
    # with a bend.
    y0, y1 = np.arange(rows) * block, (np.arange(rows) + 1) * block
    rise = y1 - y0
    norm = np.sqrt(rise * rise)  # np.linalg.norm((0, rise))
    bends = ~((norm < 1e-9) | (config.jitter <= 0))
    bend_rows = bends.tolist()
    kept = np.zeros(cols * rows, dtype=bool)
    shift = np.zeros(cols * rows)
    for b in range(cols * rows):
        if rng.random() < config.minor_fraction:
            kept[b] = True
            if bend_rows[b % rows]:
                shift[b] = rng.normal(0.0, config.jitter)
    blocks = np.flatnonzero(kept)
    bi, bj = blocks // rows, blocks % rows
    x = (bi + 0.5) * block
    # A kept block's five key slots: its street, then the connectors
    # splitting the arterial below (unless the block below did) and the
    # one above, each a left and a right half.
    slot = roads.next_key + 5 * blocks
    roads.next_key += 5 * cols * rows
    bent = bends[bj]
    straight = lines(x, y0[bj], x, y1[bj])
    p0, p1 = straight[bent, 0], straight[bent, 1]
    # The unit normal of the direction (x - x, rise), op for op.
    normal = np.stack([-rise[bj[bent]], x[bent] - x[bent]], -1) / norm[bj[bent], None]
    mid = (p0 + p1) / 2.0 + normal * shift[blocks[bent], None]
    roads.add(np.stack([p0, mid, p1], 1), level=4, keys=slot[bent])
    roads.add(straight[~bent], level=4, keys=slot[~bent])
    below = (bj == 0) | ~kept[blocks - 1]
    for taken, jj, at in ((below, bj, 1), (slice(None), bj + 1, 3)):
        left, right, y = bi[taken] * block, (bi[taken] + 1) * block, jj[taken] * block
        roads.add(lines(left, y, x[taken], y), level=4, keys=slot[taken] + at)
        roads.add(lines(x[taken], y, right, y), level=4, keys=slot[taken] + at + 1)

    # Elevated expressway decks above selected arterial rows, and ramps
    # every ``ramp_every`` intersections bridging ground and deck.
    for row in config.elevated_rows:
        if not 0 <= row <= rows:
            continue
        y = row * block
        deck = y + config.elevated_offset
        i = np.arange(cols)
        roads.add(lines(i * block, deck, (i + 1) * block, deck), level=0,
                  elevated=True, layer=1)
        i = np.arange(0, cols + 1, max(1, config.ramp_every))
        roads.add(lines(i * block, y, i * block, deck), level=1, elevated=True,
                  layer=-1)

    return roads.network(config.allow_u_turn)
