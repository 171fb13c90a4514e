"""Shortest paths over the road network and road-network distances.

Two distinct distance notions are needed:

* **routing distance** between segments, for the vehicle simulator and the
  HMM map matcher's transition model;
* **road-network distance between two matched positions** (segment id +
  moving ratio), the metric the paper uses for MAE/RMSE (§VI-A2).

Both reduce to single-source Dijkstra over a graph whose nodes are
segments and whose edge weight from a to b is the length of b (entering b
means traversing it).  Single-source results are memoized, so evaluating a
test set touches each distinct source segment once.  The graph is read from
the network's CSR arrays, unpacked once per engine into the Python lists a
heap-driven search indexes per pop.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .network import RoadNetwork

_INF = float("inf")


class ShortestPathEngine:
    """Dijkstra with per-source memoization over a :class:`RoadNetwork`."""

    def __init__(self, network: RoadNetwork, cache_limit: int = 4096) -> None:
        self.network = network
        self._cache: Dict[int, np.ndarray] = {}
        self._cache_limit = cache_limit
        self._lengths = network.lengths()
        indptr, targets, _ = network.csr_out_neighbors()
        bounds, flat = indptr.tolist(), targets.tolist()
        #: ``successors[u]``: the segments ``u`` feeds, in edge order.
        self.successors: List[List[int]] = [
            flat[bounds[u]:bounds[u + 1]] for u in range(network.num_segments)]

    # ------------------------------------------------------------------
    # Single-source distances (segment granularity)
    # ------------------------------------------------------------------
    def distances_from(self, source: int) -> np.ndarray:
        """dist[j] = meters traveled *after leaving* ``source`` until the
        end of segment j (``dist[source] = 0`` at the end of source)."""
        cached = self._cache.get(source)
        if cached is not None:
            return cached

        n = self.network.num_segments
        dist = np.full(n, _INF)
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v in self.successors[u]:
                nd = d + self._lengths[v]
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))

        if len(self._cache) >= self._cache_limit:
            self._cache.pop(next(iter(self._cache)))
        self._cache[source] = dist
        return dist

    def route(self, source: int, target: int) -> Optional[List[int]]:
        """Segment sequence from ``source`` to ``target`` (inclusive both),
        or ``None`` when unreachable."""
        if source == target:
            return [source]
        n = self.network.num_segments
        dist = np.full(n, _INF)
        parent = np.full(n, -1, dtype=np.int64)
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == target:
                break
            if d > dist[u]:
                continue
            for v in self.successors[u]:
                nd = d + self._lengths[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
        if not np.isfinite(dist[target]):
            return None
        path = [target]
        while path[-1] != source:
            path.append(int(parent[path[-1]]))
        return path[::-1]

    # ------------------------------------------------------------------
    # Position-level distances (segment + moving ratio)
    # ------------------------------------------------------------------
    def position_distance(
        self, seg_a: int, ratio_a: float, seg_b: int, ratio_b: float
    ) -> float:
        """Road-network travel distance from position a to position b.

        Directed: follows traffic flow.  Same-segment forward moves cost
        ``(r_b - r_a) * len``; anything else routes through the graph.
        Returns ``inf`` when b is unreachable from a.
        """
        lengths = self._lengths
        if seg_a == seg_b and ratio_b >= ratio_a:
            return float((ratio_b - ratio_a) * lengths[seg_a])
        indptr, sources = self.network.csr_in_neighbors()
        preds = sources[indptr[seg_b]:indptr[seg_b + 1]]
        if not len(preds):
            return _INF
        # Leave seg_a, reach the end of seg_b's nearest predecessor (seg_a
        # itself at 0, which covers going round a loop back onto seg_a),
        # then run the partial seg_b.  Rounding is monotone, so the sum
        # over the nearest predecessor is the least of the per-predecessor
        # sums; an unreachable seg_b sums to inf.
        remaining = (1.0 - ratio_a) * lengths[seg_a]
        nearest = self.distances_from(seg_a)[preds].min()
        return float(remaining + nearest + ratio_b * lengths[seg_b])

    def symmetric_position_distance(
        self, seg_a: int, ratio_a: float, seg_b: int, ratio_b: float
    ) -> float:
        """min(d(a→b), d(b→a)) — robust for error metrics on one-way pairs.

        Falls back to straight-line distance when the graph is disconnected
        (mirrors how evaluation scripts handle broken HMM outputs).
        """
        forward = self.position_distance(seg_a, ratio_a, seg_b, ratio_b)
        backward = self.position_distance(seg_b, ratio_b, seg_a, ratio_a)
        value = min(forward, backward)
        if np.isfinite(value):
            return value
        pa = self.network.position(seg_a, ratio_a)
        pb = self.network.position(seg_b, ratio_b)
        return float(np.hypot(*(pa - pb)))

    def route_length(self, path: Sequence[int]) -> float:
        """Total length of a segment sequence (including the first)."""
        return float(sum(self._lengths[s] for s in path))
