"""Vehicle motion simulator — the stand-in for real taxi GPS traces.

For each trajectory the simulator

1. samples an origin/destination segment pair far enough apart,
2. routes between them with Dijkstra over *perturbed* edge weights (so the
   fleet does not all drive identical shortest paths),
3. integrates motion along the route with a level-dependent speed process
   (mean-reverting, clipped), and
4. emits a ground-truth matched point every ε_ρ seconds plus a noisy raw
   GPS fix (Gaussian, σ configurable; the paper cites ~5 m open-sky
   accuracy and up to tens of meters in built-up areas).

The output pairs (RawTrajectory, MatchedTrajectory) are exact: the matched
trajectory is the true vehicle state, not an HMM estimate, which removes
label noise relative to the paper but affects every compared method
identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..roadnet.network import RoadNetwork
from ..roadnet.shortest_path import ShortestPathEngine
from .trajectory import MatchedTrajectory, RawTrajectory

# Mean cruising speed (m/s) by road level; elevated expressways are fast,
# minor streets slow.
_LEVEL_SPEED = {0: 22.0, 1: 12.0, 2: 11.0, 3: 10.0, 4: 7.0, 5: 6.0, 6: 5.0, 7: 5.0}


def _clamp_speed(speed: float) -> float:
    """The speed process's clamp to [1, 35] m/s: ``float(np.clip(speed,
    1.0, 35.0))`` in plain floats, for a loop that runs once per simulated
    second."""
    return min(max(speed, 1.0), 35.0)


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the trajectory simulator."""

    sample_interval: float = 12.0      # ε_ρ seconds between emitted points
    target_points: int = 33            # points per trajectory (l_ρ)
    gps_noise_std: float = 12.0        # meters
    min_route_segments: int = 12
    speed_jitter: float = 0.25         # relative std of the speed process
    route_weight_noise: float = 0.35   # log-normal sigma on edge weights
    elevated_bias: float = 0.0         # <0 favors elevated roads in routing
    seed: int = 0


class TrajectorySimulator:
    """Generates (raw, matched) trajectory pairs on a road network."""

    def __init__(self, network: RoadNetwork, config: SimulationConfig | None = None) -> None:
        self.network = network
        self.config = config or SimulationConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.engine = ShortestPathEngine(network)
        self._lengths = network.lengths()
        self._levels = network.levels().tolist()
        self._elevated = network.elevated().tolist()
        self._elevated_ids = np.flatnonzero(network.elevated())

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _perturbed_route(self, source: int, target: int) -> Optional[List[int]]:
        """Dijkstra with multiplicative log-normal weight noise."""
        import heapq

        successors = self.engine.successors
        noise = self.config.route_weight_noise
        bias = self.config.elevated_bias
        n = self.network.num_segments
        dist = np.full(n, np.inf)
        parent = np.full(n, -1, dtype=np.int64)
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == target:
                break
            if d > dist[u]:
                continue
            for v in successors[u]:
                w = self._lengths[v] * float(np.exp(self.rng.normal(0.0, noise)))
                if self._elevated[v]:
                    w *= float(np.exp(bias))
                nd = d + w
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

    def _sample_od(self, prefer_elevated: bool = False) -> Tuple[int, int]:
        """Random origin/destination; optionally start on the elevated deck
        so the trajectory is guaranteed to traverse it (used by the
        robustness experiments of §VI-D)."""
        n = self.network.num_segments
        if prefer_elevated and len(self._elevated_ids):
            source = int(self.rng.choice(self._elevated_ids))
            return source, int(self.rng.integers(0, n))
        return int(self.rng.integers(0, n)), int(self.rng.integers(0, n))

    # ------------------------------------------------------------------
    # Motion integration
    # ------------------------------------------------------------------
    def _drive(self, route: List[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integrate motion along ``route``.

        Returns per-emission arrays (segment_idx_in_route, ratio, time)
        sampled every ``sample_interval`` seconds until the route ends.
        """
        cfg = self.config
        lengths = self._lengths[route]
        boundaries = np.concatenate([[0.0], np.cumsum(lengths)])
        total = float(boundaries[-1])

        # Mean-reverting speed process sampled per second.
        position = 0.0
        time = 0.0
        speed = _LEVEL_SPEED[self._levels[route[0]]]
        positions = [0.0]
        times = [0.0]
        max_time = (cfg.target_points + 2) * cfg.sample_interval
        while position < total and time < max_time:
            seg_idx = int(np.searchsorted(boundaries, position, side="right") - 1)
            seg_idx = min(seg_idx, len(route) - 1)
            mean_speed = _LEVEL_SPEED[self._levels[route[seg_idx]]]
            speed += 0.5 * (mean_speed - speed) + self.rng.normal(0.0, cfg.speed_jitter * mean_speed)
            speed = _clamp_speed(speed)
            position += speed
            time += 1.0
            positions.append(min(position, total))
            times.append(time)

        positions = np.asarray(positions)
        times = np.asarray(times)
        emit_times = np.arange(0.0, times[-1] + 1e-9, cfg.sample_interval)
        emit_pos = np.interp(emit_times, times, positions)

        seg_indices = np.clip(np.searchsorted(boundaries, emit_pos, side="right") - 1, 0, len(route) - 1)
        offsets = emit_pos - boundaries[seg_indices]
        ratios = np.clip(offsets / np.maximum(lengths[seg_indices], 1e-9), 0.0, 1.0 - 1e-9)
        return seg_indices, ratios, emit_times

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def _chained_route(self, prefer_elevated: bool, needed_length: float) -> Optional[List[int]]:
        """Concatenate perturbed routes until ``needed_length`` meters.

        Mimics a taxi that keeps driving to new destinations, guaranteeing
        the trajectory lasts long enough to emit ``target_points`` fixes.
        """
        source, target = self._sample_od(prefer_elevated)
        if source == target:
            return None
        route = self._perturbed_route(source, target)
        if route is None or len(route) < 2:
            return None
        total = float(self._lengths[route].sum())
        for _ in range(16):
            if total >= needed_length:
                break
            _, nxt = self._sample_od(prefer_elevated)
            if nxt == route[-1]:
                continue
            extension = self._perturbed_route(route[-1], nxt)
            if extension is None or len(extension) < 2:
                continue
            route.extend(extension[1:])
            total += float(self._lengths[extension[1:]].sum())
        if total < needed_length:
            return None
        return route

    def simulate_one(self, prefer_elevated: bool = False) -> Optional[Tuple[RawTrajectory, MatchedTrajectory]]:
        """One trajectory pair, or ``None`` when OD sampling failed."""
        cfg = self.config
        # 35 m/s is the hard speed cap, so this length always suffices.
        needed = cfg.target_points * cfg.sample_interval * 36.0
        for _ in range(12):
            route = self._chained_route(prefer_elevated, needed)
            if route is None or len(route) < cfg.min_route_segments:
                continue
            seg_indices, ratios, times = self._drive(route)
            if len(times) < cfg.target_points:
                continue
            keep = slice(0, cfg.target_points)
            segments = np.asarray(route, dtype=np.int64)[seg_indices[keep]]
            matched = MatchedTrajectory(segments, ratios[keep], times[keep])
            raw = matched.to_raw(self.network, noise_std=cfg.gps_noise_std, rng=self.rng)
            return raw, matched
        return None

    def simulate(self, count: int, prefer_elevated: bool = False) -> List[Tuple[RawTrajectory, MatchedTrajectory]]:
        """Generate ``count`` trajectory pairs (skipping failed draws)."""
        out: List[Tuple[RawTrajectory, MatchedTrajectory]] = []
        attempts = 0
        while len(out) < count and attempts < count * 30:
            attempts += 1
            pair = self.simulate_one(prefer_elevated)
            if pair is not None:
                out.append(pair)
        if len(out) < count:
            raise RuntimeError(
                f"simulator produced only {len(out)}/{count} trajectories; "
                "check network connectivity or lower min_route_segments"
            )
        return out
