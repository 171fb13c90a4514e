"""Hidden Markov Model map matching (Newson & Krumm [14]).

Used by the two-stage baselines (Linear+HMM, DHTR+HMM) and available as a
general substrate.  Each GPS fix gets candidate segments within a search
radius; emission probability is Gaussian in the projection distance
(σ_z meters) and transition probability is exponential in the absolute
difference between great-circle displacement and route distance (β
meters).  Viterbi decoding yields the most likely segment sequence, then
each fix is projected onto its matched segment for the moving ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..roadnet.network import RoadNetwork
from ..roadnet.shortest_path import ShortestPathEngine
from ..trajectory.trajectory import MatchedTrajectory, RawTrajectory


@dataclass(frozen=True)
class HMMConfig:
    """Newson-Krumm parameters."""

    search_radius: float = 60.0
    max_candidates: int = 8
    sigma_z: float = 15.0   # GPS noise scale (meters)
    beta: float = 80.0      # transition tolerance (meters)


class HMMMapMatcher:
    """Viterbi map matcher over a :class:`RoadNetwork`."""

    def __init__(self, network: RoadNetwork, config: HMMConfig | None = None,
                 engine: Optional[ShortestPathEngine] = None) -> None:
        self.network = network
        self.config = config or HMMConfig()
        self.engine = engine or ShortestPathEngine(network)

    # ------------------------------------------------------------------
    def _candidates(self, x: float, y: float) -> List[Tuple[int, float, float]]:
        """(segment, distance, ratio) candidates near a fix, nearest first."""
        cfg = self.config
        radius = cfg.search_radius
        for _ in range(12):
            ids, dists = self.network.segments_within_arrays(x, y, radius)
            if len(ids):
                break
            radius *= 2.0
        else:
            return []
        ids, dists = ids[:cfg.max_candidates], dists[:cfg.max_candidates]
        ratios = self.network.project_ratios(x, y, ids)
        return list(zip(ids.tolist(), dists.tolist(), ratios.tolist()))

    def _emission_logp(self, distance: float) -> float:
        sigma = self.config.sigma_z
        return -0.5 * (distance / sigma) ** 2 - np.log(sigma * np.sqrt(2 * np.pi))

    def _transition_logp(self, great_circle: float, route: float) -> float:
        beta = self.config.beta
        delta = abs(great_circle - route)
        return -delta / beta - np.log(beta)

    # ------------------------------------------------------------------
    def match(self, trajectory: RawTrajectory) -> Optional[MatchedTrajectory]:
        """Match a raw trajectory; ``None`` if no candidate chain exists."""
        points = trajectory.xy
        n = len(points)
        if n == 0:
            return None

        layers: List[List[Tuple[int, float, float]]] = []
        for x, y in points:
            cands = self._candidates(float(x), float(y))
            if not cands:
                return None
            layers.append(cands)

        # Viterbi.
        scores = [np.array([self._emission_logp(d) for _, d, _ in layers[0]])]
        backptr: List[np.ndarray] = []
        for t in range(1, n):
            prev_layer, layer = layers[t - 1], layers[t]
            straight = float(np.hypot(*(points[t] - points[t - 1])))
            score = np.full(len(layer), -np.inf)
            back = np.zeros(len(layer), dtype=np.int64)
            for j, (sid_j, dist_j, ratio_j) in enumerate(layer):
                emission = self._emission_logp(dist_j)
                best_val, best_i = -np.inf, 0
                for i, (sid_i, _, ratio_i) in enumerate(prev_layer):
                    route = self.engine.position_distance(sid_i, ratio_i, sid_j, ratio_j)
                    if not np.isfinite(route):
                        continue
                    value = scores[-1][i] + self._transition_logp(straight, route)
                    if value > best_val:
                        best_val, best_i = value, i
                if np.isfinite(best_val):
                    score[j] = best_val + emission
                    back[j] = best_i
            if not np.any(np.isfinite(score)):
                # Broken chain: restart scoring from emissions only, a
                # standard robustness fallback for sparse data.
                score = np.array([self._emission_logp(d) for _, d, _ in layer])
                back = np.argmax(scores[-1]) * np.ones(len(layer), dtype=np.int64)
            scores.append(score)
            backptr.append(back)

        # Decode.
        choice = int(np.argmax(scores[-1]))
        chosen = [choice]
        for back in reversed(backptr):
            choice = int(back[choice])
            chosen.append(choice)
        chosen.reverse()

        segments = np.array([layers[t][c][0] for t, c in enumerate(chosen)], dtype=np.int64)
        ratios = np.array(
            [min(layers[t][c][2], 1.0 - 1e-9) for t, c in enumerate(chosen)], dtype=np.float64
        )
        return MatchedTrajectory(segments, ratios, trajectory.times.copy())
