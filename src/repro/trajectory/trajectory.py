"""Trajectory data structures (paper Definitions 2-4).

* :class:`RawTrajectory` — GPS fixes as recorded by a device: noisy
  (x, y) positions plus timestamps, no fixed interval (Def. 2).
* :class:`MatchedTrajectory` — a map-matched ε_ρ-sample-interval
  trajectory: per point a road segment id and a moving ratio in [0, 1)
  plus timestamps (Def. 3).

Both are immutable value objects with vectorized accessors; conversions
between them live in :mod:`repro.trajectory.resample` and
:mod:`repro.mapmatch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..roadnet.network import RoadNetwork


@dataclass(frozen=True)
class RawTrajectory:
    """A sequence of raw GPS points: positions (n, 2) meters, times (n,) s."""

    xy: np.ndarray
    times: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "xy", np.asarray(self.xy, dtype=np.float64))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        if self.xy.ndim != 2 or self.xy.shape[1] != 2:
            raise ValueError(f"xy must be (n, 2), got {self.xy.shape}")
        if self.times.shape != (len(self.xy),):
            raise ValueError("times length must match xy")
        if len(self.times) >= 2 and np.any(np.diff(self.times) <= 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0]) if len(self) > 1 else 0.0

    @property
    def mean_interval(self) -> float:
        """Average sample interval ε_τ (Def. 2)."""
        if len(self) < 2:
            return 0.0
        return float(np.mean(np.diff(self.times)))

    def slice(self, indices: Sequence[int]) -> "RawTrajectory":
        idx = np.asarray(indices, dtype=np.int64)
        return RawTrajectory(self.xy[idx], self.times[idx])


@dataclass(frozen=True)
class MatchedTrajectory:
    """A map-matched ε_ρ-interval trajectory (Def. 3).

    ``segments[i]`` is the road segment id at time ``times[i]``;
    ``ratios[i]`` in [0, 1) is the moving ratio along that segment.
    """

    segments: np.ndarray
    ratios: np.ndarray
    times: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", np.asarray(self.segments, dtype=np.int64))
        object.__setattr__(self, "ratios", np.asarray(self.ratios, dtype=np.float64))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        n = len(self.segments)
        if self.ratios.shape != (n,) or self.times.shape != (n,):
            raise ValueError("segments, ratios and times must share one length")
        if np.any((self.ratios < 0.0) | (self.ratios > 1.0)):
            raise ValueError("moving ratios must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def interval(self) -> float:
        """The fixed sample interval ε_ρ (0 for singleton trajectories)."""
        if len(self) < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    def positions(self, network: RoadNetwork) -> np.ndarray:
        """(n, 2) planar positions reconstructed from (segment, ratio)."""
        return np.asarray(
            [network.position(int(s), float(r)) for s, r in zip(self.segments, self.ratios)]
        )

    def travel_path(self) -> np.ndarray:
        """The *set* of traversed segment ids in first-visit order (E_ρ)."""
        seen: dict[int, None] = {}
        for sid in self.segments.tolist():
            seen.setdefault(int(sid), None)
        return np.asarray(list(seen.keys()), dtype=np.int64)

    def slice(self, indices: Sequence[int]) -> "MatchedTrajectory":
        idx = np.asarray(indices, dtype=np.int64)
        return MatchedTrajectory(self.segments[idx], self.ratios[idx], self.times[idx])

    @classmethod
    def from_checked(cls, segments: np.ndarray, ratios: np.ndarray,
                     times: np.ndarray) -> "MatchedTrajectory":
        """Wrap arrays that already hold a checked trajectory's dtypes,
        shapes and ratio range (copies of one, say) without checking them
        again."""
        trajectory = object.__new__(cls)
        object.__setattr__(trajectory, "segments", segments)
        object.__setattr__(trajectory, "ratios", ratios)
        object.__setattr__(trajectory, "times", times)
        return trajectory

    def to_raw(self, network: RoadNetwork, noise_std: float = 0.0,
               rng: Optional[np.random.Generator] = None) -> RawTrajectory:
        """Materialize as raw GPS points, optionally with additive noise."""
        xy = self.positions(network)
        if noise_std > 0.0:
            rng = rng or np.random.default_rng(0)
            xy = xy + rng.normal(0.0, noise_std, size=xy.shape)
        return RawTrajectory(xy, self.times.copy())
