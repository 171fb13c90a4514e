"""Resampling utilities: downsampling to low-sample inputs and the linear
interpolation recovery of Hoteit et al. [18] (the ``Linear`` baseline).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .trajectory import MatchedTrajectory, RawTrajectory


def downsample_indices(length: int, keep_every: int) -> np.ndarray:
    """Indices kept when downsampling by ``keep_every`` (always keeps 0;
    always keeps the final point, as MTrajRec's protocol does, so the
    recovery task is interpolation rather than extrapolation)."""
    if keep_every < 1:
        raise ValueError("keep_every must be >= 1")
    idx = list(range(0, length, keep_every))
    if idx[-1] != length - 1:
        idx.append(length - 1)
    return np.asarray(idx, dtype=np.int64)


def downsample_raw(trajectory: RawTrajectory, keep_every: int) -> RawTrajectory:
    """Low-sample version of a raw trajectory (ε_τ = keep_every × ε_ρ)."""
    return trajectory.slice(downsample_indices(len(trajectory), keep_every))


def downsample_matched(trajectory: MatchedTrajectory, keep_every: int) -> MatchedTrajectory:
    return trajectory.slice(downsample_indices(len(trajectory), keep_every))


def linear_interpolate(low: RawTrajectory, target_times: Sequence[float]) -> RawTrajectory:
    """Uniform-speed linear interpolation between consecutive fixes [18].

    Positions at ``target_times`` are linear interpolations of the
    low-sample positions; times outside the observed range clamp to the
    endpoints.
    """
    target_times = np.asarray(target_times, dtype=np.float64)
    xs = np.interp(target_times, low.times, low.xy[:, 0])
    ys = np.interp(target_times, low.times, low.xy[:, 1])
    return RawTrajectory(np.stack([xs, ys], axis=1), target_times)


def grid_length(t0: float, t1: float, interval: float) -> int:
    """How many points :func:`epsilon_grid` puts on [t0, t1], counted
    without building the grid."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    return int(round((t1 - t0) / interval)) + 1


def epsilon_grid(t0: float, t1: float, interval: float) -> np.ndarray:
    """The ε_ρ-spaced time grid [t0, t0+ε, ..., t1] (inclusive, Def. 3)."""
    return t0 + interval * np.arange(grid_length(t0, t1, interval))
