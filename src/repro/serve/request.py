"""Serving request/response types and raw-GPS → sample assembly.

At serving time there is no ground-truth target; a request carries only the
raw low-sample GPS fixes (plus the environmental context the encoder
expects).  :func:`assemble_sample` rebuilds exactly the structures the
offline :func:`~repro.trajectory.dataset.build_samples` pipeline produces —
the ε_ρ output time grid, the observed-step alignment, and the Eq. 16
constraint masks — with a dummy all-zeros target, so the trained model's
:meth:`recover` path runs unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..roadnet.network import RoadNetwork
from ..trajectory.dataset import RecoverySample, SparseMask, constraint_for_fix
from ..trajectory.resample import epsilon_grid
from ..trajectory.trajectory import MatchedTrajectory, RawTrajectory


class RequestError(ValueError):
    """A request that cannot be turned into a valid recovery sample."""


@dataclass(frozen=True)
class RecoveryRequest:
    """One raw low-sample GPS trace to densify.

    ``xy`` is (n, 2) planar meters, ``times`` (n,) seconds (strictly
    increasing); ``hour``/``holiday`` are the environmental context features
    of §IV-E (defaulting to a weekday noon).
    """

    xy: np.ndarray
    times: np.ndarray
    hour: int = 12
    holiday: bool = False
    request_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "xy", np.asarray(self.xy, dtype=np.float64))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))

    @classmethod
    def from_raw(cls, raw: RawTrajectory, hour: int = 12, holiday: bool = False,
                 request_id: str = "") -> "RecoveryRequest":
        return cls(xy=raw.xy, times=raw.times, hour=hour, holiday=holiday,
                   request_id=request_id)

    def raw(self) -> RawTrajectory:
        """Validated raw-trajectory view (raises on malformed input)."""
        try:
            raw = RawTrajectory(self.xy, self.times)
        except ValueError as exc:
            raise RequestError(str(exc)) from exc
        # JSON happily carries NaN/Infinity literals; they pass the shape
        # and monotonicity checks but poison constraint assembly downstream.
        if not (np.all(np.isfinite(raw.xy)) and np.all(np.isfinite(raw.times))):
            raise RequestError("GPS positions and times must be finite")
        return raw


@dataclass(frozen=True)
class RecoveryResponse:
    """The recovered ε_ρ trajectory plus per-request serving metadata.

    ``model`` is the registry name that served the request; ``model_tag``
    is its generation tag (``name#generation``), which distinguishes
    successive checkpoints hot-swapped under the same name — a cluster
    operator rolling out a new model can watch the tag flip per shard.
    ``shard`` is the serving shard's label (empty for a standalone
    service).

    Streaming responses (``repro.stream``) additionally carry the
    ``session_id`` that produced them and ``revised_from`` — the first
    grid-step index whose recovered segment changed relative to the last
    result streamed for the same session (−1 when nothing was revised).
    One-shot responses keep the defaults, so the two traffic classes are
    distinguishable in logs and telemetry.
    """

    request_id: str
    trajectory: MatchedTrajectory
    cached: bool
    latency_ms: float
    model: str = ""
    model_tag: str = ""
    shard: str = ""
    session_id: str = ""
    revised_from: int = -1


@dataclass(frozen=True)
class IngestConfig:
    """Raw-GPS → sample assembly parameters (mirrors ``DatasetConfig``)."""

    interval: float = 12.0        # ε_ρ output grid spacing (seconds)
    beta: float = 15.0            # constraint-mask kernel scale (meters)
    max_gps_error: float = 100.0  # constraint-mask search radius (meters)


def validate_append_times(times: np.ndarray,
                          last_time: Optional[float] = None) -> np.ndarray:
    """Validate a streaming append's timestamps; returns them as float64.

    Whole-trace requests get monotonicity checked once, at ``raw()`` time.
    Streaming clients instead deliver fixes in dribs and drabs, and
    out-of-order or duplicated fixes are their bread-and-butter failure
    mode (buffered radios flush old points, retries re-send the last one).
    This is the append path's typed gate: every fix must be finite,
    strictly increasing *within* the chunk, and strictly after
    ``last_time`` (the session's newest accepted fix).  Violations raise
    :class:`RequestError` naming the offense, so HTTP layers can map them
    to 400 instead of tearing down the session.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if times.ndim != 1 or len(times) == 0:
        raise RequestError("an append needs a non-empty 1-D times array")
    if not np.all(np.isfinite(times)):
        raise RequestError("append timestamps must be finite")
    diffs = np.diff(times)
    if np.any(diffs == 0):
        raise RequestError(
            f"duplicate timestamp in append chunk: {times.tolist()}")
    if np.any(diffs < 0):
        raise RequestError(
            f"out-of-order timestamps in append chunk: {times.tolist()}")
    if last_time is not None:
        if times[0] == last_time:
            raise RequestError(
                f"duplicate timestamp {times[0]}: the session already has a "
                "fix at that time")
        if times[0] < last_time:
            raise RequestError(
                f"out-of-order append: timestamp {times[0]} is before the "
                f"session's newest fix at {last_time}")
    return times


def grid_alignment(times: np.ndarray, interval: float) -> tuple:
    """(grid times, snapped step indices) for a raw trace on the ε_ρ grid.

    Single source of truth for how a trace maps onto its output grid — the
    decoder (via :func:`assemble_sample`) and the result-cache key derive
    from this one function, so they can never disagree about grid length or
    fix-to-step alignment.
    """
    times = np.asarray(times, dtype=np.float64)
    grid_times = epsilon_grid(float(times[0]), float(times[-1]), interval)
    steps = np.clip(
        np.round((times - times[0]) / interval).astype(np.int64),
        0, len(grid_times) - 1,
    )
    return grid_times, steps


def fix_entries(network: RoadNetwork, xy: np.ndarray,
                config: IngestConfig) -> List[Tuple[np.ndarray, np.ndarray]]:
    """One Eq. 16 constraint entry per fix of ``xy``, in fix order."""
    return [constraint_for_fix(network, x, y, config.beta, config.max_gps_error)
            for x, y in xy]


def assemble_sample(request: RecoveryRequest, network: RoadNetwork,
                    config: Optional[IngestConfig] = None,
                    alignment=None, entries=None) -> RecoverySample:
    """Build a target-less :class:`RecoverySample` from a raw request.

    The output grid spans [t0, t_end] at ``config.interval``; each input fix
    snaps to its nearest grid step (they must map to distinct, increasing
    steps) and contributes an Eq. 16 constraint row, exactly as the offline
    dataset builder does.  The target arrays are placeholders — only their
    length and time grid drive decoding.  ``alignment`` lets a caller that
    already ran :func:`grid_alignment` (the serving cache key path) pass the
    result in instead of recomputing it; ``entries`` likewise passes in the
    fixes' :func:`fix_entries` (a streaming session's per-fix memo).
    """
    config = config or IngestConfig()
    raw = request.raw()
    if len(raw) < 2:
        raise RequestError("a recovery request needs at least two GPS fixes")
    grid_times, steps = alignment if alignment is not None else grid_alignment(
        raw.times, config.interval)
    if np.any(np.diff(steps) <= 0):
        raise RequestError(
            "input fixes must map to distinct increasing ε_ρ steps; "
            f"got {steps.tolist()} for interval {config.interval}"
        )

    constraints: list[SparseMask] = [None] * len(grid_times)
    for step, entry in zip(steps, entries if entries is not None
                           else fix_entries(network, raw.xy, config)):
        constraints[int(step)] = entry

    placeholder = MatchedTrajectory(
        np.zeros(len(grid_times), dtype=np.int64),
        np.zeros(len(grid_times)),
        grid_times,
    )
    return RecoverySample(
        raw_low=raw,
        target=placeholder,
        observed_steps=steps,
        constraints=tuple(constraints),
        hour=int(request.hour) % 24,
        holiday=bool(request.holiday),
    )
