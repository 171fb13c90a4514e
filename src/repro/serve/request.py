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

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..roadnet.network import RoadNetwork
from ..trajectory.dataset import RecoverySample, SparseMask, constraint_for_fix
from ..trajectory.resample import epsilon_grid, grid_length
from ..trajectory.trajectory import MatchedTrajectory, RawTrajectory

#: Most ε_ρ steps one request may span (a 4 095-interval trace: 13.65 h at
#: a 12 s interval).  :func:`grid_steps` counts a trace's grid from its
#: first and last fix and refuses it past this bound before anything is
#: built, so a client's ``[0, 1e12]`` is a 400 and not a 621 GiB
#: allocation.  The longest traces this tree sends are a 32-fix streaming
#: session (249 steps) and a 1 025-step long-trace test.
MAX_GRID_STEPS = 4096


class RequestError(ValueError):
    """A request that cannot be turned into a valid recovery sample."""


def trace_floats(xy, times, origin: Tuple[float, float] = (0.0, 0.0)
                 ) -> Tuple[List[Tuple[float, float]], List[float]]:
    """The one request validator: ``(points, times)`` as Python floats,
    each point less ``origin``, in one pass over the client's values.

    ``xy`` is an (n, 2) array or a sequence of n (x, y) number pairs (a
    JSON body's nested lists), ``times`` n numbers.  Raises
    :class:`RequestError` unless the shapes agree, the times strictly
    increase and every value is finite.  Values must be numbers: the
    subtraction that translates them refuses strings.
    """
    ox, oy = origin
    try:
        if isinstance(xy, np.ndarray):
            if xy.ndim != 2 or xy.shape[1] != 2:
                raise ValueError(f"got shape {xy.shape}")
            xy = xy.tolist()
        elif len(xy) == 0:
            raise ValueError("got no fixes")
        # ``- 0.0`` keeps a -0.0 and turns an int into the float numpy would.
        points = [(x - ox, y - oy) for x, y in xy]
        times = [t - 0.0 for t in (
            times.tolist() if isinstance(times, np.ndarray) else times)]
    except (TypeError, ValueError, OverflowError) as exc:
        raise RequestError(
            f"xy must be (n, 2) numbers and times n numbers ({exc})") from None
    if len(times) != len(points):
        raise RequestError("times length must match xy")
    if any(after - before <= 0 for before, after in zip(times, times[1:])):
        raise RequestError("timestamps must be strictly increasing")
    # JSON happily carries NaN/Infinity literals; they pass the shape
    # and monotonicity checks but poison constraint assembly downstream.
    isfinite = math.isfinite
    if not (all(map(isfinite, times))
            and all(isfinite(x) and isfinite(y) for x, y in points)):
        raise RequestError("GPS positions and times must be finite")
    return points, times


@dataclass(frozen=True)
class RecoveryRequest:
    """One raw low-sample GPS trace to densify.

    ``xy`` is (n, 2) planar meters, ``times`` (n,) seconds (strictly
    increasing); ``hour``/``holiday`` are the environmental context features
    of §IV-E (defaulting to a weekday noon).  Both are kept as given — an
    array, or a JSON body's nested lists — and checked by
    :func:`trace_floats` where they are used (:meth:`raw`, the shard's
    cache key), so a parsed body is never converted to arrays just to be
    looked up.
    """

    xy: np.ndarray
    times: np.ndarray
    hour: int = 12
    holiday: bool = False
    request_id: str = ""

    @classmethod
    def from_raw(cls, raw: RawTrajectory, hour: int = 12, holiday: bool = False,
                 request_id: str = "") -> "RecoveryRequest":
        return cls(xy=raw.xy, times=raw.times, hour=hour, holiday=holiday,
                   request_id=request_id)

    def raw(self) -> RawTrajectory:
        """Validated raw-trajectory view (:class:`RequestError` on malformed
        input, see :func:`trace_floats`).  Arrays are viewed, not copied."""
        trace_floats(self.xy, self.times)
        return RawTrajectory(np.asarray(self.xy, dtype=np.float64),
                             np.asarray(self.times, dtype=np.float64))


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
    #: :func:`wire_arrays` of ``trajectory`` when a shard's cache entry
    #: answered: built by the entry's first hit and shared, read-only, by
    #: every later one.  ``None`` elsewhere.
    wire: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False)


def wire_arrays(trajectory) -> Tuple[np.ndarray, np.ndarray]:
    """A trajectory's (anything with ``segments`` and ``ratios`` arrays)
    segment ids and its moving ratios rounded to 6 decimals (Python's
    ``round``), as read-only arrays whose ``tolist()`` is what a response
    body carries."""
    segments = trajectory.segments.copy()
    ratios = np.array([round(ratio, 6) for ratio in trajectory.ratios.tolist()],
                      dtype=np.float64)
    segments.flags.writeable = ratios.flags.writeable = False
    return segments, ratios


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


def grid_steps(times: Sequence[float], interval: float) -> Tuple[int, List[int]]:
    """(grid length, snapped step of each fix) for a trace on the ε_ρ grid,
    in one pass over its times and with nothing allocated but the list.

    The grid is counted from the first and last fix before anything is
    built; past :data:`MAX_GRID_STEPS` the trace is a
    :class:`RequestError`.  Each fix snaps to the nearest step (halves to
    even), clamped onto the grid.
    """
    if isinstance(times, np.ndarray):
        times = times.tolist()
    t0 = float(times[0])
    count = grid_length(t0, float(times[-1]), interval)
    if count > MAX_GRID_STEPS:
        raise RequestError(
            f"the trace spans {count} ε_ρ steps of {interval:g} s; at most "
            f"{MAX_GRID_STEPS} are served")
    last = count - 1
    return count, [min(max(round((t - t0) / interval), 0), last) for t in times]


def grid_alignment(times, interval: float) -> tuple:
    """(grid times, snapped step indices) for a raw trace on the ε_ρ grid:
    :func:`grid_steps` as arrays.

    Single source of truth for how a trace maps onto its output grid — the
    decoder (via :func:`assemble_sample`) reads it here and the shard's
    result-cache key reads :func:`grid_steps` underneath it, so they can
    never disagree about grid length or fix-to-step alignment.
    """
    if isinstance(times, np.ndarray):
        times = times.tolist()
    _, steps = grid_steps(times, interval)
    return (epsilon_grid(float(times[0]), float(times[-1]), interval),
            np.array(steps, dtype=np.int64))


def fix_entries(network: RoadNetwork, xy: np.ndarray,
                config: IngestConfig) -> List[Tuple[np.ndarray, np.ndarray]]:
    """One Eq. 16 constraint entry per fix of ``xy``, in fix order."""
    return [constraint_for_fix(network, x, y, config.beta, config.max_gps_error)
            for x, y in xy]


def request_alignment(request: RecoveryRequest, interval: float,
                      alignment=None) -> Tuple[RawTrajectory, tuple]:
    """``(raw, (grid times, snapped steps))`` of a request that can be
    decoded, or :class:`RequestError`: :meth:`RecoveryRequest.raw`'s
    checks, at least two fixes, at most :data:`MAX_GRID_STEPS` grid steps
    (:func:`grid_alignment`), and every fix on its own, later step.  The
    one home of these rules; none reads the network, so
    ``RecoveryService.submit`` runs them before queueing anything."""
    raw = request.raw()
    if len(raw) < 2:
        raise RequestError("a recovery request needs at least two GPS fixes")
    grid_times, steps = alignment if alignment is not None else grid_alignment(
        raw.times, interval)
    if np.any(np.diff(steps) <= 0):
        raise RequestError(
            "input fixes must map to distinct increasing ε_ρ steps; "
            f"got {steps.tolist()} for interval {interval}"
        )
    return raw, (grid_times, steps)


def assemble_sample(request: RecoveryRequest, network: RoadNetwork,
                    config: Optional[IngestConfig] = None,
                    alignment=None, entries=None) -> RecoverySample:
    """Build a target-less :class:`RecoverySample` from a raw request.

    The output grid spans [t0, t_end] at ``config.interval``; each input fix
    snaps to its nearest grid step (:func:`request_alignment`'s rules) and
    contributes an Eq. 16 constraint row, exactly as the offline
    dataset builder does.  The target arrays are placeholders — only their
    length and time grid drive decoding.  ``alignment`` lets a caller that
    already ran :func:`grid_alignment` (``RecoveryService.submit``) pass
    the result in instead of recomputing it; ``entries`` likewise passes in
    the fixes' :func:`fix_entries` (a streaming session's per-fix memo).
    """
    config = config or IngestConfig()
    raw, (grid_times, steps) = request_alignment(request, config.interval,
                                                 alignment)
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
