"""The incremental decode engine: extend a recovery instead of redoing it.

One-shot recovery (``RNTrajRec.recover``) pays O(l_ρ) decode steps — each
a |V|-wide segment-head row (screened, see ``greedy_step``) behind an
interpolation prior read off the network's bbox scan index — every time
it runs.  A streaming
session that re-ran it on every appended fix would pay O(N·l_ρ) over its
lifetime.  This engine exploits two structural facts:

* **Ingest state is append-only.**  The ε_ρ grid origin is pinned at the
  session's first fix, so every fix's snapped grid step — and therefore
  its sparse Eq. 16 constraint entry — never changes once computed.  Each
  append ingests only the new fixes.
* **Greedy decoding is stepwise-causal.**  Everything step j consumes
  from steps < j is the :class:`~repro.core.decoder.GreedyCarry`, so the
  engine checkpoints the carry at the commit boundary inside the session.
  An append is one :func:`~repro.serve.engine.build_job` decode job — the
  same builder one-shot admissions use — started from that checkpoint: it
  decodes **only the steps past it** (the still-revisable window behind
  the commit horizon plus whatever the new fix added), with the sparse
  constraint and its interpolation prior built for those steps alone, and
  ``checkpoint_at`` snapshots the next boundary carry in flight.
  Per-append decode work is O(horizon + new steps), independent of
  session length.

The encoder *is* re-run per append: GPSFormer attends bidirectionally and
normalizes time by the trace duration, so a new fix legitimately shifts
every point feature.  That cost is shared with the one-shot baseline, and
with the decode cut to the suffix it is most of an append: ~70 % of a solo
append on the perf ledger's 32-fix sessions (cProfile, 128 appends), even
with X_road and the per-point sub-graphs memoized across appends.

Because encoder outputs drift as the trace grows, a committed decision —
and the checkpointed carry that extends it — is an *approximation* of
what a from-scratch decode would now pick; that is the commit-horizon
trade.  ``finalize`` therefore decodes the whole grid again as a
``start=0`` job (unless the last append already decoded from step 0, in
which case the split-kernel equivalence makes the stored result
bit-identical to it), giving the exact guarantee: finalize after N
appends ≡ one-shot recovery of the same N points.
``tests/test_stream.py`` asserts both halves.

A built job runs wherever the caller's scheduler says: in the slot table
of a :class:`~repro.serve.ContinuousScheduler` when one is attached (a
shard's one-shot traffic decodes next to it), else in a private one-slot
engine on the calling thread.  Same job, same per-step kernel, same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import profile
from ..core.model import RNTrajRec
from ..roadnet.network import RoadNetwork
from ..serve.engine import (
    ContinuousEngine,
    DecodeJob,
    DecodeResult,
    build_job,
    run_to_completion,
)
from ..serve.request import IngestConfig, RequestError, validate_append_times
from ..trajectory.dataset import RecoverySample, constraint_for_fix
from ..trajectory.resample import epsilon_grid
from ..trajectory.trajectory import MatchedTrajectory, RawTrajectory
from .session import SessionState


@dataclass(frozen=True)
class DecodeOutcome:
    """One append's decode result and its bookkeeping."""

    segments: np.ndarray      # (l_ρ,) full recovered segment path
    rates: np.ndarray         # (l_ρ,) moving ratios
    times: np.ndarray         # (l_ρ,) the ε_ρ grid
    grid_length: int
    committed: int            # steps now frozen (≤ grid_length)
    decoded_steps: int        # steps run through the decode kernel
    skipped_steps: int        # committed prefix steps not re-decoded
    revised_from: int         # first step whose segment changed vs the
                              # session's previous result (-1: none)
    full_decode: bool         # decode started at step 0 (≡ one-shot)


class IncrementalEngine:
    """Per-network streaming ingest + split-decode engine."""

    def __init__(self, network: RoadNetwork,
                 ingest: Optional[IngestConfig] = None) -> None:
        self.network = network
        self.ingest = ingest or IngestConfig()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def append_fixes(self, session: SessionState, xy, times) -> int:
        """Validate and ingest new fixes; returns how many were added.

        Constraint entries are computed for the new fixes only — the grid
        origin is the session's first fix, so earlier steps are stable.
        Raises :class:`RequestError` on out-of-order/duplicate timestamps,
        non-finite coordinates, or fixes that land on an already-observed
        ε_ρ step (same rule as one-shot ``assemble_sample``).
        """
        times = validate_append_times(times, session.last_time)
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim == 1:
            xy = xy.reshape(1, -1)
        if xy.shape != (len(times), 2):
            raise RequestError(
                f"append points must be ({len(times)}, 2); got {xy.shape}")
        if not np.all(np.isfinite(xy)):
            raise RequestError("GPS positions must be finite")

        interval = self.ingest.interval
        t0 = float(session.times[0]) if session.num_fixes else float(times[0])
        steps = np.round((times - t0) / interval).astype(np.int64)
        trail = np.concatenate(([session.last_step], steps))
        if np.any(np.diff(trail) <= 0):
            raise RequestError(
                "appended fixes must map to distinct increasing ε_ρ steps; "
                f"got {steps.tolist()} after step {session.last_step} for "
                f"interval {interval}")

        for (x, y), step in zip(xy, steps):
            session.constraints[int(step)] = constraint_for_fix(
                self.network, float(x), float(y),
                self.ingest.beta, self.ingest.max_gps_error)
            session.observed_steps.append(int(step))
        session.xy = np.concatenate([session.xy, xy])
        session.times = np.concatenate([session.times, times])
        return len(times)

    def sample_for(self, session: SessionState) -> RecoverySample:
        """The session's current fix set as a target-less recovery sample
        (same structure one-shot ``assemble_sample`` builds)."""
        grid_times = epsilon_grid(float(session.times[0]),
                                  float(session.times[-1]),
                                  self.ingest.interval)
        placeholder = MatchedTrajectory(
            np.zeros(len(grid_times), dtype=np.int64),
            np.zeros(len(grid_times)),
            grid_times,
        )
        return RecoverySample(
            raw_low=RawTrajectory(session.xy, session.times),
            target=placeholder,
            observed_steps=np.asarray(session.observed_steps, dtype=np.int64),
            constraints=tuple(
                session.constraints.get(step)
                for step in range(len(grid_times))),
            hour=session.hour,
            holiday=session.holiday,
        )

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def decode(self, model: RNTrajRec, session: SessionState,
               commit_horizon: int,
               scheduler=None) -> DecodeOutcome:
        """Extend the session's recovery from the checkpointed carry.

        Decodes the grid steps past the commit boundary as **one** job
        whose ``checkpoint_at`` snapshots the carry where the steps now
        aging past the horizon end (the next checkpoint); the
        still-provisional tail decodes on from there.  By the split-kernel
        equivalence this is bit-identical to decoding the two spans
        separately.  ``scheduler`` picks where the job runs (see
        :func:`_run_job`)."""
        sample = self.sample_for(session)
        length = sample.target_length
        # A missing carry (first decode, or dropped by a hot swap) means a
        # full decode: step 0's carry comes from the *current* encoding.
        start = (int(min(session.committed, length))
                 if session.carry is not None else 0)
        commit = max(start, length - max(int(commit_horizon), 0))

        with profile.section("stream.decode"):
            job = build_job(model, sample, session.model_tag, start=start,
                            carry=session.carry if start else None,
                            checkpoint_at=commit - start)
            result = _run_job(job, scheduler)

        segments = np.concatenate([session.segments[:start], result.segments])
        rates = np.concatenate([session.rates[:start], result.rates])
        revised_from = self._first_revision(session.segments, segments, start)
        outcome = DecodeOutcome(
            segments=segments, rates=rates, times=sample.target.times,
            grid_length=length, committed=commit,
            decoded_steps=length - start, skipped_steps=start,
            revised_from=revised_from, full_decode=(start == 0),
        )
        session.segments = segments
        session.rates = rates
        session.committed = commit
        # The carry after (commit - start) steps — the admitted carry
        # itself when nothing commits this turn.
        session.carry = result.checkpoint
        session.full_decode = outcome.full_decode
        if revised_from >= 0:
            session.revisions += 1
        return outcome

    def finalize(self, model: RNTrajRec, session: SessionState,
                 scheduler=None) -> Tuple[MatchedTrajectory, int, bool]:
        """The exact recovery of the session's full fix set.

        Returns (trajectory, revised_from vs the last streamed result,
        whether a fresh full decode ran).  When the last append already
        decoded from step 0 under this model — short sessions that never
        crossed the commit horizon — the stored result is bit-identical to
        the one-shot path (split-kernel equivalence) and is returned
        without another decode.  (``session.full_decode`` is cleared by a
        hot swap, so a result decoded under other weights never
        qualifies.)
        """
        sample = self.sample_for(session)
        with profile.section("stream.finalize"):
            decoded = not (session.full_decode
                           and len(session.segments) == sample.target_length)
            if decoded:
                result = _run_job(
                    build_job(model, sample, session.model_tag), scheduler)
                segments, rates = result.segments, result.rates
            else:
                segments, rates = session.segments, session.rates
        revised_from = self._first_revision(session.segments, segments, 0)
        trajectory = MatchedTrajectory(segments, rates, sample.target.times)
        return trajectory, revised_from, decoded

    # ------------------------------------------------------------------
    @staticmethod
    def _first_revision(old: np.ndarray, new: np.ndarray, start: int) -> int:
        """First index where the new result contradicts the old one (-1 if
        the old result is a prefix-consistent subset of the new)."""
        overlap = min(len(old), len(new))
        if overlap <= start:
            return -1
        changed = np.nonzero(old[start:overlap] != new[start:overlap])[0]
        return int(changed[0]) + start if len(changed) else -1


def _run_job(job: DecodeJob, scheduler) -> DecodeResult:
    """Run a built job to completion: in ``scheduler``'s slot table next to
    the shard's other traffic when one is attached, else in a private
    one-slot engine on the calling thread."""
    if scheduler is not None:
        return scheduler.submit_job(job).result()
    return run_to_completion(ContinuousEngine(1), [job])[0]
