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

Every decode joins the slot table of the
:class:`~repro.serve.ContinuousScheduler` the caller passes — a session's
:class:`~repro.serve.RecoveryService`'s, so a shard's one-shot traffic
decodes next to it — as a ``build_job`` closure over the session's
values, which that scheduler's worker runs at admission while the caller
waits, holding the session lock.  Ingest stays on the caller's thread
and has no second path: a session keeps one Eq. 16 entry per fix,
computed for the new fixes only, and its decode sample is
:func:`~repro.serve.request.assemble_sample` over the fixes so far with
those entries passed in — one-shot assembly, memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import profile
from ..core.model import RNTrajRec
from ..roadnet.network import RoadNetwork
from ..serve.batching import ContinuousScheduler
from ..serve.engine import build_job
from ..serve.request import (
    IngestConfig,
    RecoveryRequest,
    RequestError,
    assemble_sample,
    fix_entries,
    validate_append_times,
)
from ..trajectory.dataset import RecoverySample
from ..trajectory.trajectory import MatchedTrajectory
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


# ----------------------------------------------------------------------
# Ingest
# ----------------------------------------------------------------------
def session_sample(session: SessionState, network: RoadNetwork,
                   config: IngestConfig) -> RecoverySample:
    """The session's fixes so far as one-shot ``assemble_sample`` builds
    them, with the session's per-fix Eq. 16 entries passed in."""
    return assemble_sample(
        RecoveryRequest(session.xy, session.times, session.hour,
                        session.holiday),
        network, config, entries=session.entries)


def append_fixes(session: SessionState, network: RoadNetwork,
                 config: IngestConfig, xy, times) -> Optional[RecoverySample]:
    """Validate and ingest new fixes; returns the session's decode sample
    (``None`` until it has the two fixes a grid needs).

    Eq. 16 entries are computed for the new fixes only.  Raises
    :class:`RequestError` — leaving the session as it was — on
    out-of-order/duplicate timestamps, non-finite coordinates, or fixes
    that land on an already-observed ε_ρ step (``assemble_sample``'s own
    rule, checked by running it).
    """
    times = validate_append_times(times, session.last_time)
    xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
    if xy.shape != (len(times), 2):
        raise RequestError(
            f"append points must be ({len(times)}, 2); got {xy.shape}")
    if not np.all(np.isfinite(xy)):
        raise RequestError("GPS positions must be finite")
    before = session.xy, session.times, session.entries
    session.xy = np.concatenate([session.xy, xy])
    session.times = np.concatenate([session.times, times])
    session.entries = session.entries + fix_entries(network, xy, config)
    try:
        return (session_sample(session, network, config)
                if session.num_fixes >= 2 else None)
    except RequestError:
        session.xy, session.times, session.entries = before
        raise


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------
def decode(model: RNTrajRec, session: SessionState, sample: RecoverySample,
           commit_horizon: int, scheduler: ContinuousScheduler) -> DecodeOutcome:
    """Extend the session's recovery from the checkpointed carry.

    Decodes the grid steps past the commit boundary as **one** job in
    ``scheduler``'s slot table, whose ``checkpoint_at`` snapshots the
    carry where the steps now aging past the horizon end (the next
    checkpoint); the still-provisional tail decodes on from there.  By the
    split-kernel equivalence this is bit-identical to decoding the two
    spans separately."""
    length = sample.target_length
    # A missing carry (first decode, or dropped by a hot swap) means a
    # full decode: step 0's carry comes from the *current* encoding.
    start = (int(min(session.committed, length))
             if session.carry is not None else 0)
    commit = max(start, length - max(int(commit_horizon), 0))

    # The session's values are bound now; the worker encodes and builds
    # the constraint at admission while the caller waits.
    tag, carry = session.model_tag, session.carry if start else None
    with profile.section("stream.decode"):
        result = scheduler.submit(length - start, lambda: build_job(
            model, sample, tag, start=start, carry=carry,
            checkpoint_at=commit - start)).result()

    segments = np.concatenate([session.segments[:start], result.segments])
    rates = np.concatenate([session.rates[:start], result.rates])
    revised_from = _first_revision(session.segments, segments, start)
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


def finalize(model: RNTrajRec, session: SessionState, sample: RecoverySample,
             scheduler: ContinuousScheduler) -> Tuple[MatchedTrajectory, int, bool]:
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
    with profile.section("stream.finalize"):
        decoded = not (session.full_decode
                       and len(session.segments) == sample.target_length)
        if decoded:
            tag = session.model_tag
            result = scheduler.submit(sample.target_length, lambda: build_job(
                model, sample, tag)).result()
            segments, rates = result.segments, result.rates
        else:
            segments, rates = session.segments, session.rates
    revised_from = _first_revision(session.segments, segments, 0)
    trajectory = MatchedTrajectory(segments, rates, sample.target.times)
    return trajectory, revised_from, decoded


def _first_revision(old: np.ndarray, new: np.ndarray, start: int) -> int:
    """First index where the new result contradicts the old one (-1 if
    the old result is a prefix-consistent subset of the new)."""
    overlap = min(len(old), len(new))
    if overlap <= start:
        return -1
    changed = np.nonzero(old[start:overlap] != new[start:overlap])[0]
    return int(changed[0]) + start if len(changed) else -1
