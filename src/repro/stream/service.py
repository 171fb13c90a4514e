"""`StreamingRecoveryService` — sessionized recovery on a `RecoveryService`.

The one-shot :class:`~repro.serve.RecoveryService` answers "here is a
whole trace, recover it".  This facade answers the online question —
"here is the *next fix* of a trace still being driven" — by keeping a
bounded :class:`~repro.stream.session.SessionStore` of live sessions and
running the :mod:`repro.stream.engine` split decode on each append.  The
lifecycle:

``open`` → N × ``append`` (each returns a :class:`StreamUpdate` whose
suffix may be revised later) → ``finalize`` (the exact one-shot answer;
the session is then gone).

A streaming service runs on a one-shot service it borrows (a shard's
service, or one built for the purpose) and never closes it: that
service's registry resolves the model, its ``ServeConfig`` is the ingest
grid — the only place a session's grid can come from — and its scheduler
decodes every append suffix and finalize next to its one-shot traffic.
Telemetry is the streaming service's own
:class:`~repro.serve.ServingTelemetry`, recorded with ``streaming=True``
so per-model-tag revision rates are visible.  Hot swaps are safe
mid-session: each append resolves the registry's active model, a tag
change invalidates the session's carry checkpoint and its stored result
(the next decode restarts from step 0 under the new weights), and
``finalize`` answers under whatever model is then active.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..serve.request import RecoveryResponse, RequestError
from ..serve.service import RecoveryService
from ..serve.telemetry import ServingTelemetry
from ..trajectory.trajectory import MatchedTrajectory
from . import engine
from .session import SessionState, SessionStore, StoreConfig


@dataclass(frozen=True)
class StreamUpdate:
    """What one ``append`` streamed back to the client.

    ``trajectory`` is the current best recovery — committed prefix plus
    provisional suffix — and is ``None`` until the session has the two
    fixes a grid needs.  ``revised_from`` is the first grid step whose
    segment changed relative to the previous update (−1: pure extension).
    ``decoded_steps``/``skipped_steps`` expose the split the engine ran,
    which the ledger's ``stream-mixed`` workload reports.
    """

    session_id: str
    trajectory: Optional[MatchedTrajectory]
    grid_length: int
    committed_steps: int
    revised_from: int
    decoded_steps: int
    skipped_steps: int
    latency_ms: float
    model: str = ""
    model_tag: str = ""
    shard: str = ""


class StreamingRecoveryService:
    """Sessionized incremental recovery on a :class:`RecoveryService`."""

    def __init__(self, service: RecoveryService, commit_horizon: int = 8,
                 store: Optional[StoreConfig] = None,
                 clock=time.monotonic) -> None:
        """``commit_horizon``: newest grid steps kept *provisional*
        (re-decoded each append, may be revised); steps aging past it are
        committed — frozen, with the decoder carry checkpointed at the
        boundary so later appends resume there.  0 commits everything
        instantly (fastest, most revision-blind); a huge value never
        commits (every append is a full re-decode from step 0, exactly the
        one-shot result each time).  ``clock`` is injectable for
        lifecycle tests."""
        self.service = service
        self.registry = service.registry
        self.shard = service.shard
        self.ingest = service.config.ingest()
        self.commit_horizon = int(commit_horizon)
        self.telemetry = ServingTelemetry()
        self.store = SessionStore(store, clock=clock)
        self._closed = False

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open(self, session_id: Optional[str] = None, hour: int = 12,
             holiday: bool = False) -> str:
        """Open a streaming session; returns its id (fresh UUID when the
        client didn't name one).  Raises :class:`SessionOverloaded` when
        the store is full of busy sessions."""
        self._check_open()
        if session_id is None:
            session_id = uuid.uuid4().hex
        session = SessionState(session_id=str(session_id),
                               hour=int(hour) % 24, holiday=bool(holiday))
        self.store.open(session)
        return session.session_id

    def append(self, session_id: str, xy, times) -> StreamUpdate:
        """Ingest new fixes and extend the recovery incrementally."""
        self._check_open()
        start = time.perf_counter()
        session = self.store.get(session_id)
        model_name, model_tag, model = self.registry.active_ref()
        try:
            with session.lock:
                self._adopt_model(session, model_tag)
                sample = engine.append_fixes(session, self.registry.network,
                                             self.ingest, xy, times)
                session.appends += 1
                outcome = (engine.decode(model, session, sample,
                                         self.commit_horizon,
                                         self.service.scheduler)
                           if sample is not None else None)
        except Exception:
            self.telemetry.record_error()
            raise
        latency = time.perf_counter() - start
        revised = outcome is not None and outcome.revised_from >= 0
        self.telemetry.record_request(latency, cache_hit=False,
                                      model_tag=model_tag, streaming=True,
                                      revised=revised)
        if outcome is None:
            return StreamUpdate(
                session_id=session.session_id, trajectory=None,
                grid_length=0, committed_steps=0, revised_from=-1,
                decoded_steps=0, skipped_steps=0,
                latency_ms=1000.0 * latency, model=model_name,
                model_tag=model_tag, shard=self.shard)
        return StreamUpdate(
            session_id=session.session_id,
            trajectory=MatchedTrajectory(outcome.segments, outcome.rates,
                                         outcome.times),
            grid_length=outcome.grid_length,
            committed_steps=outcome.committed,
            revised_from=outcome.revised_from,
            decoded_steps=outcome.decoded_steps,
            skipped_steps=outcome.skipped_steps,
            latency_ms=1000.0 * latency, model=model_name,
            model_tag=model_tag, shard=self.shard)

    def finalize(self, session_id: str) -> RecoveryResponse:
        """Close the session and return the exact recovery of its full fix
        set — identical to one-shot ``recover()`` over the same points."""
        self._check_open()
        start = time.perf_counter()
        session = self.store.get(session_id)
        model_name, model_tag, model = self.registry.active_ref()
        try:
            with session.lock:
                if session.num_fixes < 2:
                    raise RequestError(
                        "a recovery needs at least two GPS fixes; session "
                        f"{session_id!r} has {session.num_fixes}")
                self._adopt_model(session, model_tag)
                trajectory, revised_from, _ = engine.finalize(
                    model, session, engine.session_sample(
                        session, self.registry.network, self.ingest),
                    self.service.scheduler)
        except Exception:
            self.telemetry.record_error()
            raise
        self.store.remove(session_id)
        latency = time.perf_counter() - start
        self.telemetry.record_request(latency, cache_hit=False,
                                      model_tag=model_tag, streaming=True,
                                      revised=revised_from >= 0)
        return RecoveryResponse(
            request_id=session_id, trajectory=trajectory, cached=False,
            latency_ms=1000.0 * latency, model=model_name,
            model_tag=model_tag, shard=self.shard,
            session_id=session_id, revised_from=revised_from)

    # ------------------------------------------------------------------
    # Operations surface
    # ------------------------------------------------------------------
    def evictions(self) -> List[Dict[str, Any]]:
        """Recent TTL/LRU eviction records (oldest first)."""
        return self.store.evictions()

    def stats(self) -> Dict[str, Any]:
        """Serving telemetry plus session-store gauges."""
        payload = self.telemetry.stats()
        payload.update({
            "shard": self.shard,
            "commit_horizon": self.commit_horizon,
            "sessions": self.store.stats(),
            "active_model": self.registry.active_name,
            "models": self.registry.names(),
        })
        return payload

    def close(self) -> None:
        """Refuse further work; the borrowed service stays open."""
        self._closed = True

    def __enter__(self) -> "StreamingRecoveryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _adopt_model(session: SessionState, model_tag: str) -> None:
        """Stamp the session with the model about to serve it.  On a hot
        swap mid-session the checkpointed carry and the stored result were
        computed under the old weights, so the next decode restarts from
        step 0 and ``finalize`` may not return the stored result."""
        if session.model_tag and session.model_tag != model_tag:
            session.carry = None
            session.committed = 0
            session.full_decode = False
        session.model_tag = model_tag

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("StreamingRecoveryService is closed")
