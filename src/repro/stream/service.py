"""`StreamingRecoveryService` — sessionized recovery over a model registry.

The one-shot :class:`~repro.serve.RecoveryService` answers "here is a
whole trace, recover it".  This facade answers the online question —
"here is the *next fix* of a trace still being driven" — by keeping a
bounded :class:`~repro.stream.session.SessionStore` of live sessions and
running the :class:`~repro.stream.engine.IncrementalEngine` split decode
on each append.  The lifecycle:

``open`` → N × ``append`` (each returns a :class:`StreamUpdate` whose
suffix may be revised later) → ``finalize`` (the exact one-shot answer;
the session is then gone).

Telemetry flows through the same :class:`~repro.serve.ServingTelemetry`
the one-shot service uses, with ``streaming=True`` so operators can split
the two traffic classes and watch per-model-tag revision rates.  Hot
swaps are safe mid-session: each append resolves the registry's active
model, a tag change invalidates the session's carry checkpoint and its
stored result (the next decode restarts from step 0 under the new
weights), and ``finalize`` answers under whatever model is then active.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.model import RNTrajRec
from ..serve.registry import ModelRegistry
from ..serve.request import IngestConfig, RecoveryResponse, RequestError
from ..serve.service import ServeConfig
from ..serve.telemetry import ServingTelemetry
from ..trajectory.trajectory import MatchedTrajectory
from .engine import IncrementalEngine
from .session import SessionState, SessionStore, StoreConfig


@dataclass(frozen=True)
class StreamConfig:
    """Streaming knobs: ingest grid + commit horizon + store bounds."""

    interval: float = 12.0         # ε_ρ output grid spacing (seconds)
    beta: float = 15.0             # constraint kernel scale (meters)
    max_gps_error: float = 100.0   # constraint search radius (meters)
    # Newest grid steps kept *provisional* (re-decoded each append, may be
    # revised); steps aging past this get committed — frozen, with the
    # decoder carry checkpointed at the boundary so later appends resume
    # there.  0 commits everything instantly (fastest, most
    # revision-blind); a huge value never commits (every append is a full
    # re-decode from step 0, exactly the one-shot result each time).
    commit_horizon: int = 8
    capacity: int = 256            # SessionStore bounds (see StoreConfig)
    ttl_seconds: float = 1800.0
    evict_idle_seconds: float = 0.0
    eviction_log: int = 256

    @classmethod
    def for_spec(cls, spec, **overrides) -> "StreamConfig":
        """Ingest parameters from a ``DatasetSpec``, as ``ServeConfig.for_spec``
        derives them — masks match what the model trained with."""
        return cls.from_serve(ServeConfig.for_spec(spec), **overrides)

    @classmethod
    def from_serve(cls, serve: ServeConfig, **overrides) -> "StreamConfig":
        """Adopt a serving config's ingest grid (the cluster-affinity path:
        shards already derive their ``ServeConfig`` from the dataset)."""
        params = dict(interval=serve.interval, beta=serve.beta,
                      max_gps_error=serve.max_gps_error)
        params.update(overrides)
        return cls(**params)

    def ingest(self) -> IngestConfig:
        return IngestConfig(interval=self.interval, beta=self.beta,
                            max_gps_error=self.max_gps_error)

    def store(self) -> StoreConfig:
        return StoreConfig(capacity=self.capacity,
                           ttl_seconds=self.ttl_seconds,
                           evict_idle_seconds=self.evict_idle_seconds,
                           eviction_log=self.eviction_log)


@dataclass(frozen=True)
class StreamUpdate:
    """What one ``append`` streamed back to the client.

    ``trajectory`` is the current best recovery — committed prefix plus
    provisional suffix — and is ``None`` until the session has the two
    fixes a grid needs.  ``revised_from`` is the first grid step whose
    segment changed relative to the previous update (−1: pure extension).
    ``decoded_steps``/``skipped_steps`` expose the split the engine ran,
    which is what the streaming benchmark measures.
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
    """Sessionized incremental recovery over a :class:`ModelRegistry`."""

    def __init__(self, registry: ModelRegistry,
                 config: Optional[StreamConfig] = None,
                 shard: str = "",
                 telemetry: Optional[ServingTelemetry] = None,
                 scheduler=None,
                 clock=time.monotonic) -> None:
        self.registry = registry
        self.config = config or StreamConfig()
        self.shard = shard
        self.telemetry = telemetry or ServingTelemetry()
        self.engine = IncrementalEngine(registry.network, self.config.ingest())
        self.store = SessionStore(self.config.store(), clock=clock)
        # Optional ContinuousScheduler: every session decode (append
        # suffixes and finalize) then joins the same slot table as the
        # shard's one-shot traffic.
        self.scheduler = scheduler
        self._closed = False

    @classmethod
    def from_model(cls, model: RNTrajRec,
                   config: Optional[StreamConfig] = None,
                   name: str = "default", shard: str = "",
                   **kwargs) -> "StreamingRecoveryService":
        """A streaming service over an in-memory model (tests, demos)."""
        registry = ModelRegistry(model.network, default_config=model.config)
        registry.add_loaded(name, model, activate=True)
        return cls(registry, config, shard=shard, **kwargs)

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
                self.engine.append_fixes(session, xy, times)
                session.appends += 1
                outcome = (self.engine.decode(model, session,
                                              self.config.commit_horizon,
                                              scheduler=self.scheduler)
                           if session.num_fixes >= 2 else None)
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
                trajectory, revised_from, _ = self.engine.finalize(
                    model, session, scheduler=self.scheduler)
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
            "commit_horizon": self.config.commit_horizon,
            "sessions": self.store.stats(),
            "active_model": self.registry.active_name,
            "models": self.registry.names(),
        })
        return payload

    def close(self) -> None:
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
