"""`RecoveryService` — the online trajectory-recovery facade.

Raw GPS requests come in; recovered ε_ρ trajectories come out.  The
pipeline per request:

1. **validation**, on the caller's thread —
   :func:`~repro.serve.request.request_alignment` checks the fixes and
   aligns them on the ε_ρ grid, and the registry resolves the model; a
   bad request fails its future before anything is queued;
2. **scheduling** — the decode scheduler (:mod:`repro.serve.batching`)
   keys the request by its own grid length, and when it is the
   outstanding decode with the earliest solo finish its worker thread
   runs the request's closure —
   :func:`~repro.serve.request.assemble_sample` (one Eq. 16 candidate
   search per fix), then :func:`~repro.serve.engine.build_job` (encode +
   constraint) — admits the job into a decode slot
   (:mod:`repro.serve.engine`) and steps it until its own grid ends;
3. **telemetry** — latency, QPS and slot-table counters behind
   :meth:`RecoveryService.stats`.

A service has no result cache: each :class:`~repro.cluster.Shard` keeps
one in front of replica admission.

``submit`` is the async surface (returns a future), ``recover`` the
blocking convenience, ``recover_many`` the bulk path used by the demo,
benchmark and CLI.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.model import RNTrajRec
from ..roadnet.network import RoadNetwork
from ..trajectory.trajectory import MatchedTrajectory
from .batching import ContinuousScheduler
from .engine import DecodeJob, build_job
from .registry import ModelRegistry
from .request import (
    IngestConfig,
    RecoveryRequest,
    RecoveryResponse,
    assemble_sample,
    request_alignment,
)
from .telemetry import ServingTelemetry


@dataclass(frozen=True)
class ServeConfig:
    """Serving-layer knobs: the ingest grid, and the sizing and key
    precisions of the shard's result cache.  The slot table keeps
    :class:`~repro.serve.batching.ContinuousScheduler`'s default size."""

    interval: float = 12.0         # ε_ρ output grid spacing (seconds)
    beta: float = 15.0             # constraint kernel scale (meters)
    max_gps_error: float = 100.0   # constraint search radius (meters)
    cache_capacity: int = 1024
    xy_precision: float = 0.1      # cache-key quantization (meters)
    time_precision: float = 0.1    # cache-key quantization (seconds)

    @classmethod
    def for_spec(cls, spec, **overrides) -> "ServeConfig":
        """Ingest parameters derived from a ``DatasetSpec`` alone, so the
        serving constraint masks match the ones the model was trained with
        (ε_ρ interval, β kernel scale, GPS error radius).  This is the
        light path for servers that only need the network + spec — no
        trajectory simulation or sample building required."""
        params = dict(
            interval=spec.simulation.sample_interval,
            beta=spec.dataset.beta,
            max_gps_error=spec.dataset.max_gps_error,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def for_dataset(cls, data, **overrides) -> "ServeConfig":
        """:meth:`for_spec` over a materialized ``LoadedDataset``."""
        return cls.for_spec(data.spec, **overrides)

    def ingest(self) -> IngestConfig:
        return IngestConfig(interval=self.interval, beta=self.beta,
                            max_gps_error=self.max_gps_error)


class RecoveryService:
    """Online recovery over a :class:`ModelRegistry`."""

    def __init__(self, registry: ModelRegistry,
                 config: Optional[ServeConfig] = None,
                 shard: str = "") -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.shard = shard  # cluster shard label; stamped on every response
        self.telemetry = ServingTelemetry()
        # Streaming services join this scheduler's slot table.
        self.scheduler = ContinuousScheduler()
        self._closed = False

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(cls, prefix: str, network: RoadNetwork,
                        config: Optional[ServeConfig] = None,
                        name: str = "default", shard: str = "") -> "RecoveryService":
        """A service over a single saved bundle (see ``save_model_bundle``)."""
        registry = ModelRegistry(network)
        registry.register(name, prefix, activate=True)
        registry.load(name)  # fail fast and warm the pinned structures
        return cls(registry, config, shard=shard)

    @classmethod
    def from_model(cls, model: RNTrajRec, config: Optional[ServeConfig] = None,
                   name: str = "default", shard: str = "") -> "RecoveryService":
        """A service over an in-memory model (tests, notebooks)."""
        registry = ModelRegistry(model.network)
        registry.add_loaded(name, model, activate=True)
        return cls(registry, config, shard=shard)

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    def submit(self, request: RecoveryRequest) -> "Future[RecoveryResponse]":
        """Asynchronously recover one request; never blocks on the model."""
        if self._closed:
            raise RuntimeError("RecoveryService is closed")
        start = time.perf_counter()
        outer: "Future[RecoveryResponse]" = Future()
        outer.set_running_or_notify_cancel()

        ingest = self.config.ingest()
        try:
            _, alignment = request_alignment(request, ingest.interval)
            # The model is resolved here and bound into the closure, so a
            # hot swap while the request queues never changes the model
            # that decodes it, and the response names that generation.
            model_name, model_tag, model = self.registry.active_ref()
            network = self.registry.network

            def prepare() -> DecodeJob:
                sample = assemble_sample(request, network, ingest,
                                         alignment=alignment)
                return build_job(model, sample, model_tag)

            # close() may race us past the _closed check at entry; the
            # scheduler's own refusal must fail the future, not submit().
            inner = self.scheduler.submit(len(alignment[0]), prepare)
        except Exception as exc:
            self.telemetry.record_error()
            outer.set_exception(exc)
            return outer

        def _complete(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                self.telemetry.record_error()
                outer.set_exception(exc)
                return
            result = done.result()
            latency = time.perf_counter() - start
            self.telemetry.record_request(latency, cache_hit=False,
                                          model_tag=model_tag)
            outer.set_result(RecoveryResponse(
                request_id=request.request_id,
                trajectory=MatchedTrajectory(result.segments, result.rates,
                                             alignment[0]),
                cached=False, latency_ms=1000.0 * latency, model=model_name,
                model_tag=model_tag, shard=self.shard,
            ))

        inner.add_done_callback(_complete)
        return outer

    def recover(self, request: RecoveryRequest,
                timeout: Optional[float] = None) -> RecoveryResponse:
        """Blocking single-request recovery."""
        return self.submit(request).result(timeout=timeout)

    def recover_many(self, requests: Sequence[RecoveryRequest],
                     timeout: Optional[float] = None) -> List[RecoveryResponse]:
        """Submit every request before waiting — the batching-friendly path."""
        futures = [self.submit(request) for request in requests]
        return [future.result(timeout=timeout) for future in futures]

    # ------------------------------------------------------------------
    # Operations surface
    # ------------------------------------------------------------------
    def swap_model(self, name: str) -> None:
        """Hot-swap the active model; in-flight batches finish on the old
        one, new submissions use the new one."""
        self.registry.activate(name)

    def stats(self) -> dict:
        """Telemetry snapshot plus scheduler/registry gauges."""
        payload = self.telemetry.stats()
        payload.update({
            "shard": self.shard,
            "pending": self.scheduler.pending,
            "active_model": self.registry.active_name,
            "models": self.registry.names(),
            "engine": self.scheduler.stats(),
        })
        return payload

    def flush(self) -> None:
        self.scheduler.flush()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.scheduler.close(drain=True)

    def __enter__(self) -> "RecoveryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
