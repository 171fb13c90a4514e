"""One shard: a city's recovery stack behind admission control.

A :class:`Shard` owns everything needed to serve one region: the road
network, a :class:`~repro.serve.ModelRegistry`, and its replicas behind
one surface (:mod:`repro.cluster.replicas`) — one in-process
:class:`~repro.serve.RecoveryService`, or N worker processes drained
round-robin.  Three cluster-level concerns live here because a single
service cannot express them:

* **Lazy warm-up** — a shard starts *spec-only*: routing works against
  its declared bbox immediately, but the network, registry and replicas
  materialize on the first routed request (or an explicit ``warm()``).
  A 30-city map doesn't pay 30 city builds at boot.
* **Result cache** — one LRU per shard, in the front-door process and
  consulted before a replica is picked: a hit is answered on the calling
  thread, never admitted, so never shed.  The lookup is one pass each
  over the client's floats (validate and localize, grid steps, key) and
  the answer is the entry's stored copy and wire lists, rebased.
* **Backpressure** — each replica admits at most ``max_inflight``
  outstanding requests.  When every replica is saturated the shard sheds
  the request with :class:`ShardOverloaded` (the HTTP layer maps it to
  429) instead of queueing unboundedly.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from concurrent.futures import Future
from dataclasses import replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Union

import numpy as np

from ..core.model import RNTrajRec
from ..datasets.registry import get_spec
from ..roadnet.artifacts import CityArtifacts
from ..roadnet.generator import generate_city
from ..roadnet.network import RoadNetwork
from ..serve.cache import LRUCache, quantize_key
from ..serve.registry import ModelRegistry
from ..serve.request import (
    RecoveryRequest,
    RecoveryResponse,
    RequestError,
    grid_steps,
    trace_floats,
    wire_arrays,
)
from ..serve.service import RecoveryService, ServeConfig
from ..serve.telemetry import ServingTelemetry, rollup
from ..trajectory.trajectory import MatchedTrajectory
from .replicas import ThreadReplicas
from .shardmap import ShardSpec
from .workers import ProcessReplicas

#: model_factory(spec, network) -> eval-mode RNTrajRec (bundle-less shards)
ModelFactory = Callable[[ShardSpec, RoadNetwork], RNTrajRec]
#: network_factory(spec) -> RoadNetwork (shards with dataset=None)
NetworkFactory = Callable[[ShardSpec], RoadNetwork]


class ShardOverloaded(RuntimeError):
    """Every replica of a shard is at its in-flight admission bound."""

    def __init__(self, shard: str, limit: int, replicas: int) -> None:
        super().__init__(
            f"shard {shard!r} overloaded: {replicas} replica(s) at "
            f"max_inflight={limit}; request shed")
        self.shard = shard
        self.limit = limit
        self.replicas = replicas


class _Filed:
    """A recovered trajectory as the shard's result cache keeps it: private
    copies of its three arrays — held directly, so a filed result is as
    few small objects as it can be — and, once hit, the hit-invariant part
    of its wire form."""

    __slots__ = ("segments", "ratios", "times", "_wire")

    def __init__(self, trajectory: MatchedTrajectory) -> None:
        self.segments = trajectory.segments.copy()
        self.ratios = trajectory.ratios.copy()
        self.times = trajectory.times.copy()
        self._wire = None

    def answer(self, first_time: float) -> MatchedTrajectory:
        """The filed grid rebased onto a request whose first fix is at
        ``first_time`` (times ``filed + shift``), in fresh arrays."""
        shift = first_time - self.times.item(0)
        return MatchedTrajectory.from_checked(
            self.segments.copy(), self.ratios.copy(), self.times + shift)

    def wire(self):
        """:func:`~repro.serve.request.wire_arrays` of the filed result,
        built by its first hit — a result never hit pays nothing for it —
        and shared by every later one (racing first hits build equal
        forms)."""
        if self._wire is None:
            self._wire = wire_arrays(self)
        return self._wire


def request_key(local: RecoveryRequest, config: ServeConfig) -> Hashable:
    """The result-cache key of a request :meth:`Shard.localize` returned
    (float lists in the shard's frame): one pass over its times for the ε_ρ
    grid (:func:`~repro.serve.request.grid_steps`), one over each of its
    coordinates and times to quantize (:func:`quantize_key`)."""
    if len(local.times) < 2:
        raise RequestError("a recovery request needs at least two GPS fixes")
    # The key folds in the derived ε_ρ grid length and the step each fix
    # snaps to: two traces whose quantized times agree but that would
    # decode on different grids or alignments (e.g. durations straddling a
    # rounding boundary) must never collide.
    count, steps = grid_steps(local.times, config.interval)
    return quantize_key(
        local.xy, local.times, xy_precision=config.xy_precision,
        time_precision=config.time_precision,
        extra=(int(local.hour) % 24, bool(local.holiday), count,
               array("q", steps).tobytes()))


def _default_network_factory(spec: ShardSpec) -> RoadNetwork:
    if spec.dataset is None:
        raise ValueError(
            f"shard {spec.name!r} has no dataset; pass a network_factory")
    return generate_city(get_spec(spec.dataset).city)


class Shard:
    """A lazily materialized, admission-controlled per-city recovery stack."""

    def __init__(self, spec: ShardSpec,
                 model_factory: Optional[ModelFactory] = None,
                 network_factory: Optional[NetworkFactory] = None,
                 serve_overrides: Optional[Dict[str, Any]] = None,
                 artifact_dir: Optional[str] = None) -> None:
        self.spec = spec
        self._model_factory = model_factory
        self._network_factory = network_factory or _default_network_factory
        self._serve_overrides = dict(serve_overrides or {})
        self._artifact_dir = artifact_dir
        # "built" | "loaded" after warm() when artifact_dir is set; the
        # elapsed seconds cover the whole materialization either way, so
        # operators can read the warm-start win off stats()/logs.
        self.artifact_source = ""
        self.artifact_seconds = 0.0
        self._lock = threading.RLock()
        # Serializes deploy/swap sequences (register → activate → evict)
        # without blocking request admission, which only needs _lock.
        self._deploy_lock = threading.Lock()
        self._network: Optional[RoadNetwork] = None
        self._registry: Optional[ModelRegistry] = None
        self._replicas: Union[ThreadReplicas, ProcessReplicas, None] = None
        self._config = self.serve_config()
        self._cache = LRUCache(self._config.cache_capacity)
        # Every request this shard answers, cache hits included.
        self.telemetry = ServingTelemetry()
        self._inflight: List[int] = [0] * spec.replicas
        self._rr = 0
        self.shed_count = 0
        self.deploy_count = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def materialized(self) -> bool:
        with self._lock:
            return self._network is not None

    @property
    def network(self) -> RoadNetwork:
        self.warm()
        return self._network

    @property
    def registry(self) -> ModelRegistry:
        self.warm()
        return self._registry

    def serve_config(self) -> ServeConfig:
        """Ingest/batching config: dataset-derived where possible, so the
        serving constraint masks match what the shard's model trained with."""
        if self.spec.dataset is not None:
            return ServeConfig.for_spec(get_spec(self.spec.dataset),
                                        **self._serve_overrides)
        return ServeConfig(**self._serve_overrides)

    def warm(self) -> "Shard":
        """Materialize network, registry and replicas (idempotent).

        The first caller pays the build; concurrent callers block on the
        lock until the shard is ready — by construction a request is never
        half-served by a partially built shard.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(f"shard {self.name!r} is closed")
            if self._network is not None:
                return self
            started = time.perf_counter()
            path = (os.path.join(self._artifact_dir, self.name)
                    if self._artifact_dir else None)
            registry: Optional[ModelRegistry] = None

            def cold() -> ModelRegistry:
                return self._make_registry(self._network_factory(self.spec))

            def freeze() -> CityArtifacts:
                # First boot: freeze this shard's city (structures + the
                # just-loaded model) so every later boot mmap-loads it.
                nonlocal registry
                registry = cold()
                return CityArtifacts.build(registry.network,
                                           model=registry.active_ref()[2])

            if path is None:
                registry = cold()
            else:
                artifacts, self.artifact_source = CityArtifacts.load_or_build(
                    path, freeze)
                if registry is None:  # warm start: everything is mmap views
                    registry = self._make_registry(artifacts.network(), artifacts)
            network = registry.network
            if self.spec.backend == "process":
                # The artifact directory, when there is one, exists by now
                # (loaded or just built) for the workers to map.
                replicas = ProcessReplicas(registry, self._config, self.spec,
                                           path)
            else:
                replicas = ThreadReplicas(registry, self._config, self.spec)
            self._network, self._registry, self._replicas = (
                network, registry, replicas)
            if self._artifact_dir:
                self.artifact_seconds = time.perf_counter() - started
            return self

    def _make_registry(self, network: RoadNetwork,
                       artifacts: Optional[CityArtifacts] = None) -> ModelRegistry:
        """A registry over ``network`` with this shard's ``default`` model
        active: the bundle's frozen snapshot when one is packed (same
        weights, zero-copy views), else the spec's bundle, else the
        model factory's."""
        registry = ModelRegistry(network, artifacts=artifacts)
        if artifacts is not None and artifacts.model_snapshot() is not None:
            registry.register_artifact_model("default", activate=True)
        elif self.spec.bundle is not None:
            registry.register("default", self.spec.bundle, activate=True)
            registry.load("default")  # fail fast on a bad bundle
        elif self._model_factory is not None:
            model = self._model_factory(self.spec, network)
            model.eval()
            registry.add_loaded("default", model, activate=True)
        else:
            raise ValueError(
                f"shard {self.name!r} has neither a bundle nor a "
                "model_factory; nothing to serve")
        return registry

    def artifact_info(self) -> Dict[str, Any]:
        """{"source": "built"|"loaded"|"", "seconds": float} for logs/stats."""
        with self._lock:
            return {"source": self.artifact_source,
                    "seconds": round(self.artifact_seconds, 3)}

    # ------------------------------------------------------------------
    def to_local(self, xy) -> np.ndarray:
        """Global-frame points in this city's local frame (shard origin ↦
        the network's own coordinates), as an array: streaming appends'
        translation.  One-shot requests get the same subtraction inside
        :func:`~repro.serve.request.trace_floats`' pass."""
        points = np.asarray(xy, dtype=np.float64)
        origin = self.spec.origin
        return points - np.array(origin) if any(origin) else points

    def localize(self, request: RecoveryRequest) -> RecoveryRequest:
        """The request with its fixes validated and translated into this
        city's frame: :func:`~repro.serve.request.trace_floats` over the
        client's values, one pass, float lists out.  What a replica
        receives on a miss, and what :func:`request_key` keys."""
        xy, times = trace_floats(request.xy, request.times, self.spec.origin)
        return replace(request, xy=xy, times=times)

    def submit(self, request: RecoveryRequest) -> "Future[RecoveryResponse]":
        """Answer from the result cache, else admit onto the
        least-recently-used non-saturated replica, or shed with
        :class:`ShardOverloaded`; ``request`` is global-frame.  In-flight
        work is bounded per replica, whatever executes it."""
        self.warm()
        start = time.perf_counter()
        outer: "Future[RecoveryResponse]" = Future()
        outer.set_running_or_notify_cancel()
        try:
            local = self.localize(request)
            key = request_key(local, self._config)
            model_name, model_tag = self._registry.active_tag()
        except Exception as exc:
            self.telemetry.record_error()
            outer.set_exception(exc)
            return outer

        filed = self._cache.get((model_tag, key))
        if filed is not None:
            # Keys quantize times relative to the first fix, so a
            # time-shifted duplicate hits: rebase the filed grid onto this
            # request's origin.  The arrays are copied out, and the wire
            # form is read-only, so a caller mutating a response can never
            # poison the entry.
            trajectory = filed.answer(local.times[0])
            latency = time.perf_counter() - start
            self.telemetry.record_request(latency, cache_hit=True,
                                          model_tag=model_tag)
            outer.set_result(RecoveryResponse(
                request_id=request.request_id, trajectory=trajectory,
                cached=True, latency_ms=1000.0 * latency, model=model_name,
                model_tag=model_tag, shard=self.name, wire=filed.wire(),
            ))
            return outer

        with self._lock:
            replica = self._pick_replica()
            if replica is None:
                self.shed_count += 1
                raise ShardOverloaded(self.name, self.spec.max_inflight,
                                      self.spec.replicas)
            self._inflight[replica] += 1

        def _release(_: Future) -> None:
            with self._lock:
                self._inflight[replica] -= 1

        def _complete(done: Future) -> None:
            # Filed under the tag of the generation that computed it, never
            # the lookup's (a swap may land in between), and before the
            # caller's future resolves, so a resend after it always hits.
            try:
                response = done.result()
                self._cache.put((response.model_tag, key),
                                _Filed(response.trajectory))
                self.telemetry.record_request(response.latency_ms / 1000.0,
                                              cache_hit=False,
                                              model_tag=response.model_tag)
            except Exception as exc:
                self.telemetry.record_error()
                outer.set_exception(exc)
                return
            outer.set_result(response)

        try:
            inner = self._replicas.submit_to(replica, local)
        except Exception:
            _release(None)
            raise
        inner.add_done_callback(_release)
        inner.add_done_callback(_complete)
        return outer

    def session_service(self) -> RecoveryService:
        """The shard's :class:`~repro.serve.RecoveryService`, which its
        streaming sessions run on — its registry, ingest grid and slot
        table, so one shard's streaming and one-shot traffic share a
        ragged batch.

        Raises :class:`~repro.cluster.workers.StreamingUnsupported` on a
        process-backed shard, whose services live in other processes.
        """
        self.warm()
        return self._replicas.session_service()

    def _pick_replica(self) -> Optional[int]:
        """Round-robin over replicas with admission headroom (lock held)."""
        n = self.spec.replicas
        for step in range(n):
            candidate = (self._rr + step) % n
            if self._inflight[candidate] < self.spec.max_inflight:
                self._rr = (candidate + 1) % n
                return candidate
        return None

    # ------------------------------------------------------------------
    # Operations surface
    # ------------------------------------------------------------------
    def deploy(self, name: str, model_or_prefix, activate: bool = True) -> None:
        """Register a new model generation on this shard — a bundle prefix
        (str) or an in-memory eval model — optionally activating it.  One
        deploy reaches every replica (a process shard's workers ack it);
        sibling shards are untouched.

        On activation, loaded generations other than the new one and its
        immediate predecessor are evicted, so a long-running shard under
        rolling deploys holds at most two resident models (the previous
        one stays warm for instant rollback; bundle-backed names beyond
        that reload lazily from disk).  In-flight batches keep their own
        model references and finish unharmed.
        """
        self.warm()
        with self._deploy_lock:
            # Serialized with other deploys/swaps: a concurrent deploy
            # could otherwise evict this not-yet-active registration (or
            # crash evicting a freshly activated one).
            self._replicas.deploy(name, model_or_prefix, activate)
        with self._lock:
            self.deploy_count += 1

    def swap(self, name: str) -> None:
        """Hot-swap this shard's active model; in-flight work finishes on
        the old generation (see ``RecoveryService.swap_model``)."""
        self.warm()
        with self._deploy_lock:
            self._replicas.swap(name)

    def active_model(self) -> Dict[str, str]:
        """{"model": active name, "model_tag": generation tag} (warm only)."""
        if not self.materialized:
            return {"model": "", "model_tag": ""}
        name, tag = self._registry.active_tag()
        return {"model": name, "model_tag": tag}

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Shard gauge snapshot: the counters of every request the shard
        answered (cache hits included), cache gauges, and the replicas'
        own block (the service's ``engine``, or the worker pool's)."""
        with self._lock:
            replicas = self._replicas
            payload: Dict[str, Any] = {
                "materialized": self.materialized,
                "backend": self.spec.backend,
                "replicas": self.spec.replicas,
                "max_inflight": self.spec.max_inflight,
                "inflight": sum(self._inflight),
                "shed": self.shed_count,
                "deploys": self.deploy_count,
            }
            if self._artifact_dir:
                payload["artifacts"] = self.artifact_info()
        if replicas is None:
            return payload
        payload.update(self.active_model())
        payload.update(replicas.stats())
        # The shard's counters, not a sum of the replicas': a hit never
        # reaches a replica.
        payload.update(rollup([self.telemetry.stats()], self.latencies()))
        payload.update(cache_size=len(self._cache),
                       cache_capacity=self._cache.capacity)
        return payload

    def latencies(self) -> List[float]:
        """Latency observations (seconds) of every request this shard
        answered, for cluster rollup."""
        return self.telemetry.latencies()

    def worker_pids(self) -> List[int]:
        """Alive worker-process pids (empty for in-process shards) — the
        cluster folds them into its children-aware memory snapshot."""
        with self._lock:
            replicas = self._replicas
        return [] if replicas is None else replicas.pids()

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            replicas = self._replicas
        if replicas is None:
            return
        replicas.close()
