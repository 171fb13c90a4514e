"""`RecoveryCluster` — many per-city recovery shards behind one front door.

The single-city :class:`~repro.serve.RecoveryService` pins one road
network, one model registry and one scheduler.  The cluster composes many
of them: a :class:`~repro.cluster.router.ShardRouter` resolves each
incoming global-frame trace to the shard owning its region, the shard
localizes the trace into its city frame, admits it (or sheds under
overload), and the response comes back stamped with the shard name and
the model generation that produced it.

Cluster-only semantics:

* traces no shard fully owns are **dead-lettered** (``outside`` /
  ``straddle``), never served by the wrong city's model;
* ``recover_many`` returns per-request :class:`ClusterResult` statuses —
  heavy traffic with a few shed or unroutable requests is the normal
  case, not an exception;
* ``stats()`` rolls routing counters, per-shard serving telemetry (true
  percentiles across shards) and — when enabled — the process-wide
  :mod:`repro.profile` section registry into one JSON-ready snapshot;
* one city's model can be re-deployed (``deploy_model`` /
  ``swap_model``) without touching sibling shards, their caches, or
  their in-flight work.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from .. import profile
from ..serve.request import RecoveryRequest, RecoveryResponse
from ..serve.telemetry import rollup
from .router import RouteError, ShardRouter
from .shard import ModelFactory, NetworkFactory, Shard, ShardOverloaded
from .shardmap import ShardMap
from .telemetry import ClusterTelemetry


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one request in a bulk ``recover_many`` call."""

    request_id: str
    status: str                # "ok" | "shed" | "unroutable" | "error"
    shard: str = ""
    response: Optional[RecoveryResponse] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _failed(exc: Exception) -> "Future[RecoveryResponse]":
    future: "Future[RecoveryResponse]" = Future()
    future.set_running_or_notify_cancel()
    future.set_exception(exc)
    return future


class RecoveryCluster:
    """Sharded multi-city recovery serving over a :class:`ShardMap`."""

    def __init__(self, shard_map: ShardMap,
                 model_factory: Optional[ModelFactory] = None,
                 network_factory: Optional[NetworkFactory] = None,
                 artifact_dir: Optional[str] = None) -> None:
        self.shard_map = shard_map
        self.artifact_dir = artifact_dir
        self.shards: List[Shard] = [
            Shard(spec, model_factory=model_factory,
                  network_factory=network_factory,
                  serve_overrides=shard_map.serve,
                  artifact_dir=artifact_dir)
            for spec in shard_map
        ]
        self._by_name: Dict[str, Shard] = {s.name: s for s in self.shards}
        self.router = ShardRouter([spec.resolved_bbox() for spec in shard_map])
        self.telemetry = ClusterTelemetry()
        self._closed = False

    # ------------------------------------------------------------------
    # Request surface (global coordinate frame)
    # ------------------------------------------------------------------
    def route(self, xy, request_id: str = "") -> Shard:
        """The shard owning every global-frame point of ``xy``.  A trace no
        shard owns is dead-lettered under ``request_id`` and raises
        :class:`RouteError` — one-shot requests and session opens alike."""
        try:
            return self.shards[self.router.shard_of_points(xy)]
        except RouteError as exc:
            self.telemetry.record_unroutable(exc.reason, request_id,
                                             exc.detail)
            raise

    def submit(self, request: RecoveryRequest) -> "Future[RecoveryResponse]":
        """Route and asynchronously recover one global-frame request.

        The future fails with :class:`RouteError` (unroutable — also
        dead-lettered), :class:`ShardOverloaded` (shed), or whatever the
        owning service raised; it never blocks on the model.
        """
        if self._closed:
            raise RuntimeError("RecoveryCluster is closed")
        try:
            shard = self.route(request.xy, request.request_id)
        except RouteError as exc:
            return _failed(exc)
        except Exception as exc:  # malformed xy etc.
            self.telemetry.record_error()
            return _failed(exc)
        try:
            future = shard.submit(request)
        except ShardOverloaded as exc:
            self.telemetry.record_shed(shard.name, request.request_id, str(exc))
            return _failed(exc)
        except Exception as exc:
            self.telemetry.record_error()
            return _failed(exc)
        self.telemetry.record_routed(shard.name)
        return future

    def recover(self, request: RecoveryRequest,
                timeout: Optional[float] = None) -> RecoveryResponse:
        """Blocking single-request recovery (raises on shed/unroutable)."""
        return self.submit(request).result(timeout=timeout)

    def recover_many(self, requests: Sequence[RecoveryRequest],
                     timeout: Optional[float] = None) -> List[ClusterResult]:
        """Submit everything up front (concurrent peers share each shard's
        decode slots), then gather per-request outcomes."""
        futures = [self.submit(request) for request in requests]
        results: List[ClusterResult] = []
        for request, future in zip(requests, futures):
            try:
                response = future.result(timeout=timeout)
            except RouteError as exc:
                results.append(ClusterResult(request.request_id, "unroutable",
                                             error=str(exc)))
            except ShardOverloaded as exc:
                results.append(ClusterResult(request.request_id, "shed",
                                             shard=exc.shard, error=str(exc)))
            except Exception as exc:
                results.append(ClusterResult(request.request_id, "error",
                                             error=str(exc)))
            else:
                results.append(ClusterResult(request.request_id, "ok",
                                             shard=response.shard,
                                             response=response))
        return results

    # ------------------------------------------------------------------
    # Operations surface
    # ------------------------------------------------------------------
    def shard(self, name: str) -> Shard:
        if name not in self._by_name:
            raise KeyError(f"unknown shard {name!r}; have {sorted(self._by_name)}")
        return self._by_name[name]

    def warm(self, names: Optional[Sequence[str]] = None) -> None:
        """Materialize the named shards (default: all) ahead of traffic."""
        for name in (names if names is not None else self._by_name):
            self.shard(name).warm()

    def deploy_model(self, shard_name: str, model_name: str, model_or_prefix,
                     activate: bool = True) -> Dict[str, str]:
        """Deploy a new model generation onto ONE shard (hot swap when
        ``activate``); siblings keep serving their generations and caches."""
        shard = self.shard(shard_name)
        shard.deploy(model_name, model_or_prefix, activate=activate)
        return shard.active_model()

    def swap_model(self, shard_name: str, model_name: str) -> Dict[str, str]:
        """Activate an already-registered model on one shard."""
        shard = self.shard(shard_name)
        shard.swap(model_name)
        return shard.active_model()

    def dead_letters(self) -> List[Dict[str, Any]]:
        """Recently refused traces: unroutable rejections and sheds."""
        return self.telemetry.dead_letters()

    def stats(self) -> Dict[str, Any]:
        """Rolled-up snapshot: cluster aggregates, router counters,
        per-shard serving stats, and profiler sections when enabled."""
        shard_stats = {shard.name: shard.stats() for shard in self.shards}
        total = rollup(shard_stats.values(), [
            value for shard in self.shards for value in shard.latencies()])
        router = self.telemetry.stats()
        payload: Dict[str, Any] = {
            "cluster": {
                "shards": len(self.shards),
                "materialized": sum(
                    1 for s in shard_stats.values() if s["materialized"]),
                "requests": total["requests"],
                "cache_hits": total["cache_hits"],
                "shed": router["shed"],
                "unroutable": router["unroutable"],
                "latency_ms_p50": total["latency_ms_p50"],
                "latency_ms_p99": total["latency_ms_p99"],
            },
            "router": router,
            "shards": shard_stats,
            # Process RSS joins latency/throughput as a first-class metric:
            # the memory-scaling benchmark and operators both read it here.
            # Process-backed shards contribute their worker pids, so the
            # figure covers the whole serving tree (with PSS counting
            # pages the workers share — mmap'd artifacts — only once).
            "memory": profile.memory_snapshot(pids=[
                pid for shard in self.shards for pid in shard.worker_pids()]),
        }
        if profile.PROFILER.enabled:
            payload["profile"] = profile.stats()
        return payload

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            for shard in self.shards:
                shard.close()

    def __enter__(self) -> "RecoveryCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
