"""The replica surface a shard serves through, and its in-process form.

A :class:`~repro.cluster.shard.Shard` owns placement (round-robin,
admission, shedding) and talks to its N replicas through one surface —
``submit_to(index, request)``, ``session_service()``, ``deploy``,
``swap``, ``stats()``, ``pids``, ``close`` — with two
implementations: :class:`ThreadReplicas` here (``backend="inproc"``) and
:class:`~repro.cluster.workers.ProcessReplicas` (``backend="process"``).
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Dict, List

from ..serve.registry import ModelRegistry
from ..serve.request import RecoveryRequest, RecoveryResponse
from ..serve.service import RecoveryService, ServeConfig
from .shardmap import ShardSpec


def deploy_generation(registry: ModelRegistry, name: str, model_or_prefix,
                      activate: bool, load: bool = True) -> None:
    """Register a model generation — a bundle prefix (str) or an in-memory
    model — and on activation evict every loaded generation but it and its
    immediate predecessor, so rolling deploys hold at most two resident
    models (the previous one stays warm for instant rollback).

    ``load=False`` activates without loading: a process-backend parent
    registry only tracks generation tags, its workers hold the models.
    """
    previous = registry.active_name
    if isinstance(model_or_prefix, str):
        registry.register(name, model_or_prefix, activate=False)
    else:
        registry.add_loaded(name, model_or_prefix, activate=False)
    if activate:
        if load:
            registry.activate(name)
        else:
            registry.activate_unloaded(name)
        for stale in registry.names():
            if stale not in (name, previous):
                registry.evict(stale)


class ThreadReplicas:
    """N :class:`~repro.serve.RecoveryService` replicas in this process,
    all over one shared registry — a deploy or swap reaches every replica
    at once."""

    def __init__(self, registry: ModelRegistry, config: ServeConfig,
                 spec: ShardSpec) -> None:
        self._registry = registry
        self.services = [RecoveryService(registry, config, shard=spec.name)
                         for _ in range(spec.replicas)]

    def submit_to(self, index: int,
                  request: RecoveryRequest) -> "Future[RecoveryResponse]":
        return self.services[index].submit(request)

    def session_service(self) -> RecoveryService:
        """Replica 0 — the service streaming sessions run on."""
        return self.services[0]

    def deploy(self, name: str, model_or_prefix, activate: bool) -> None:
        deploy_generation(self._registry, name, model_or_prefix, activate)

    def swap(self, name: str) -> None:
        self._registry.activate(name)

    def stats(self) -> Dict[str, Any]:
        rows = [service.stats() for service in self.services]
        engine: Dict[str, Any] = {}
        for row in rows:
            for gauge, value in row["engine"].items():
                # Counters and occupancy gauges add up across replicas; a
                # wait percentile does not — report the worst replica's.
                merge = max if gauge.startswith("queue_wait_ms_") else sum
                engine[gauge] = merge((engine.get(gauge, 0), value))
        return {"engine": engine, "replica_stats": rows}

    def pids(self) -> List[int]:
        return []

    def close(self) -> None:
        for service in self.services:
            service.close()
