"""The replica surface a shard serves through, and its in-process form.

A :class:`~repro.cluster.shard.Shard` owns placement (round-robin,
admission, shedding) and talks to its replicas through one surface —
``submit_to(index, request)``, ``session_service()``, ``deploy``,
``swap``, ``stats()``, ``pids``, ``close`` — with two
implementations: :class:`ThreadReplicas` here (``backend="inproc"``, one
service) and :class:`~repro.cluster.workers.ProcessReplicas`
(``backend="process"``, N worker processes).
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
    """The in-process replica surface: one
    :class:`~repro.serve.RecoveryService` over the shard's registry.  Its
    one scheduler steps decodes in earliest-solo-finish order; a second
    scheduler thread under the same GIL would only interleave them."""

    def __init__(self, registry: ModelRegistry, config: ServeConfig,
                 spec: ShardSpec) -> None:
        self._registry = registry
        self.service = RecoveryService(registry, config, shard=spec.name)

    def submit_to(self, index: int,
                  request: RecoveryRequest) -> "Future[RecoveryResponse]":
        return self.service.submit(request)

    def session_service(self) -> RecoveryService:
        """The shard's service — the one streaming sessions run on."""
        return self.service

    def deploy(self, name: str, model_or_prefix, activate: bool) -> None:
        deploy_generation(self._registry, name, model_or_prefix, activate)

    def swap(self, name: str) -> None:
        self._registry.activate(name)

    def stats(self) -> Dict[str, Any]:
        return {"engine": self.service.scheduler.stats()}

    def pids(self) -> List[int]:
        return []

    def close(self) -> None:
        self.service.close()
