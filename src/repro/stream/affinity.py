"""Session→shard affinity: streaming sessions over a `RecoveryCluster`.

A streaming session is *stateful* — its ingest and decode state live
wherever it was opened — so unlike one-shot requests it cannot be
re-routed per call.  :class:`StreamingCluster` opens each session on the
shard owning its opening fix (resolved through the cluster's existing
:class:`~repro.cluster.router.ShardRouter`; a one-shard map needs no fix)
and sends every later append to the shard whose session store holds it,
translated into that city's frame by the one-shot path's own
``Shard.to_local``.  The stores are the only record of who is where: a
session a store expired or evicted is gone here too.

Per-shard :class:`~repro.stream.StreamingRecoveryService` instances are
built lazily on the shard's :class:`~repro.serve.RecoveryService`
(``shard.session_service()``: its registry, its dataset-derived ingest
grid and its decode slots; the caller sets only the commit horizon and
the store bounds), so a 30-city map pays for streaming state only on
shards that actually see sessions — and a hot swap deployed through the
cluster's ``deploy_model`` is picked up by that shard's streams on their
next append (both read the same registry).  An opening point no shard
owns is dead-lettered like an unroutable one-shot trace.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..cluster.cluster import RecoveryCluster
from ..cluster.shard import Shard
from ..serve.request import RecoveryResponse, RequestError
from .service import StreamingRecoveryService, StreamUpdate
from .session import StoreConfig, StreamError, UnknownSession


class StreamingCluster:
    """Session-affine streaming over the shards of a `RecoveryCluster`."""

    def __init__(self, cluster: RecoveryCluster, commit_horizon: int = 8,
                 store: Optional[StoreConfig] = None,
                 clock=time.monotonic) -> None:
        """``commit_horizon`` and ``store`` apply to every shard's sessions
        (see :class:`StreamingRecoveryService`); the ingest grid is each
        shard's own.  ``clock`` is injectable for lifecycle tests."""
        self.cluster = cluster
        self._commit_horizon = commit_horizon
        self._store = store
        self._clock = clock
        self._lock = threading.Lock()
        self._services: Dict[str, StreamingRecoveryService] = {}

    # ------------------------------------------------------------------
    def open(self, xy=None, hour: int = 12, holiday: bool = False,
             session_id: Optional[str] = None) -> Tuple[str, str]:
        """Open a session on the shard owning the given global-frame
        position(s) — optional on a one-shard map, a ``RequestError``
        without one otherwise; returns (session_id, shard name).  Raises
        ``RouteError`` when no shard owns them, ``StreamError`` when
        ``session_id`` is already open on any shard, ``SessionOverloaded``
        when the owning shard's store sheds and ``StreamingUnsupported``
        when that shard runs ``backend="process"`` (sessions run on the
        shard's own service)."""
        if xy is not None:
            shard = self.cluster.route(
                np.atleast_2d(np.asarray(xy, dtype=np.float64)),
                "" if session_id is None else str(session_id))
        elif len(self.cluster.shards) == 1:
            shard = self.cluster.shards[0]
        else:
            raise RequestError("opening a session on a multi-shard map needs "
                               "a point: the shard owning it holds the session")
        service = self._service(shard)
        with self._lock:  # one id, one shard: checked and admitted together
            if session_id is not None and any(
                    str(session_id) in other.store
                    for other in self._services.values()):
                raise StreamError(f"session {session_id!r} is already open")
            return service.open(session_id, hour, holiday), shard.name

    def append(self, session_id: str, xy, times) -> StreamUpdate:
        """Append on the shard holding the session (fixes localized)."""
        shard, service = self._resolve(session_id)
        return service.append(session_id, shard.to_local(xy), times)

    def finalize(self, session_id: str) -> RecoveryResponse:
        """Finalize on the shard holding the session; it is then gone."""
        return self._resolve(session_id)[1].finalize(session_id)

    # ------------------------------------------------------------------
    def evictions(self) -> List[Dict[str, Any]]:
        """Eviction records across all shards, each stamped with its shard."""
        return [{**record, "shard": name}
                for name, service in self._snapshot_services()
                for record in service.evictions()]

    def stats(self) -> Dict[str, Any]:
        """Per-shard streaming stats plus the live-session total."""
        shards = {name: service.stats()
                  for name, service in self._snapshot_services()}
        return {
            "pinned_sessions": sum(block["sessions"]["active_sessions"]
                                   for block in shards.values()),
            "shards": shards,
        }

    def close(self) -> None:
        for _, service in self._snapshot_services():
            service.close()

    def __enter__(self) -> "StreamingCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _service(self, shard: Shard) -> StreamingRecoveryService:
        with self._lock:
            service = self._services.get(shard.name)
            if service is None:
                service = StreamingRecoveryService(
                    shard.session_service(), self._commit_horizon,
                    self._store, clock=self._clock)
                self._services[shard.name] = service
            return service

    def _resolve(self, session_id: str) -> Tuple[Shard, StreamingRecoveryService]:
        """The shard and service whose store holds the session."""
        for name, service in self._snapshot_services():
            if session_id in service.store:
                return self.cluster.shard(name), service
        raise UnknownSession(session_id)

    def _snapshot_services(self) -> List[Tuple[str, StreamingRecoveryService]]:
        with self._lock:
            return sorted(self._services.items())
