"""Session→shard affinity: streaming sessions over a `RecoveryCluster`.

A streaming session is *stateful* — its ingest and decode state live
wherever its first append landed — so unlike one-shot requests it cannot
be re-routed per call.  :class:`StreamingCluster` pins each session to
the shard owning its opening fix (resolved through the cluster's existing
:class:`~repro.cluster.router.ShardRouter`) and forwards every subsequent
append there, localized into that city's coordinate frame exactly like
the one-shot path (``Shard.localize``).

Per-shard :class:`~repro.stream.StreamingRecoveryService` instances are
built lazily over the shard's own registry and dataset-derived serving
config, so a 30-city map pays for streaming state only on shards that
actually see sessions — and a hot swap deployed through the cluster's
``deploy_model`` is picked up by that shard's streams on their next
append (both read the same registry).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..cluster.cluster import RecoveryCluster
from ..cluster.shard import Shard
from ..serve.request import RecoveryResponse
from .service import StreamConfig, StreamingRecoveryService, StreamUpdate
from .session import UnknownSession


class StreamingCluster:
    """Session-affine streaming over the shards of a `RecoveryCluster`."""

    def __init__(self, cluster: RecoveryCluster,
                 config: Optional[StreamConfig] = None,
                 clock=None) -> None:
        self.cluster = cluster
        self._config = config      # None: derive per shard from its dataset
        self._clock = clock        # injectable for store-lifecycle tests
        self._lock = threading.Lock()
        self._services: Dict[str, StreamingRecoveryService] = {}
        self._affinity: Dict[str, str] = {}  # session_id -> shard name

    # ------------------------------------------------------------------
    def open(self, xy, hour: int = 12, holiday: bool = False,
             session_id: Optional[str] = None) -> Tuple[str, str]:
        """Open a session pinned to the shard owning the given global-frame
        position(s); returns (session_id, shard name).  Raises
        :class:`~repro.cluster.router.RouteError` when no shard owns them,
        :class:`~repro.stream.SessionOverloaded` when the owning shard's
        session store sheds, and
        :class:`~repro.cluster.StreamingUnsupported` when that shard runs
        ``backend="process"`` (sessions decode on the shard's own slots)."""
        points = np.atleast_2d(np.asarray(xy, dtype=np.float64))
        shard = self.cluster.shards[
            self.cluster.router.shard_of_points(points)]
        service = self._service(shard)
        sid = service.open(session_id=session_id, hour=hour, holiday=holiday)
        with self._lock:
            self._affinity[sid] = shard.name
        return sid, shard.name

    def append(self, session_id: str, xy, times) -> StreamUpdate:
        """Forward an append to the session's pinned shard (localized)."""
        shard, service = self._resolve(session_id)
        return self._forward(
            session_id,
            lambda: service.append(session_id, self._localize(shard, xy), times))

    def finalize(self, session_id: str) -> RecoveryResponse:
        """Finalize on the pinned shard and release the affinity pin."""
        shard, service = self._resolve(session_id)
        response = self._forward(session_id, lambda: service.finalize(session_id))
        with self._lock:
            self._affinity.pop(session_id, None)
        return response

    # ------------------------------------------------------------------
    def evictions(self) -> List[Dict[str, Any]]:
        """Eviction records across all shards, each stamped with its shard."""
        records: List[Dict[str, Any]] = []
        for name, service in self._snapshot_services():
            for record in service.evictions():
                records.append({**record, "shard": name})
        return records

    def stats(self) -> Dict[str, Any]:
        """Per-shard streaming stats plus the affinity-table gauge."""
        with self._lock:
            pinned = len(self._affinity)
        return {
            "pinned_sessions": pinned,
            "shards": {name: service.stats()
                       for name, service in self._snapshot_services()},
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
                shard.warm()
                config = self._config or StreamConfig.from_serve(
                    shard.serve_config())
                kwargs = {"clock": self._clock} if self._clock else {}
                service = StreamingRecoveryService(
                    shard.registry, config, shard=shard.name,
                    scheduler=shard.decode_scheduler(), **kwargs)
                self._services[shard.name] = service
            return service

    def _resolve(self, session_id: str) -> Tuple[Shard, StreamingRecoveryService]:
        with self._lock:
            name = self._affinity.get(session_id)
            service = self._services.get(name) if name else None
        if name is None or service is None:
            raise UnknownSession(session_id)
        return self.cluster.shard(name), service

    def _forward(self, session_id: str, call):
        """Run a pinned-shard call; if the shard's store no longer knows
        the session (TTL/LRU eviction), drop the stale pin too."""
        try:
            return call()
        except UnknownSession:
            with self._lock:
                self._affinity.pop(session_id, None)
            raise

    @staticmethod
    def _localize(shard: Shard, xy) -> np.ndarray:
        """Global-frame points into the shard's city frame (same translation
        as ``Shard.localize`` applies to one-shot requests)."""
        points = np.asarray(xy, dtype=np.float64)
        ox, oy = shard.spec.origin
        if ox == 0.0 and oy == 0.0:
            return points
        return points - np.array([ox, oy])

    def _snapshot_services(self) -> List[Tuple[str, StreamingRecoveryService]]:
        with self._lock:
            return sorted(self._services.items())
