"""Cluster-level counters: routing, shedding, dead letters.

Per-shard serving metrics (latency reservoirs, cache hits,
per-model-generation request counts) live in each shard's
:class:`repro.serve.ServingTelemetry`, slot-table occupancy in its
service's scheduler; this module only tracks what no shard can see —
routing decisions, overload sheds, and the bounded dead-letter ring of
traces the cluster refused.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List

#: Refused traces ``dead_letters()`` keeps, newest last.
DEAD_LETTER_CAPACITY = 256


class ClusterTelemetry:
    """Counters behind ``RecoveryCluster.stats()`` and ``dead_letters()``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._start = time.perf_counter()
        self.routed: Dict[str, int] = {}
        self.shed: Dict[str, int] = {}
        self.unroutable: Dict[str, int] = {"outside": 0, "straddle": 0}
        self.errors = 0
        self._dead: Deque[Dict[str, Any]] = deque(maxlen=DEAD_LETTER_CAPACITY)

    # ------------------------------------------------------------------
    def record_routed(self, shard: str) -> None:
        with self._lock:
            self.routed[shard] = self.routed.get(shard, 0) + 1

    def record_shed(self, shard: str, request_id: str, detail: str) -> None:
        with self._lock:
            self.shed[shard] = self.shed.get(shard, 0) + 1
            self._dead.append({"request_id": request_id, "reason": "shed",
                               "shard": shard, "detail": detail})

    def record_unroutable(self, reason: str, request_id: str, detail: str) -> None:
        with self._lock:
            self.unroutable[reason] = self.unroutable.get(reason, 0) + 1
            self._dead.append({"request_id": request_id, "reason": reason,
                               "shard": "", "detail": detail})

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    # ------------------------------------------------------------------
    def dead_letters(self) -> List[Dict[str, Any]]:
        """Newest-last snapshot of refused traces (bounded ring)."""
        with self._lock:
            return list(self._dead)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            routed = sum(self.routed.values())
            shed = sum(self.shed.values())
            unroutable = sum(self.unroutable.values())
            elapsed = max(time.perf_counter() - self._start, 1e-9)
            return {
                "uptime_seconds": round(elapsed, 3),
                "routed": routed,
                "routed_by_shard": dict(sorted(self.routed.items())),
                "shed": shed,
                "shed_by_shard": dict(sorted(self.shed.items())),
                "unroutable": unroutable,
                "unroutable_by_reason": dict(self.unroutable),
                "errors": self.errors,
                "dead_letters": len(self._dead),
            }
