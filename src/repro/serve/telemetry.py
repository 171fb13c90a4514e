"""Serving telemetry: request, latency and cache counters.

Everything is in-process and lock-protected; :meth:`ServingTelemetry.stats`
returns a plain dict so callers (CLI, HTTP endpoint, benchmarks) can dump
it as JSON without further massaging.  Latencies live in a bounded
reservoir — the newest ``reservoir`` observations — which keeps the p50/p95
estimates fresh under sustained load without unbounded memory.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List

from .. import profile


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


class ServingTelemetry:
    """Counters behind ``RecoveryService.stats()``."""

    def __init__(self, reservoir: int = 4096) -> None:
        self._lock = threading.Lock()
        self._start = time.perf_counter()
        self._latencies: Deque[float] = deque(maxlen=reservoir)
        self.requests = 0
        self.cache_hits = 0
        self.errors = 0
        # Requests served per model generation tag ("name#generation") —
        # makes hot swaps observable: after a swap the new tag's count
        # starts climbing while the old one freezes.
        self.requests_by_model: Dict[str, int] = {}
        # Streaming traffic (repro.stream session appends/finalizes) kept
        # apart from one-shot traffic, plus how often an append *revised*
        # previously streamed output — per model tag, so an operator can
        # compare revision rates across a rollout.
        self.streaming_requests = 0
        self.streaming_by_model: Dict[str, int] = {}
        self.revisions_by_model: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def record_request(self, latency_seconds: float, cache_hit: bool,
                       model_tag: str = "", streaming: bool = False,
                       revised: bool = False) -> None:
        with self._lock:
            self.requests += 1
            if cache_hit:
                self.cache_hits += 1
            if model_tag:
                self.requests_by_model[model_tag] = (
                    self.requests_by_model.get(model_tag, 0) + 1)
            if streaming:
                self.streaming_requests += 1
                if model_tag:
                    self.streaming_by_model[model_tag] = (
                        self.streaming_by_model.get(model_tag, 0) + 1)
                    if revised:
                        self.revisions_by_model[model_tag] = (
                            self.revisions_by_model.get(model_tag, 0) + 1)
            self._latencies.append(latency_seconds)

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    # ------------------------------------------------------------------
    def latencies(self) -> List[float]:
        """Snapshot of the latency reservoir (seconds) — lets a cluster
        roll true percentiles up across shards instead of averaging
        per-shard percentiles."""
        with self._lock:
            return list(self._latencies)

    def stats(self) -> Dict[str, float]:
        # Sampled outside the lock: a /proc read, not a counter.  Memory
        # is process-wide, so every telemetry in one process reports the
        # same figure; a cluster's own ``memory`` block is the one to read.
        memory = profile.memory_snapshot()
        with self._lock:
            elapsed = max(time.perf_counter() - self._start, 1e-9)
            latencies = sorted(self._latencies)
            cache_hit_rate = self.cache_hits / self.requests if self.requests else 0.0
            return {
                "rss_mb": memory["rss_mb"],
                "peak_rss_mb": memory["peak_rss_mb"],
                "requests": self.requests,
                "errors": self.errors,
                "uptime_seconds": round(elapsed, 3),
                "qps": round(self.requests / elapsed, 3),
                "latency_ms_p50": round(1000.0 * percentile(latencies, 0.50), 3),
                "latency_ms_p95": round(1000.0 * percentile(latencies, 0.95), 3),
                "latency_ms_max": round(1000.0 * (latencies[-1] if latencies else 0.0), 3),
                "cache_hits": self.cache_hits,
                "cache_hit_rate": round(cache_hit_rate, 4),
                "requests_by_model": dict(sorted(self.requests_by_model.items())),
                "streaming_requests": self.streaming_requests,
                "oneshot_requests": self.requests - self.streaming_requests,
                "streaming_by_model": dict(sorted(self.streaming_by_model.items())),
                "revisions_by_model": dict(sorted(self.revisions_by_model.items())),
                "revision_rate_by_model": {
                    tag: round(self.revisions_by_model.get(tag, 0) / count, 4)
                    for tag, count in sorted(self.streaming_by_model.items())
                    if count
                },
            }


def rollup(rows: Iterable[Dict[str, Any]],
           latencies: Iterable[float]) -> Dict[str, Any]:
    """One aggregate block over per-shard :meth:`ServingTelemetry.stats`
    rows and their pooled latency observations (seconds).

    The percentiles are taken over the pooled observations, not averaged
    across rows; rows without counters (a shard that never warmed)
    contribute zeros.
    """
    requests = cache_hits = errors = 0
    by_model: Dict[str, int] = {}
    for row in rows:
        requests += row.get("requests", 0)
        cache_hits += row.get("cache_hits", 0)
        errors += row.get("errors", 0)
        for tag, count in row.get("requests_by_model", {}).items():
            by_model[tag] = by_model.get(tag, 0) + count
    ordered = sorted(latencies)
    return {
        "requests": requests,
        "cache_hits": cache_hits,
        "cache_hit_rate": round(cache_hits / requests, 4) if requests else 0.0,
        "errors": errors,
        "requests_by_model": dict(sorted(by_model.items())),
        "latency_ms_p50": round(1000.0 * percentile(ordered, 0.50), 3),
        "latency_ms_p99": round(1000.0 * percentile(ordered, 0.99), 3),
    }
