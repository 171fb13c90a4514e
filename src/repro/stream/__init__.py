"""``repro.stream`` — sessionized incremental trajectory recovery.

The serving layers answer one-shot questions: a complete low-sample trace
in, a recovered ε_ρ trajectory out.  This package serves the *online*
shape of the same problem — a device streaming fixes one (or a few) at a
time while the trip is still underway:

* :class:`SessionStore` (``session.py``) — bounded per-session state:
  TTL expiry, LRU eviction under capacity pressure, 429-style
  :class:`SessionOverloaded` backpressure, and an eviction-record ring;
* :class:`IncrementalEngine` (``engine.py``) — per-append split decode:
  incremental constraint ingest, and one decode job per append covering
  only the suffix behind the commit horizon, resumed from the carry
  checkpointed at the commit boundary;
* :class:`StreamingRecoveryService` (``service.py``) — the
  open → append* → finalize facade, wired through the one-shot serving
  telemetry (streaming vs one-shot traffic, per-model-tag revision rates);
* :class:`StreamingCluster` (``affinity.py``) — session→shard affinity
  over a :class:`~repro.cluster.RecoveryCluster`.

Correctness anchor (``tests/test_stream.py``): ``finalize()`` after N
appends returns exactly what one-shot ``recover()`` returns for the same
N points.  See ``docs/streaming.md`` for the session model and operator
runbook, and ``benchmarks/bench_streaming.py`` for the per-append speedup
over re-decoding from scratch.
"""

from .engine import DecodeOutcome, IncrementalEngine
from .service import StreamConfig, StreamingRecoveryService, StreamUpdate
from .session import (
    SessionOverloaded,
    SessionState,
    SessionStore,
    StoreConfig,
    StreamError,
    UnknownSession,
)
from .affinity import StreamingCluster

__all__ = [
    "DecodeOutcome",
    "IncrementalEngine",
    "StreamConfig",
    "StreamingRecoveryService",
    "StreamUpdate",
    "SessionOverloaded",
    "SessionState",
    "SessionStore",
    "StoreConfig",
    "StreamError",
    "UnknownSession",
    "StreamingCluster",
]
