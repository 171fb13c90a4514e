"""``repro.stream`` — sessionized incremental trajectory recovery.

The serving layers answer one-shot questions: a complete low-sample trace
in, a recovered ε_ρ trajectory out.  This package serves the *online*
shape of the same problem — a device streaming fixes one (or a few) at a
time while the trip is still underway:

* :class:`SessionStore` (``session.py``) — bounded per-session state:
  TTL expiry, LRU eviction under capacity pressure, 429-style
  :class:`SessionOverloaded` backpressure, and an eviction-record ring;
* ``engine.py`` — per-append split decode: the new fixes' Eq. 16 entries
  memoized on the session and handed to one-shot ``assemble_sample``,
  and one decode job per append covering only the suffix behind the
  commit horizon, resumed from the carry checkpointed at the commit
  boundary;
* :class:`StreamingRecoveryService` (``service.py``) — the
  open → append* → finalize facade on a borrowed
  :class:`~repro.serve.RecoveryService` (its registry, ingest grid and
  decode slots), with its own telemetry (streaming traffic, per-model-tag
  revision rates);
* :class:`StreamingCluster` (``affinity.py``) — session→shard affinity
  over a :class:`~repro.cluster.RecoveryCluster`.

Correctness anchor (``tests/test_stream.py``): ``finalize()`` after N
appends returns exactly what one-shot ``recover()`` returns for the same
N points, and an append re-decodes at most the commit horizon plus the
grid steps its fixes added.  See ``docs/streaming.md`` for the session
model and operator runbook; the perf ledger's ``stream-mixed`` workload
measures what an append costs.
"""

from .engine import DecodeOutcome
from .service import StreamingRecoveryService, StreamUpdate
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
