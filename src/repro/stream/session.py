"""Session state and the bounded :class:`SessionStore`.

A streaming session accumulates GPS fixes over minutes; between appends it
must hold whatever lets the next append avoid re-doing old work: the raw
fixes, the per-fix Eq. 16 constraint entries (ingest state), and the
committed prefix of the recovered trajectory (the incremental decode
state).  Fleets open sessions far faster than they close them — devices
drop offline mid-trip and never ``finalize`` — so the store is **bounded**
on three axes:

* **TTL** — a session idle longer than ``ttl_seconds`` is expired lazily
  (on the next store operation that touches the map);
* **LRU eviction** — at capacity, the least-recently-used session that has
  been idle at least ``evict_idle_seconds`` is evicted to make room;
* **backpressure** — when every resident session is busier than that,
  ``open`` sheds with :class:`SessionOverloaded` (the HTTP layer maps it
  to 429, mirroring the cluster's ``ShardOverloaded``).

Every eviction lands in a bounded ring the operator can read back
(``/session/evictions``), so a device that lost its session can learn why.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np


class StreamError(RuntimeError):
    """Base class for streaming-session failures."""


class SessionOverloaded(StreamError):
    """The session store is at capacity and nothing is idle enough to
    evict (429-style backpressure, mirroring ``ShardOverloaded``)."""

    def __init__(self, capacity: int, evict_idle_seconds: float) -> None:
        super().__init__(
            f"session store overloaded: {capacity} resident session(s), none "
            f"idle >= {evict_idle_seconds:g}s; open shed")
        self.capacity = capacity


class UnknownSession(StreamError):
    """No such session — never opened, expired, evicted, or finalized."""

    def __init__(self, session_id: str) -> None:
        super().__init__(
            f"unknown session {session_id!r} (never opened, expired, "
            "evicted, or already finalized); check /session/evictions")
        self.session_id = session_id


@dataclass
class SessionState:
    """Everything one streaming trajectory carries between appends."""

    session_id: str
    hour: int = 12
    holiday: bool = False
    created: float = 0.0
    last_touch: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # Raw fixes accepted so far (session-local coordinates).
    xy: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # Incremental ingest state: one sparse Eq. 16 entry (ids, weights) per
    # fix, in fix order — the memo one-shot assembly consumes, so each
    # fix's entry is computed once, ever.
    entries: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    # Incremental decode state: the committed prefix (frozen, never
    # re-decoded), the decoder carry checkpointed at the commit boundary
    # (``repro.core.GreedyCarry`` — lets the next append resume decoding
    # mid-sequence instead of from step 0), and the last result streamed
    # to the client (committed prefix + provisional suffix).
    committed: int = 0
    carry: Optional[object] = None
    segments: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    rates: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # True while ``segments`` came from a decode that started at step 0
    # over the *current* fix set under ``model_tag`` — finalize can then
    # return it verbatim instead of re-decoding (it already IS the
    # one-shot result).
    full_decode: bool = False

    appends: int = 0
    revisions: int = 0
    model_tag: str = ""

    @property
    def num_fixes(self) -> int:
        return len(self.times)

    @property
    def last_time(self) -> Optional[float]:
        return float(self.times[-1]) if len(self.times) else None


@dataclass(frozen=True)
class StoreConfig:
    """Bounds of the session store."""

    capacity: int = 256            # max resident sessions
    ttl_seconds: float = 1800.0    # idle lifetime before lazy expiry
    evict_idle_seconds: float = 0.0  # idle time before LRU eviction is legal
    eviction_log: int = 256        # bounded ring of eviction records


class SessionStore:
    """LRU-ordered, TTL-swept, capacity-bounded map of live sessions.

    ``clock`` is injectable (monotonic seconds) so lifecycle tests don't
    sleep.  All map operations are lock-protected; per-session decode work
    serializes on ``SessionState.lock`` *outside* the store lock, so a slow
    decode never blocks unrelated opens/appends.
    """

    def __init__(self, config: Optional[StoreConfig] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or StoreConfig()
        if self.config.capacity < 1:
            raise ValueError("session store capacity must be >= 1")
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: "OrderedDict[str, SessionState]" = OrderedDict()
        self._evictions: Deque[Dict[str, Any]] = deque(
            maxlen=self.config.eviction_log)
        self.opened = 0
        self.finalized = 0
        self.expired_ttl = 0
        self.evicted_lru = 0
        self.shed = 0

    # ------------------------------------------------------------------
    def open(self, session: SessionState) -> SessionState:
        """Admit a new session, expiring/evicting to make room, or shed."""
        with self._lock:
            now = self._clock()
            self._sweep(now)
            if session.session_id in self._sessions:
                raise StreamError(
                    f"session {session.session_id!r} is already open")
            if len(self._sessions) >= self.config.capacity:
                self._evict_lru(now)
            if len(self._sessions) >= self.config.capacity:
                self.shed += 1
                raise SessionOverloaded(self.config.capacity,
                                        self.config.evict_idle_seconds)
            session.created = session.last_touch = now
            self._sessions[session.session_id] = session
            self.opened += 1
            return session

    def get(self, session_id: str) -> SessionState:
        """Look up and touch a session (moves it to the MRU end)."""
        with self._lock:
            self._sweep(self._clock())
            session = self._sessions.get(session_id)
            if session is None:
                raise UnknownSession(session_id)
            session.last_touch = self._clock()
            self._sessions.move_to_end(session_id)
            return session

    def remove(self, session_id: str) -> SessionState:
        """Remove a finalized session (no eviction record: it completed)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                raise UnknownSession(session_id)
            self.finalized += 1
            return session

    # ------------------------------------------------------------------
    def _sweep(self, now: float) -> None:
        """Expire TTL-stale sessions (lock held)."""
        ttl = self.config.ttl_seconds
        stale = [sid for sid, s in self._sessions.items()
                 if now - s.last_touch >= ttl]
        for sid in stale:
            self._record_eviction(self._sessions.pop(sid), "ttl", now)
            self.expired_ttl += 1

    def _evict_lru(self, now: float) -> None:
        """Evict the LRU session idle >= evict_idle_seconds (lock held)."""
        for sid, session in self._sessions.items():  # LRU-first order
            if now - session.last_touch >= self.config.evict_idle_seconds:
                self._record_eviction(self._sessions.pop(sid), "lru", now)
                self.evicted_lru += 1
                return

    def _record_eviction(self, session: SessionState, reason: str,
                         now: float) -> None:
        self._evictions.append({
            "session_id": session.session_id,
            "reason": reason,
            "idle_seconds": round(now - session.last_touch, 3),
            "age_seconds": round(now - session.created, 3),
            "fixes": session.num_fixes,
            "appends": session.appends,
            "revisions": session.revisions,
            "committed_steps": int(session.committed),
        })

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        """Whether the session is resident and not TTL-stale (no sweep: O(1))."""
        with self._lock:
            session = self._sessions.get(session_id)
            return (session is not None and self._clock() - session.last_touch
                    < self.config.ttl_seconds)

    def evictions(self) -> List[Dict[str, Any]]:
        """Recent eviction records, oldest first."""
        with self._lock:
            return list(self._evictions)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "active_sessions": len(self._sessions),
                "capacity": self.config.capacity,
                "opened": self.opened,
                "finalized": self.finalized,
                "expired_ttl": self.expired_ttl,
                "evicted_lru": self.evicted_lru,
                "shed": self.shed,
            }
