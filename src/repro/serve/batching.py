"""Decode scheduler: the one decode path of the serving layer.

Every request — one-shot or a streaming suffix decode — is admitted into
a slot of one :class:`~repro.serve.engine.ContinuousEngine`.  A decode's
length is known before anything is encoded (l_ρ = duration/ε_ρ grid
steps), so the scheduler serves *earliest solo finish first*: each entry
is keyed at enqueue by ``due = clock + its own grid steps`` (the clock is
the engine's executed-step counter), and every worker round steps only
the in-flight slot with the smallest key.  A preempted decode simply
stays in its slot — carry, keys and output buffers — while a shorter one
runs.

The worker thread owns all scheduling state and builds every decode job;
callers interact only through ``submit`` (returns a
``concurrent.futures.Future``), ``flush`` and ``close``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .. import profile
from .telemetry import percentile


class _Entry:
    """One outstanding decode: its fixed ``(due, arrival)`` key, the
    closure that builds its job, future and enqueue time."""

    __slots__ = ("key", "prepare", "future", "enqueued")

    def __init__(self, key: Tuple[int, int],
                 prepare: Callable[[], Any]) -> None:
        self.key = key
        self.prepare: Optional[Callable[[], Any]] = prepare
        self.future: Future = Future()
        self.enqueued = time.perf_counter()

    def __lt__(self, other: "_Entry") -> bool:
        return self.key < other.key


class ContinuousScheduler:
    """Earliest-solo-finish-first scheduler over a :class:`ContinuousEngine`.

    In exact mode every slot is stepped at batch-of-1 (no cross-slot GEMM,
    by the bit-identity contract), so advancing all slots side by side is
    processor sharing with no batching benefit: every decode of a burst
    finishes near the end of the burst's total work.  Instead each entry
    gets a fixed key at enqueue — ``due = engine.slot_steps + steps``,
    ties by arrival — and each worker round

    a. admits the queued entry with the smallest key (at most one
       ``prepare`` per round), but only if a slot is free and its key is
       smaller than every in-flight key (or nothing is in flight) — an
       entry is prepared when it is about to run, not ahead of need;
    b. advances **only** the in-flight slot with the smallest key by one
       greedy step, and resolves its future the moment it retires.

    The key is knob-free and starvation-free: an entry enqueued at clock
    ``c`` with ``S`` steps can only be overtaken by entries that arrive
    before the clock reaches ``c + S`` — requests whose solo finish would
    have preceded its own; every later arrival sorts behind it.  A slot
    still replays the exact op sequence of a solo decode; only the order
    of steps across slots changes.

    One front door, ``submit(steps, prepare)``: ``steps`` is the
    decode's grid length, known before anything is built, and
    ``prepare()`` builds its :class:`DecodeJob` at admission, on the
    worker thread (:func:`~repro.serve.engine.build_job` — encode,
    constraint and, for a one-shot request, the Eq. 16 assembly).  The
    future resolves to the raw :class:`DecodeResult`.  A one-shot request
    and a streaming session's suffix decode or ``finalize`` differ only
    in the closure they pass.

    Everything — admission, prepare, steps, resolution — runs on the one
    worker thread by design, so a caller only validates and enqueues and
    never competes with the running decode for the interpreter lock:
    building the constraint on the callers' threads made the perf
    ledger's ``metro-burst`` load generator run late (traced
    ``client.lateness_p95_ms`` 13.8 ms on 2 vCPUs, against 1.8 ms once
    the work moved here).  A disaggregated-admission variant (prepare on its own
    thread, vLLM prefill/decode style) was measured and rejected: at this
    model scale both threads are GIL-bound, so overlap buys nothing.
    """

    def __init__(self, max_slots: int = 16) -> None:
        from .engine import ContinuousEngine  # avoid import cycle at module load

        self.engine = ContinuousEngine(max_slots)
        self._cond = threading.Condition()
        self._arrivals = itertools.count()
        self._queue: List[_Entry] = []          # heap on _Entry.key
        self._inflight: Dict[int, _Entry] = {}  # slot -> entry
        # The in-flight slot with the smallest key — the only one stepped.
        # Worker-owned; reselected only when a slot is admitted or retired.
        self._running: Optional[int] = None
        self._queue_waits: Deque[float] = deque(maxlen=1024)
        self._preemptions = 0
        self._closed = False
        self._drop = False  # close(drain=False): abandon in-flight slots too
        self._worker = threading.Thread(target=self._loop, daemon=True,
                                        name="continuous-scheduler")
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(self, steps: int, prepare: Callable[[], Any]) -> Future:
        """Enqueue one decode of ``steps`` grid steps whose job
        ``prepare()`` builds on the worker at admission; resolves to its
        :class:`DecodeResult`."""
        with self._cond:
            if self._closed:
                raise RuntimeError("ContinuousScheduler is closed")
            entry = _Entry((self.engine.slot_steps + int(steps),
                            next(self._arrivals)), prepare)
            heapq.heappush(self._queue, entry)
            self._cond.notify_all()
        return entry.future

    def flush(self) -> None:
        """Block until everything pending at call time has completed.

        The engine never idles while work exists (there is no coalescing
        window) and no entry can be overtaken forever, so flushing is
        purely waiting on a snapshot — sustained traffic cannot keep it
        blocked forever.
        """
        with self._cond:
            snapshot = [entry.future for entry in self._queue]
            snapshot.extend(entry.future for entry in self._inflight.values())
        for future in snapshot:
            try:
                future.exception()
            except CancelledError:
                pass

    def close(self, drain: bool = True) -> None:
        """Stop the worker; ``drain`` finishes queued + in-flight decodes
        first, otherwise they fail with ``RuntimeError``."""
        abandoned: List[Future] = []
        with self._cond:
            self._closed = True
            if not drain:
                abandoned = [entry.future for entry in self._queue]
                self._queue.clear()
                self._drop = True
            self._cond.notify_all()
        for future in abandoned:
            if future.set_running_or_notify_cancel():
                future.set_exception(RuntimeError("ContinuousScheduler closed"))
        self._worker.join(timeout=None if drain else 30.0)

    @property
    def pending(self) -> int:
        """Outstanding requests: queued plus in flight."""
        with self._cond:
            return len(self._queue) + len(self._inflight)

    def stats(self) -> Dict[str, Any]:
        """Engine counters plus the queue's view: ``queue_wait_ms_*`` is
        enqueue → taken up for admission over the last 1024 admissions,
        ``preemptions`` counts admissions made while another decode was
        in flight."""
        with self._cond:
            payload = self.engine.stats()
            payload["queued"] = len(self._queue)
            payload["preemptions"] = self._preemptions
            waits = sorted(self._queue_waits)
        payload["queue_wait_ms_p50"] = round(1e3 * percentile(waits, 0.50), 3)
        payload["queue_wait_ms_p95"] = round(1e3 * percentile(waits, 0.95), 3)
        return payload

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                while (not self._queue and not self._inflight
                       and not self._closed):
                    self._cond.notify_all()
                    self._cond.wait()
                if self._closed and self._drop:
                    self._abandon_inflight()
                    return
                if self._closed and not self._queue and not self._inflight:
                    self._cond.notify_all()
                    return
                # At most ONE admission per round, and only of an entry
                # that is about to run: prepare (encode + constraint
                # build) costs many steps' worth of time, so preparing a
                # backlog ahead of need would stall the running decode
                # and hold constraint tensors nobody reads yet.
                admission = None
                if (self._queue and self.engine.free_slots
                        and (self._running is None
                             or self._queue[0] < self._inflight[self._running])):
                    admission = heapq.heappop(self._queue)
                    self._queue_waits.append(
                        time.perf_counter() - admission.enqueued)
            # The prepare runs outside the lock — submitters must not
            # block behind it.
            if admission is not None:
                self._admit(admission)
            if self._running is not None:
                self._resolve(self.engine.step((self._running,)))

    def _reselect(self) -> None:
        self._running = (min(self._inflight, key=self._inflight.__getitem__)
                         if self._inflight else None)

    def _admit(self, entry: _Entry) -> None:
        future = entry.future
        if not future.set_running_or_notify_cancel():
            return
        # The closure holds the request and its model; the slot holds the
        # built job from here on.
        prepare, entry.prepare = entry.prepare, None
        try:
            with profile.section("serve.admit"):
                job = prepare()
            slot = self.engine.admit(job)
        except BaseException as exc:
            future.set_exception(exc)
            return
        with self._cond:
            if self._inflight:
                self._preemptions += 1
            self._inflight[slot] = entry
            self._reselect()

    def _resolve(self, retired: list) -> None:
        if not retired:
            return
        with self._cond:
            entries = [(self._inflight.pop(r.slot, None), r) for r in retired]
            self._reselect()
            self._cond.notify_all()
        for entry, retirement in entries:
            if entry is None:
                continue
            if retirement.error is not None:
                entry.future.set_exception(retirement.error)
            else:
                entry.future.set_result(retirement.result)

    def _abandon_inflight(self) -> None:
        """Caller holds the lock; fail every in-flight future and exit."""
        for retirement in self.engine.abort():
            entry = self._inflight.pop(retirement.slot, None)
            # In-flight futures were marked running at admission, so only
            # set the exception (set_running_... would raise here).
            if entry is not None and not entry.future.done():
                entry.future.set_exception(
                    RuntimeError("ContinuousScheduler closed"))
        self._cond.notify_all()
