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

The worker thread owns all scheduling state; callers interact only through
``submit`` / ``submit_job`` (each returns a ``concurrent.futures.Future``),
``flush`` and ``close``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .telemetry import percentile


class _Entry:
    """One outstanding decode: its fixed ``(due, arrival)`` key, payload,
    future and enqueue time."""

    __slots__ = ("key", "is_job", "payload", "future", "enqueued")

    def __init__(self, key: Tuple[int, int], is_job: bool,
                 payload: Any) -> None:
        self.key = key
        self.is_job = is_job
        self.payload = payload
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

    Two front doors share the same slot table:

    * ``submit(item, steps)`` — the one-shot path; ``steps`` is the
      request's grid length, ``prepare(item)`` builds the
      :class:`DecodeJob` on the worker thread (encode + constraint), and
      ``finish(item, result)`` shapes the resolved value.
    * ``submit_job(job)`` — the streaming path; a session has already
      built its job (:func:`~repro.serve.engine.build_job` from a carry
      checkpoint for an append's suffix, from step 0 for ``finalize``), so
      it is keyed by ``job.num_steps`` and the future resolves to the raw
      :class:`DecodeResult`.

    Everything — admission, prepare, steps, resolution — runs on the one
    worker thread by design.  A disaggregated-admission variant (prepare
    on its own thread, vLLM prefill/decode style) was measured and
    rejected: at this model scale both threads are GIL-bound, so overlap
    buys nothing.
    """

    def __init__(
        self,
        prepare: Callable[[Any], "DecodeJob"],
        finish: Optional[Callable[[Any, "DecodeResult"], Any]] = None,
        max_slots: int = 16,
    ) -> None:
        from .engine import ContinuousEngine  # avoid import cycle at module load

        self._prepare = prepare
        self._finish = finish or (lambda item, result: result)
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
    def submit(self, item: Any, steps: int) -> Future:
        """Enqueue one request of ``steps`` grid steps; resolves to
        ``finish(item, result)``."""
        return self._enqueue(False, item, steps)

    def submit_job(self, job: Any) -> Future:
        """Enqueue a pre-built :class:`DecodeJob` (streaming session
        decodes join here); resolves to its :class:`DecodeResult`."""
        return self._enqueue(True, job, job.num_steps)

    def _enqueue(self, is_job: bool, payload: Any, steps: int) -> Future:
        with self._cond:
            if self._closed:
                raise RuntimeError("ContinuousScheduler is closed")
            entry = _Entry((self.engine.slot_steps + int(steps),
                            next(self._arrivals)), is_job, payload)
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
        try:
            self._rounds()
        finally:
            # The owner's bound prepare/finish hooks close a reference
            # cycle (owner -> scheduler -> owner): dropping them once the
            # worker is gone lets reference counting free a closed owner,
            # its models and road network, without a cyclic-GC pass.
            self._prepare = self._finish = None

    def _rounds(self) -> None:
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
        try:
            job = (entry.payload if entry.is_job
                   else self._prepare(entry.payload))
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
            future = entry.future
            if retirement.error is not None:
                future.set_exception(retirement.error)
                continue
            try:
                value = (retirement.result if entry.is_job
                         else self._finish(entry.payload, retirement.result))
            except BaseException as exc:
                future.set_exception(exc)
                continue
            future.set_result(value)

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
