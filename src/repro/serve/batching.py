"""Continuous-batching scheduler: the one decode path of the serving layer.

Every request — one-shot or a streaming suffix decode — is admitted into
a slot of one :class:`~repro.serve.engine.ContinuousEngine` and advances
one greedy step per kernel sweep next to everything else in flight.

The worker thread owns all scheduling state; callers interact only through
``submit`` / ``submit_job`` (each returns a ``concurrent.futures.Future``),
``flush`` and ``close``.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future
from typing import Any, Callable, Dict, List, Optional, Tuple


class ContinuousScheduler:
    """Continuous-batching scheduler over a :class:`ContinuousEngine`.

    The worker thread admits queued work into free slots before *every*
    kernel sweep, steps all in-flight sequences once, and resolves each
    retiring slot's future the moment its own sequence finishes.  Futures
    are keyed by slot, not by submission position — completion order is
    independent of admission order, so a short request spliced in late
    resolves before an earlier long one without any cross-wiring of
    results.

    Two front doors share the same slot table:

    * ``submit(item)`` — the one-shot path; ``prepare(item)`` builds the
      :class:`DecodeJob` on the worker thread (encode + constraint), and
      ``finish(item, result)`` shapes the resolved value.
    * ``submit_job(job)`` — the streaming path; a session has already
      built its job (:func:`~repro.serve.engine.build_job` from a carry
      checkpoint for an append's suffix, from step 0 for ``finalize``), so
      it joins the ragged batch as-is and the future resolves to the raw
      :class:`DecodeResult`.

    Everything — admission, prepare, sweeps, resolution — runs on the one
    worker thread by design.  A disaggregated-admission variant (prepare
    on its own thread, vLLM prefill/decode style) was measured and
    rejected: at this model scale both threads are GIL-bound, so overlap
    buys nothing, and removing the prepare-rate admission throttle lets a
    noise burst flood the slot table and melt down tail latency.  The
    single thread keeps admission naturally paced at one prepare per
    sweep round.

    ``on_step`` receives the slot occupancy of every kernel sweep.
    """

    def __init__(
        self,
        prepare: Callable[[Any], "DecodeJob"],
        finish: Optional[Callable[[Any, "DecodeResult"], Any]] = None,
        max_slots: int = 16,
        on_step: Optional[Callable[[int], None]] = None,
    ) -> None:
        from .engine import ContinuousEngine  # avoid import cycle at module load

        self._prepare = prepare
        self._finish = finish or (lambda item, result: result)
        self._on_step = on_step
        self.engine = ContinuousEngine(max_slots)
        self._cond = threading.Condition()
        # queue entries: (is_job, payload, future); _inflight: slot -> entry
        self._queue: List[Tuple[bool, Any, Future]] = []
        self._inflight: Dict[int, Tuple[bool, Any, Future]] = {}
        # Hidden-dim conflicts park here: (is_job, payload, future, job).
        # The future is already RUNNING and the job already prepared, so a
        # retry re-attempts only ``engine.admit`` — no second
        # set_running_or_notify_cancel, no repeated encode.  Only the
        # worker mutates this list (under the lock, so ``pending`` /
        # ``flush`` see a consistent view).
        self._deferred: List[Tuple[bool, Any, Future, Any]] = []
        self._closed = False
        self._drop = False  # close(drain=False): abandon in-flight slots too
        self._worker = threading.Thread(target=self._loop, daemon=True,
                                        name="continuous-scheduler")
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(self, item: Any) -> Future:
        """Enqueue one request; resolves to ``finish(item, result)``."""
        return self._enqueue(False, item)

    def submit_job(self, job: Any) -> Future:
        """Enqueue a pre-built :class:`DecodeJob` (streaming session
        decodes join here); resolves to its :class:`DecodeResult`."""
        return self._enqueue(True, job)

    def _enqueue(self, is_job: bool, payload: Any) -> Future:
        future: Future = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError("ContinuousScheduler is closed")
            self._queue.append((is_job, payload, future))
            self._cond.notify_all()
        return future

    def flush(self) -> None:
        """Block until everything pending at call time has completed.

        The engine never idles while work exists (there is no coalescing
        window), so flushing is purely waiting on a snapshot — sustained
        traffic cannot keep it blocked forever.
        """
        with self._cond:
            snapshot = [future for _, _, future in self._queue]
            snapshot.extend(future for _, _, future, _ in self._deferred)
            snapshot.extend(future for _, _, future in self._inflight.values())
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
                abandoned = [future for _, _, future in self._queue]
                self._queue.clear()
                self._drop = True
            self._cond.notify_all()
        for future in abandoned:
            if future.set_running_or_notify_cancel():
                future.set_exception(RuntimeError("ContinuousScheduler closed"))
        self._worker.join(timeout=None if drain else 30.0)

    @property
    def pending(self) -> int:
        """Outstanding requests: queued, deferred, plus in flight."""
        with self._cond:
            return (len(self._queue) + len(self._deferred)
                    + len(self._inflight))

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            payload = self.engine.stats()
            payload["queued"] = len(self._queue)
            return payload

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                while (not self._queue and not self._deferred
                       and not self._inflight and not self._closed):
                    self._cond.notify_all()
                    self._cond.wait()
                if self._closed and self._drop:
                    self._abandon_inflight()
                    return
                if (self._closed and not self._queue and not self._deferred
                        and not self._inflight):
                    self._cond.notify_all()
                    return
                # At most ONE admission per round: prepare (encode +
                # constraint build) costs many sweeps' worth of time, so
                # admitting a whole backlog back-to-back would stall every
                # in-flight slot for the duration — exactly the
                # head-of-line blocking this scheduler exists to remove.
                # One prepare between sweeps bounds the stall and keeps
                # admission throughput unchanged (prepare is the
                # bottleneck either way).  A deferred head blocks new
                # admissions outright: it arrived first, and anything
                # admitted around it would push its drain further out.
                admission = None
                if (not self._deferred and self._queue
                        and self.engine.free_slots):
                    admission = self._queue.pop(0)
            # The prepare runs outside the lock — submitters must not
            # block behind it.
            self._retry_deferred()
            self._admit(admission)
            retired = self._sweep()
            self._resolve(retired)

    def _admit(self, entry: Optional[Tuple[bool, Any, Future]]) -> None:
        if entry is None:
            return
        is_job, payload, future = entry
        if not future.set_running_or_notify_cancel():
            return
        try:
            job = payload if is_job else self._prepare(payload)
            slot = self.engine.admit(job)
        except BaseException as exc:
            future.set_exception(exc)
            return
        if slot is None:
            # Hidden-dim conflict: park the *prepared* job until the table
            # drains.  The future stays RUNNING — retries go through
            # _retry_deferred, which never calls
            # set_running_or_notify_cancel or prepare() again.
            with self._cond:
                self._deferred.append((is_job, payload, future, job))
            return
        with self._cond:
            self._inflight[slot] = entry

    def _retry_deferred(self) -> None:
        while True:
            with self._cond:
                if not self._deferred:
                    return
                is_job, payload, future, job = self._deferred[0]
            try:
                slot = self.engine.admit(job)
            except BaseException as exc:
                future.set_exception(exc)
                slot = None
                admitted = False
            else:
                if slot is None:  # table still occupied by the old dim
                    return        # retry after the next sweep retires slots
                admitted = True
            with self._cond:
                self._deferred.pop(0)
                if admitted:
                    self._inflight[slot] = (is_job, payload, future)

    def _sweep(self) -> list:
        occupancy = self.engine.inflight
        if occupancy and self._on_step is not None:
            try:
                self._on_step(occupancy)
            except Exception:
                pass  # a broken metrics hook must never kill the worker
        return self.engine.step()

    def _resolve(self, retired: list) -> None:
        if not retired:
            return
        with self._cond:
            entries = [(self._inflight.pop(r.slot, None), r) for r in retired]
            self._cond.notify_all()
        for entry, retirement in entries:
            if entry is None:
                continue
            is_job, payload, future = entry
            if retirement.error is not None:
                future.set_exception(retirement.error)
                continue
            try:
                value = (retirement.result if is_job
                         else self._finish(payload, retirement.result))
            except BaseException as exc:
                future.set_exception(exc)
                continue
            future.set_result(value)

    def _abandon_inflight(self) -> None:
        """Caller holds the lock; fail every in-flight (and deferred)
        future and exit."""
        for retirement in self.engine.abort():
            entry = self._inflight.pop(retirement.slot, None)
            # In-flight futures were marked running at admission, so only
            # set the exception (set_running_... would raise here).
            if entry is not None and not entry[2].done():
                entry[2].set_exception(
                    RuntimeError("ContinuousScheduler closed"))
        # Deferred futures are running too (they were marked at first
        # admission attempt) — same exception-only treatment.
        for _, _, future, _ in self._deferred:
            if not future.done():
                future.set_exception(
                    RuntimeError("ContinuousScheduler closed"))
        self._deferred.clear()
        self._cond.notify_all()
