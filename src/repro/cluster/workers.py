"""Process-based replica workers: decode throughput past the GIL.

An in-process shard is one :class:`~repro.serve.RecoveryService`: its
kernel sweep runs under one interpreter lock, and more scheduler threads
would only interleave decodes (4 thread replicas once measured 0.91x the
QPS of one — a GIL convoy).  This module runs a shard's replicas as
long-lived **worker processes** instead:

* each worker builds its serving stack (registry, continuous scheduler)
  *fresh after fork*, so no thread or lock state crosses the process
  boundary; the result cache stays in the parent, in front of the pool
  (:class:`~repro.cluster.shard.Shard`), so a hit never crosses the pipe;
* workers warm from the same ``CityArtifacts`` directory via
  ``CityArtifacts.load(mmap=True)`` — N processes mapping one archive
  share a single physical copy of the city through the page cache, so
  the memory story of PR 9 survives the move out-of-process (without
  artifacts, the fork itself shares the parent's warmed network and
  model arrays copy-on-write);
* requests and responses cross a ``multiprocessing`` pipe as
  **raw-numpy frames** — a one-byte kind tag, a fixed ``struct`` header
  and the arrays' own bytes; city state never crosses the pipe.
  Control traffic (ping / deploy / swap / close) is pickled, slower per
  message than the raw codec but off the hot path.

Lifecycle is the point, not an afterthought: a worker that dies
mid-request fails or retries exactly the futures it owned (typed
:class:`WorkerCrashed` / :class:`WorkerTimeout`, one sibling retry per
request), is respawned with its deploy/swap history replayed, and a pool
that keeps crashing degrades (:class:`BackendDegraded`) instead of
respawn-looping.  ``close(drain=True)`` lets queued work finish first.

The pool is deliberately *dumb about placement*: admission control,
shedding and round-robin stay in :class:`~repro.cluster.shard.Shard`,
which reaches it through :class:`ProcessReplicas` — the process form of
the replica surface described in :mod:`repro.cluster.replicas`.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import struct
import threading
import time
import traceback
from array import array
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any, Callable, Dict, List, Optional, Tuple

import multiprocessing as mp

import numpy as np

from ..core.model import ModelSnapshot
from ..profile import proc_rss_mb
from ..roadnet.artifacts import CityArtifacts
from ..serve.registry import ModelRegistry
from ..serve.request import RecoveryRequest, RecoveryResponse, RequestError
from ..serve.service import RecoveryService, ServeConfig
from ..serve.telemetry import ServingTelemetry
from ..trajectory.trajectory import MatchedTrajectory
from .replicas import deploy_generation
from .shardmap import ShardSpec

#: worker_factory() -> RecoveryService, called once inside the forked child.
WorkerFactory = Callable[[], RecoveryService]


class WorkerError(RuntimeError):
    """Base class for process-backend failures."""


class WorkerCrashed(WorkerError):
    """A worker process died while owning this request or control call."""


class WorkerTimeout(WorkerError):
    """A request exceeded the pool's ``request_timeout``; the wedged
    worker was killed and respawned, and this future failed typed."""


class BackendDegraded(WorkerError):
    """The pool exhausted its respawn budget and refuses new work.

    Raised on submit instead of silently respawn-looping a worker that
    crashes deterministically (bad artifact dir, poisoned deploy); the
    shard stays up and reports ``degraded`` in stats so an operator can
    swap the backend or fix the cause and restart.
    """


class StreamingUnsupported(WorkerError):
    """Streaming sessions were asked of a process-backed shard.

    A session runs on its shard's in-process ``RecoveryService``, and a
    process backend's services live in its workers — so sessions need
    ``backend="inproc"``; there is no solo-decode fallback.
    """


# ----------------------------------------------------------------------
# Wire format: one-byte kind + struct header + raw array bytes.
# ----------------------------------------------------------------------
_REQUEST = 0x01   # parent -> worker: seq + one RecoveryRequest
_RESPONSE = 0x02  # worker -> parent: seq + one recovered trajectory
_ERROR = 0x03     # worker -> parent: seq + typed request failure
_CONTROL = 0x04   # parent -> worker: pickled (seq, op, payload)
_ACK = 0x05       # worker -> parent: pickled (seq, result_dict)

_REQ_HEADER = struct.Struct("<BQIiBH")      # kind, seq, n, hour, holiday, rid_len
_RESP_HEADER = struct.Struct("<BQIBHHH")    # kind, seq, n, cached, rid/model/tag lens


def _float64s(values, pairs: bool):
    """``values`` as native float64s with ``tobytes()``: an array as one,
    the shard's float lists (pairs of floats for ``xy``) packed directly."""
    if isinstance(values, np.ndarray):
        return np.ascontiguousarray(values, dtype=np.float64)
    return array("d", itertools.chain.from_iterable(values) if pairs else values)


def encode_request(seq: int, request: RecoveryRequest) -> bytes:
    """seq + request as one raw frame (no pickle on the hot path)."""
    xy = _float64s(request.xy, pairs=True)
    times = _float64s(request.times, pairs=False)
    rid = request.request_id.encode("utf-8")
    header = _REQ_HEADER.pack(_REQUEST, seq, len(times), int(request.hour),
                              1 if request.holiday else 0, len(rid))
    return b"".join((header, rid, xy.tobytes(), times.tobytes()))


def decode_request(frame: bytes) -> Tuple[int, RecoveryRequest]:
    _, seq, n, hour, holiday, rid_len = _REQ_HEADER.unpack_from(frame)
    offset = _REQ_HEADER.size
    rid = frame[offset:offset + rid_len].decode("utf-8")
    offset += rid_len
    xy = np.frombuffer(frame, dtype=np.float64, count=2 * n,
                       offset=offset).reshape(n, 2)
    offset += 16 * n
    times = np.frombuffer(frame, dtype=np.float64, count=n, offset=offset)
    return seq, RecoveryRequest(xy=xy, times=times, hour=hour,
                                holiday=bool(holiday), request_id=rid)


def encode_response(seq: int, response: RecoveryResponse) -> bytes:
    trajectory = response.trajectory
    segments = np.ascontiguousarray(trajectory.segments, dtype=np.int64)
    ratios = np.ascontiguousarray(trajectory.ratios, dtype=np.float64)
    times = np.ascontiguousarray(trajectory.times, dtype=np.float64)
    rid = response.request_id.encode("utf-8")
    model = response.model.encode("utf-8")
    tag = response.model_tag.encode("utf-8")
    header = _RESP_HEADER.pack(_RESPONSE, seq, len(segments),
                               1 if response.cached else 0,
                               len(rid), len(model), len(tag))
    return b"".join((header, rid, model, tag,
                     segments.tobytes(), ratios.tobytes(), times.tobytes()))


def decode_response(frame: bytes, shard: str,
                    latency_ms: float) -> Tuple[int, RecoveryResponse]:
    """Rebuild the response; ``latency_ms`` is the parent-observed span
    (submit → frame decoded), which is what the cluster actually serves."""
    _, seq, n, cached, rid_len, model_len, tag_len = _RESP_HEADER.unpack_from(frame)
    offset = _RESP_HEADER.size
    rid = frame[offset:offset + rid_len].decode("utf-8")
    offset += rid_len
    model = frame[offset:offset + model_len].decode("utf-8")
    offset += model_len
    tag = frame[offset:offset + tag_len].decode("utf-8")
    offset += tag_len
    segments = np.frombuffer(frame, dtype=np.int64, count=n, offset=offset).copy()
    offset += 8 * n
    ratios = np.frombuffer(frame, dtype=np.float64, count=n, offset=offset).copy()
    offset += 8 * n
    times = np.frombuffer(frame, dtype=np.float64, count=n, offset=offset).copy()
    response = RecoveryResponse(
        request_id=rid, trajectory=MatchedTrajectory(segments, ratios, times),
        cached=bool(cached), latency_ms=latency_ms, model=model,
        model_tag=tag, shard=shard)
    return seq, response


def _encode_error(seq: int, exc: Exception) -> bytes:
    return bytes([_ERROR]) + pickle.dumps(
        (seq, type(exc).__name__, str(exc)), protocol=pickle.HIGHEST_PROTOCOL)


def _encode_control(seq: int, op: str, payload: Any) -> bytes:
    return bytes([_CONTROL]) + pickle.dumps(
        (seq, op, payload), protocol=pickle.HIGHEST_PROTOCOL)


def _encode_ack(seq: int, result: Dict[str, Any]) -> bytes:
    return bytes([_ACK]) + pickle.dumps(
        (seq, result), protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def _model_payload(name: str, model_or_prefix, activate: bool) -> Dict[str, Any]:
    """What crosses the process boundary for one model generation: a
    bundle prefix (workers read it from disk) or the model's
    :class:`ModelSnapshot` (workers rebuild the model around its arrays).
    Never the network or grid."""
    source = (model_or_prefix if isinstance(model_or_prefix, str)
              else ModelSnapshot.of(model_or_prefix))
    return {"name": name, "activate": activate, "source": source}


def _service_factory(label: str, registry: ModelRegistry, config: ServeConfig,
                     artifact_path: Optional[str]) -> WorkerFactory:
    """The closure each worker process runs post-fork to build its
    serving stack from scratch (fresh locks, fresh scheduler thread).

    With an artifact path the child is fully independent: it mmap-loads
    the same frozen city, so N workers share one physical copy via the
    page cache.  Without one, the closure captures the parent's warmed
    network and a snapshot of the active model — fork shares those pages
    copy-on-write, and the child only rebuilds the cheap object shell
    around them.
    """
    if artifact_path:

        def factory() -> RecoveryService:
            artifacts = CityArtifacts.load(artifact_path, mmap=True)
            worker_registry = ModelRegistry(artifacts=artifacts)
            worker_registry.register_artifact_model("default", activate=True)
            return RecoveryService(worker_registry, config, shard=label)

        return factory

    network = registry.network
    snapshot = ModelSnapshot.of(registry.active_ref()[2])

    def factory() -> RecoveryService:
        worker_registry = ModelRegistry(network)
        worker_registry.add_loaded("default", snapshot.build(network), activate=True)
        return RecoveryService(worker_registry, config, shard=label)

    return factory


def _worker_main(conn, factory: WorkerFactory) -> None:
    """The worker process: warm once, then a synchronous recv→serve→send
    loop.  One request decodes at a time, so a swap applied between two
    requests is atomic — no request is ever served by a half-swapped
    worker — and parallelism comes from running N workers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns shutdown
    # The front door turns SIGTERM into an unwinding exit and fork copies
    # that handler; a worker told to terminate must simply die.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        service = factory()
    except Exception:
        traceback.print_exc()
        conn.close()
        return
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                break
            kind = frame[0]
            if kind == _REQUEST:
                seq, request = decode_request(frame)
                try:
                    response = service.recover(request)
                except Exception as exc:
                    reply = _encode_error(seq, exc)
                else:
                    reply = encode_response(seq, response)
                try:
                    conn.send_bytes(reply)
                except (BrokenPipeError, OSError):
                    break
            elif kind == _CONTROL:
                seq, op, payload = pickle.loads(frame[1:])
                try:
                    if op == "ping":
                        result = {"pid": os.getpid()}
                    elif op == "deploy":
                        # The parent runs the same registry ops in lockstep
                        # (without loading), so generation tags agree.
                        source = payload["source"]
                        if isinstance(source, ModelSnapshot):
                            source = source.build(service.registry.network)
                        deploy_generation(service.registry, payload["name"],
                                          source, payload["activate"])
                        result = {}
                    elif op == "swap":
                        service.swap_model(payload)
                        result = {}
                    elif op == "close":
                        result = {"pid": os.getpid()}
                    else:
                        raise ValueError(f"unknown control op {op!r}")
                    if op != "close":
                        name, tag = service.registry.active_tag()
                        result.update({"model": name, "model_tag": tag})
                except Exception as exc:
                    result = {"error": f"{type(exc).__name__}: {exc}"}
                try:
                    conn.send_bytes(_encode_ack(seq, result))
                except (BrokenPipeError, OSError):
                    break
                if op == "close":
                    break
    finally:
        try:
            service.close()
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Pending:
    """One in-flight request: its future, its encoded frame (kept so a
    crash can replay it on a sibling), and its timeout bookkeeping."""

    __slots__ = ("future", "frame", "start", "sent_at", "attempts", "timed_out")

    def __init__(self, frame: bytes) -> None:
        self.future: "Future[RecoveryResponse]" = Future()
        self.future.set_running_or_notify_cancel()
        self.frame = frame
        self.start = time.perf_counter()
        self.sent_at = self.start
        self.attempts = 0
        self.timed_out = False


class _Worker:
    """One slot's live process + pipe + per-slot parent bookkeeping."""

    __slots__ = ("index", "process", "conn", "pending", "send_lock",
                 "reader", "alive", "closing")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.pending: Dict[int, _Pending] = {}
        self.send_lock = threading.Lock()
        self.reader: Optional[threading.Thread] = None
        self.alive = True
        self.closing = False


class WorkerPool:
    """N long-lived worker processes serving one shard's decode traffic.

    ``factory`` runs inside each forked child and must return a fully
    warmed :class:`~repro.serve.RecoveryService`; everything mutable
    (locks, scheduler threads) is therefore born post-fork.
    Telemetry is parent-side — one :class:`ServingTelemetry` per slot,
    recorded as responses arrive, so ``stats()`` never blocks behind a
    worker's in-progress decode — and latencies are parent-observed
    (submit → response decoded), i.e. they include the IPC cost the
    cluster actually pays.
    """

    def __init__(self, factory: WorkerFactory, workers: int, label: str = "",
                 max_respawns: int = 3,
                 request_timeout: Optional[float] = None) -> None:
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        self._factory = factory
        self._label = label
        self._max_respawns = int(max_respawns)
        self._request_timeout = request_timeout
        self._ctx = mp.get_context("fork")  # Linux; children re-init their stacks
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._workers: List[Optional[_Worker]] = [None] * workers
        self._telemetry = [ServingTelemetry() for _ in range(workers)]
        self._acks: Dict[int, Tuple[_Worker, "Future[Dict[str, Any]]"]] = {}
        # Every deploy/swap ever broadcast, in order: a respawned worker
        # replays it so a fresh process converges to the pool's current
        # model state (rolling evictions keep replay memory bounded).
        self._log: List[Tuple[str, Any]] = []
        self.crash_count = 0
        self.respawns = 0
        self.degraded = False
        self._closed = False
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        with self._lock:
            if self._started:
                return self
            self._started = True
            spawned = [self._spawn_locked(index)
                       for index in range(len(self._workers))]
        for worker, log in spawned:
            self._replay_and_release(worker, log)
        if self._request_timeout is not None:
            watchdog = threading.Thread(
                target=self._watch_loop, daemon=True,
                name=f"{self._label or 'pool'}-watchdog")
            watchdog.start()
        return self

    def _spawn_locked(self, index: int) -> Tuple[_Worker, List[Tuple[str, Any]]]:
        """Fork a worker into ``index`` (pool lock held); returns the new
        slot and the control-log snapshot the caller must replay.

        The new slot's ``send_lock`` is returned **held**: the worker is
        already visible to submitters, and nothing may send it a request
        until :meth:`_replay_and_release` has queued the deploy/swap
        history — otherwise a retried request could decode under a stale
        generation.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, self._factory),
            name=f"{self._label or 'pool'}-worker-{index}", daemon=True)
        process.start()
        child_conn.close()  # the child's end lives only in the child
        worker = _Worker(index, process, parent_conn)
        worker.send_lock.acquire()  # released by _replay_and_release
        self._workers[index] = worker
        worker.reader = threading.Thread(
            target=self._read_loop, args=(worker,), daemon=True,
            name=f"{self._label or 'pool'}-reader-{index}")
        worker.reader.start()
        return worker, list(self._log)

    def _replay_and_release(self, worker: _Worker,
                            log: List[Tuple[str, Any]]) -> None:
        """Queue the deploy/swap history ahead of any request traffic,
        then open the slot for sends (acks are registered, never awaited).
        Must not hold the pool lock: a large deploy payload can block on
        the pipe until the still-warming child starts reading."""
        try:
            for op, payload in log:
                seq = next(self._seq)
                with self._lock:
                    self._acks[seq] = (worker, Future())
                try:
                    worker.conn.send_bytes(_encode_control(seq, op, payload))
                except (BrokenPipeError, OSError):
                    break
        finally:
            worker.send_lock.release()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit_to(self, index: int,
                  request: RecoveryRequest) -> "Future[RecoveryResponse]":
        """The process twin of ``services[index].submit(request)``.

        The caller (the shard) owns placement and admission; this only
        redirects to an alive sibling when slot ``index`` is mid-respawn.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(f"worker pool {self._label!r} is closed")
            if self.degraded:
                raise BackendDegraded(
                    f"pool {self._label!r} degraded after {self.crash_count} "
                    f"worker crashes (respawn budget {self._max_respawns})")
            worker = self._alive_worker_locked(index)
            if worker is None:
                raise BackendDegraded(
                    f"pool {self._label!r} has no alive workers")
            seq = next(self._seq)
        pending = _Pending(encode_request(seq, request))
        self._dispatch(worker, seq, pending)
        return pending.future

    def _alive_worker_locked(self, index: int) -> Optional[_Worker]:
        worker = self._workers[index]
        if worker is not None and worker.alive:
            return worker
        return next((w for w in self._workers if w is not None and w.alive),
                    None)

    def _dispatch(self, worker: _Worker, seq: int, pending: _Pending) -> None:
        with self._lock:
            worker.pending[seq] = pending
            pending.sent_at = time.perf_counter()
        try:
            with worker.send_lock:
                worker.conn.send_bytes(pending.frame)
        except (BrokenPipeError, OSError):
            # The pipe broke under us (crash detected concurrently).  If
            # the reader's exit handler already drained this pending it
            # owns the outcome; otherwise fail/retry it here.
            with self._lock:
                still_ours = worker.pending.pop(seq, None)
            if still_ours is not None:
                self._retry_or_fail(seq, still_ours, worker)

    def _retry_or_fail(self, seq: int, pending: _Pending,
                       dead: _Worker) -> None:
        """Crash policy for one in-flight request: one sibling retry for
        requests the worker merely *happened* to own, a typed failure for
        timeouts (the request itself is implicated) and second crashes."""
        if not pending.timed_out and pending.attempts < 1:
            pending.attempts += 1
            with self._lock:
                sibling = None if self._closed else self._alive_worker_locked(
                    dead.index)
            if sibling is not None and sibling is not dead:
                self._dispatch(sibling, seq, pending)
                return
        self._telemetry[dead.index].record_error()
        if pending.timed_out:
            pending.future.set_exception(WorkerTimeout(
                f"request exceeded request_timeout="
                f"{self._request_timeout}s on worker {dead.index} "
                f"of pool {self._label!r}; worker killed"))
        else:
            pending.future.set_exception(WorkerCrashed(
                f"worker {dead.index} of pool {self._label!r} died "
                f"mid-request (pid {dead.process.pid})"))

    # ------------------------------------------------------------------
    # Reader / lifecycle
    # ------------------------------------------------------------------
    def _read_loop(self, worker: _Worker) -> None:
        while True:
            try:
                frame = worker.conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                self._handle_frame(worker, frame)
            except Exception:
                # A frame that does not decode (truncated header, bad
                # lengths, bad pickle) means the worker's stream can no
                # longer be trusted: treat it as a crash of that worker,
                # so the futures it owns are failed or retried instead of
                # waiting on a reader that died.
                traceback.print_exc()
                worker.process.kill()
                break
        self._on_worker_exit(worker)

    def _handle_frame(self, worker: _Worker, frame: bytes) -> None:
        """Resolve the future one worker frame answers; raises on a frame
        that cannot be decoded."""
        telemetry = self._telemetry[worker.index]
        kind = frame[0]
        if kind == _RESPONSE:
            seq = _RESP_HEADER.unpack_from(frame)[1]
            with self._lock:
                pending = worker.pending.pop(seq, None)
            if pending is None:
                return
            elapsed = time.perf_counter() - pending.start
            try:
                _, response = decode_response(frame, shard=self._label,
                                              latency_ms=1000.0 * elapsed)
            except Exception:
                with self._lock:  # still owed an outcome by the exit handler
                    worker.pending[seq] = pending
                raise
            telemetry.record_request(elapsed, cache_hit=response.cached,
                                     model_tag=response.model_tag)
            pending.future.set_result(response)
        elif kind == _ERROR:
            seq, type_name, message = pickle.loads(frame[1:])
            with self._lock:
                pending = worker.pending.pop(seq, None)
            if pending is None:
                return
            telemetry.record_error()
            if type_name in ("RequestError", "ValueError"):
                pending.future.set_exception(RequestError(message))
            else:
                pending.future.set_exception(
                    WorkerError(f"{type_name}: {message}"))
        elif kind == _ACK:
            seq, result = pickle.loads(frame[1:])
            with self._lock:
                entry = self._acks.pop(seq, None)
            if entry is not None:
                entry[1].set_result(result)
        else:
            raise ValueError(f"unknown frame kind {kind!r}")

    def _on_worker_exit(self, worker: _Worker) -> None:
        """The reader saw EOF: crash or shutdown.  Runs entirely in the
        dead worker's reader thread, so respawn and future resolution are
        naturally serialized per slot."""
        with self._lock:
            worker.alive = False
            shutting_down = self._closed or worker.closing
            pendings = dict(worker.pending)
            worker.pending.clear()
            orphan_acks = []
            for seq, entry in list(self._acks.items()):
                if entry[0] is worker:
                    del self._acks[seq]
                    orphan_acks.append(entry[1])
            replacement = None
            log: List[Tuple[str, Any]] = []
            if not shutting_down:
                self.crash_count += 1
                if self.respawns < self._max_respawns:
                    self.respawns += 1
                    replacement, log = self._spawn_locked(worker.index)
                else:
                    self.degraded = True
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=5.0)
        if replacement is not None:
            self._replay_and_release(replacement, log)
        for waiter in orphan_acks:
            waiter.set_exception(WorkerCrashed(
                f"worker {worker.index} of pool {self._label!r} died "
                "before acking"))
        for seq, pending in pendings.items():
            if shutting_down:
                pending.future.set_exception(WorkerCrashed(
                    f"pool {self._label!r} closed with the request in flight"))
            else:
                self._retry_or_fail(seq, pending, worker)

    def _watch_loop(self) -> None:
        interval = max(0.02, float(self._request_timeout) / 4.0)
        while not self._closed:
            time.sleep(interval)
            now = time.perf_counter()
            doomed: List[_Worker] = []
            with self._lock:
                for worker in self._workers:
                    if worker is None or not worker.alive:
                        continue
                    overdue = [p for p in worker.pending.values()
                               if not p.timed_out
                               and now - p.sent_at > self._request_timeout]
                    if overdue:
                        for pending in overdue:
                            pending.timed_out = True
                        doomed.append(worker)
            for worker in doomed:
                # SIGKILL the wedged worker; its reader's exit handler
                # turns the marked futures into WorkerTimeout, retries
                # innocent queued siblings, and respawns the slot.
                worker.process.kill()

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------
    def _control(self, worker: _Worker, op: str, payload: Any,
                 timeout: float) -> Dict[str, Any]:
        waiter: "Future[Dict[str, Any]]" = Future()
        seq = next(self._seq)
        with self._lock:
            self._acks[seq] = (worker, waiter)
        try:
            with worker.send_lock:
                worker.conn.send_bytes(_encode_control(seq, op, payload))
        except (BrokenPipeError, OSError):
            with self._lock:
                self._acks.pop(seq, None)
            raise WorkerCrashed(
                f"worker {worker.index} pipe broken sending {op!r}")
        try:
            result = waiter.result(timeout=timeout)
        except FutureTimeout:
            with self._lock:
                self._acks.pop(seq, None)
            worker.process.kill()  # wedged; the exit handler respawns it
            raise WorkerTimeout(
                f"worker {worker.index} did not ack {op!r} within {timeout}s; "
                "killed for respawn")
        if "error" in result:
            raise WorkerError(
                f"worker {worker.index} rejected {op!r}: {result['error']}")
        return result

    def _broadcast(self, op: str, payload: Any,
                   timeout: float) -> List[Dict[str, Any]]:
        """Apply a control op worker by worker (a *rolling* broadcast: at
        any instant every worker is fully on the old or fully on the new
        generation).  A worker that crashes or wedges mid-apply is killed
        and converges via control-log replay on respawn."""
        acks: List[Dict[str, Any]] = []
        with self._lock:
            workers = [w for w in self._workers if w is not None and w.alive]
        for worker in workers:
            try:
                result = dict(self._control(worker, op, payload, timeout))
            except WorkerError as exc:
                result = {"error": str(exc)}
            result["index"] = worker.index
            acks.append(result)
        return acks

    def ping(self, timeout: float = 60.0) -> List[Dict[str, Any]]:
        """Health check: every alive worker's pid and active model tag.
        Also the pool's readiness barrier — a worker acks only once its
        factory has finished warming."""
        return self._broadcast("ping", None, timeout)

    def deploy(self, payload: Dict[str, Any],
               timeout: float = 120.0) -> List[Dict[str, Any]]:
        """Broadcast one model deploy (a :func:`_model_payload`); logged
        first so respawned workers replay it."""
        with self._lock:
            self._log.append(("deploy", payload))
        return self._broadcast("deploy", payload, timeout)

    def swap(self, name: str, timeout: float = 120.0) -> List[Dict[str, Any]]:
        with self._lock:
            self._log.append(("swap", name))
        return self._broadcast("swap", name, timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pids(self) -> List[int]:
        with self._lock:
            return [w.process.pid for w in self._workers
                    if w is not None and w.alive and w.process.pid]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            workers = [w for w in self._workers if w is not None]
            payload: Dict[str, Any] = {
                "backend": "process",
                "crashes": self.crash_count,
                "respawns": self.respawns,
                "max_respawns": self._max_respawns,
                "degraded": self.degraded,
            }
            inflight = {w.index: len(w.pending) for w in workers}
        rows: List[Dict[str, Any]] = []
        for worker in workers:
            stats = self._telemetry[worker.index].stats()
            rows.append({
                "index": worker.index,
                "pid": worker.process.pid,
                "alive": worker.alive,
                "inflight": inflight[worker.index],
                "requests": stats["requests"],
                "errors": stats["errors"],
                "latency_ms_p50": stats["latency_ms_p50"],
                "latency_ms_p95": stats["latency_ms_p95"],
                "requests_by_model": stats["requests_by_model"],
                # The worker's own VmRSS (the parent's figure would count
                # every shared page N times); 0.0 once it is gone.
                "rss_mb": proc_rss_mb(worker.process.pid) if worker.alive else 0.0,
            })
        payload["workers"] = rows
        return payload

    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.  With ``drain`` every already-queued request is
        served before the worker exits (the close frame queues *behind*
        them in the pipe); without it workers are killed and in-flight
        futures fail with :class:`WorkerCrashed`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = [w for w in self._workers if w is not None]
            for worker in workers:
                worker.closing = True
        deadline = time.monotonic() + timeout
        for worker in workers:
            if not worker.alive:
                continue
            if drain:
                try:
                    with worker.send_lock:
                        worker.conn.send_bytes(
                            _encode_control(next(self._seq), "close", None))
                except (BrokenPipeError, OSError):
                    pass
            else:
                worker.process.kill()
        for worker in workers:
            worker.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            reader = worker.reader
            if reader is not None and reader is not threading.current_thread():
                reader.join(timeout=max(0.1, deadline - time.monotonic()))
            try:
                worker.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcessReplicas:
    """The process form of the replica surface (see
    :mod:`repro.cluster.replicas`): a :class:`WorkerPool` plus the
    parent-side registry bookkeeping that keeps generation tags in
    lockstep with the workers'."""

    def __init__(self, registry: ModelRegistry, config: ServeConfig,
                 spec: ShardSpec, artifact_path: Optional[str] = None) -> None:
        # The parent keeps the registry purely for generation-tag
        # bookkeeping: after the first deploy it stops loading models.
        self._registry = registry
        self._label = spec.name
        self._pool = WorkerPool(
            _service_factory(spec.name, registry, config, artifact_path),
            workers=spec.replicas, label=spec.name,
            request_timeout=spec.worker_timeout or None)
        self._pool.start()

    def submit_to(self, index: int,
                  request: RecoveryRequest) -> "Future[RecoveryResponse]":
        return self._pool.submit_to(index, request)

    def session_service(self):
        raise StreamingUnsupported(
            f"shard {self._label!r} runs backend='process': its recovery "
            "services live in worker processes; streaming sessions need "
            "backend='inproc'")

    def deploy(self, name: str, model_or_prefix, activate: bool) -> None:
        deploy_generation(self._registry, name, model_or_prefix, activate,
                          load=False)
        self._check_acks("deploy", self._pool.deploy(
            _model_payload(name, model_or_prefix, activate)))

    def swap(self, name: str) -> None:
        """Broadcast worker by worker — each worker applies the swap
        atomically between requests and acks with the new tag."""
        self._registry.activate_unloaded(name)
        self._check_acks("swap", self._pool.swap(name))

    def _check_acks(self, op: str, acks: List[Dict[str, Any]]) -> None:
        """Every worker must ack with the parent's active generation tag;
        divergence (a failed apply, a worker serving a stale generation)
        is an operator-visible error, not a silent split-brain."""
        _, expected = self._registry.active_tag()
        bad = [ack for ack in acks
               if ack.get("error") or ack.get("model_tag") != expected]
        if bad:
            raise WorkerError(
                f"shard {self._label!r} {op} diverged on workers {bad}; "
                f"expected model_tag {expected!r}")

    def stats(self) -> Dict[str, Any]:
        payload = self._pool.stats()
        payload["worker_stats"] = payload.pop("workers")
        return payload

    def pids(self) -> List[int]:
        return self._pool.pids()

    def close(self) -> None:
        self._pool.close(drain=True)
