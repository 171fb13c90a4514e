"""Load generators and the untraced end-to-end measurement.

One :class:`Bed` per run holds what both the system under test and the
oracle are built from (networks, untrained seeded models, their saved
bundles).  :func:`run_http` and :func:`run_inproc` boot the system several
times for ``setup_s``, keep the last boot, warm it, drive the fixed-count
window and return an :class:`Outcome`; nothing here records spans.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import sut
import workloads
from repro import nn, profile
from repro.core import RNTrajRec
from repro.datasets import get_spec
from repro.experiments import small_model_config
from repro.serve import RecoveryRequest, save_model_bundle
from repro.stream import StreamingCluster

CLIENTS = 2  # load-generator threads/connections: at most nproc on this box


# ----------------------------------------------------------------------
# The test bed
# ----------------------------------------------------------------------
@dataclass
class Bed:
    workload: workloads.Workload
    scratch: Path
    networks: Dict[str, Any]
    models: Dict[str, RNTrajRec]
    bundles: Dict[str, str]

    @property
    def serve(self) -> Dict[str, Any]:
        """``ShardMap.serve`` overrides.  Recipe-backed shards derive their
        ingest grid from the dataset; a custom-network shard (the metro)
        has no recipe, so its ingest parameters are spelled out."""
        custom = [c for c in self.workload.cities if c.block is not None]
        if not custom:
            return {}
        spec = get_spec(custom[0].dataset)
        return {"interval": spec.simulation.sample_interval,
                "beta": spec.dataset.beta,
                "max_gps_error": spec.dataset.max_gps_error}

    def specs(self, backend: str):
        return [city.shard_spec(self.networks[city.name],
                                self.bundles[city.name], backend)
                for city in self.workload.cities]


def make_bed(workload: workloads.Workload, seed: int) -> Bed:
    """Networks, models and bundles for ``workload``.  Models are untrained
    ``small_model_config(32)`` nets seeded from ``seed``: timing does not
    depend on the weights, and accuracy stays with the Table III benches."""
    scratch = sut.scratch_dir(workload.name)
    nn.init.seed_everything(seed)
    models, bundles = {}, {}
    for name, network in workload.networks.items():
        models[name] = RNTrajRec(network, small_model_config(32)).eval()
        bundles[name] = str(scratch / f"bundle-{name}")
        save_model_bundle(models[name], bundles[name])
    return Bed(workload, scratch, workload.networks, models, bundles)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One operation as the client saw it."""

    latency: float = 0.0       # seconds, from send (closed) or due (open)
    lateness: float = 0.0      # seconds the generator sent it late: after
                               # its due time (open loop) or after its
                               # client became free (closed loop)
    end: float = 0.0           # perf_counter at completion
    ok: bool = False
    result: Any = None         # HTTP body (bytes) / response object


@dataclass
class Outcome:
    """What one untraced window produced."""

    setup_seconds: List[float]
    first_request_ms: List[float]
    ops: List[Op]                   # the e2e operation sample
    window: float                   # first send/due -> last completion
    cpu_seconds: float
    rss_mb: float
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]
    #: stream-mixed extras
    oneshot: List[Op] = field(default_factory=list)
    updates: List[Any] = field(default_factory=list)      # StreamUpdate
    finalize: List[Op] = field(default_factory=list)
    evictions: int = 0
    non200: int = 0


    def everything(self) -> List[Op]:
        """Every operation attempted: a failed finalize or one-shot counts
        in ``failed_share`` even though only ``ops`` feed the latencies."""
        return self.ops + self.oneshot + self.finalize


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    """The seven end-to-end figures of one window."""
    ok = [op for op in outcome.ops if op.ok]
    latencies = np.array([op.latency for op in ok]) * 1000.0
    everything = outcome.everything()
    return {
        "setup_s": statistics.median(outcome.setup_seconds),
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p95_ms": float(np.percentile(latencies, 95)),
        "throughput_rps": len(ok) / outcome.window,
        "cpu_ms_per_op": 1000.0 * outcome.cpu_seconds / len(ok),
        "rss_mb": outcome.rss_mb,
        "failed_share": sum(not op.ok for op in everything) / len(everything),
    }


# ----------------------------------------------------------------------
# HTTP: real scripts/serve.py cluster subprocess, closed loop
# ----------------------------------------------------------------------
def request_body(request: RecoveryRequest) -> bytes:
    """The ``POST /recover`` JSON body of a request."""
    return json.dumps({
        "points": request.xy.tolist(), "times": request.times.tolist(),
        "request_id": request.request_id}).encode()


def request_payload(request: RecoveryRequest) -> bytes:
    return sut.post_bytes("/recover", request_body(request))


def _closed_loop(port: int, payloads: List[bytes]) -> Tuple[List[Op], float]:
    """``CLIENTS`` threads, each sending its next request only after the
    previous one completed; requests are taken in order from one queue.
    Returns the operations and when the first was sent."""
    ops = [Op() for _ in payloads]
    cursor = itertools.count()
    lock = threading.Lock()

    def client() -> None:
        free = started  # when this client could have sent its next request
        while True:
            with lock:
                index = next(cursor)
            if index >= len(payloads):
                return
            op = ops[index]
            start = time.perf_counter()
            op.lateness = start - free
            try:
                status, body = sut.http_call(port, payloads[index])
            except OSError:  # refused, reset or timed out: a failed op
                status, body = 0, b""
            op.end = free = time.perf_counter()
            op.latency = op.end - start
            op.ok = status == 200
            op.result = body

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ops, started


def run_http(bed: Bed, boots: int) -> Outcome:
    workload = bed.workload
    shard_map = sut.write_shard_map(bed.scratch / "shards.json",
                                    bed.specs("process"), bed.serve)
    warm = [request_payload(r) for r in workload.warmup]
    probes = _one_per_city(workload)
    payloads = [request_payload(r) for r in workload.requests]

    setup, first = [], []
    server: Optional[sut.HttpServer] = None
    try:
        for boot in range(boots):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = sut.HttpServer(
                shard_map, sut.scratch_dir(f"{workload.name}/artifacts"),
                bed.scratch / "server.log").start()
            ready = time.perf_counter()
            for probe in probes:
                status, _ = sut.http_call(server.port, request_payload(probe))
                if status != 200:
                    raise RuntimeError(f"boot probe answered {status}")
            done = time.perf_counter()
            setup.append(done - started)
            first.append(1000.0 * (done - ready))

        warm_ops, _ = _closed_loop(server.port, warm)
        if not all(op.ok for op in warm_ops):
            raise RuntimeError("warm-up request failed")
        before = server.stats()
        cpu0 = server.cpu_seconds()
        ops, origin = _closed_loop(server.port, payloads)
        cpu1 = server.cpu_seconds()
        after = server.stats()
    finally:
        if server is not None:
            server.stop()
    return Outcome(
        setup_seconds=setup, first_request_ms=first, ops=ops,
        window=max(op.end for op in ops) - origin,
        cpu_seconds=cpu1 - cpu0,
        rss_mb=float(after["memory"].get("pss_mb", after["memory"]["rss_mb"])),
        stats_before=before, stats_after=after,
        non200=sum(1 for op in ops if not op.ok))


def _one_per_city(workload: workloads.Workload) -> List[RecoveryRequest]:
    """A boot probe per shard: its first warm-up request.  Warm-up requests
    alternate cities, so the first ``len(cities)`` cover every shard."""
    return workload.warmup[:len(workload.cities)]


# ----------------------------------------------------------------------
# In-process: public RecoveryCluster / StreamingCluster API, open loop
# ----------------------------------------------------------------------
def _open_loop(submit: Callable[[RecoveryRequest], Any],
               requests: List[RecoveryRequest], due: np.ndarray,
               origin: float) -> List[Op]:
    """Submit each request at ``origin + due`` regardless of completions;
    latency runs from the *due* time, so a stalled generator's delay is
    charged to the requests it delayed."""
    ops = [Op() for _ in requests]
    futures = []

    def stamp(op: Op):
        def done(_future) -> None:
            op.end = time.perf_counter()
        return done

    for op, request, offset in zip(ops, requests, due):
        target = origin + float(offset)
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        op.lateness = max(0.0, time.perf_counter() - target)
        future = submit(request)
        future.add_done_callback(stamp(op))
        futures.append(future)
    for op, future, offset in zip(ops, futures, due):
        try:
            op.result = future.result(timeout=sut.REQUEST_TIMEOUT)
            op.ok = True
        except Exception:  # shed, unroutable, timed out: a failed op
            op.end = time.perf_counter()
        op.latency = op.end - (origin + float(offset))
    return ops


def run_inproc(bed: Bed, boots: int) -> Outcome:
    workload = bed.workload
    cities = {city.name: city for city in workload.cities}
    setup, first = [], []
    cluster = None
    try:
        for boot in range(boots):
            if cluster is not None:
                cluster.close()
            started = time.perf_counter()
            cluster = sut.boot_inproc(
                bed.specs("inproc"), cities, bed.serve,
                sut.scratch_dir(f"{workload.name}/artifacts"))
            ready = time.perf_counter()
            for probe in _one_per_city(workload):
                cluster.recover(probe, timeout=sut.REQUEST_TIMEOUT)
            done = time.perf_counter()
            setup.append(done - started)
            first.append(1000.0 * (done - ready))

        for request in workload.warmup:
            cluster.recover(request, timeout=sut.REQUEST_TIMEOUT)
        if workload.sessions:
            return _stream_window(bed, cluster, setup, first)
        before = cluster.stats()
        cpu0 = time.process_time()
        origin = time.perf_counter()
        ops = _open_loop(cluster.submit, workload.requests, workload.due, origin)
        cpu1 = time.process_time()
        after = cluster.stats()
        return Outcome(
            setup_seconds=setup, first_request_ms=first, ops=ops,
            window=max(op.end for op in ops) - origin,
            cpu_seconds=cpu1 - cpu0,
            rss_mb=profile.memory_snapshot()["rss_mb"],
            stats_before=before, stats_after=after)
    finally:
        if cluster is not None:
            cluster.close()


def _stream_window(bed: Bed, cluster, setup, first) -> Outcome:
    """stream-mixed: thread A appends to 8 concurrent sessions round-robin
    (closed loop; the append is the operation), thread B submits one-shot
    requests at a fixed rate on the same shard (open loop)."""
    workload = bed.workload
    streaming = StreamingCluster(cluster)
    appends: List[Op] = []
    finalizes: List[Op] = []
    updates: List[Any] = []

    def timed(sink: List[Op], call: Callable[[], Any]) -> Any:
        op = Op()
        start = time.perf_counter()
        try:
            op.result = call()
            op.ok = True
        except Exception:  # shed, evicted, rejected: a failed op
            pass
        op.end = time.perf_counter()
        op.latency = op.end - start
        sink.append(op)
        return op.result

    def thread_a() -> None:
        size = workloads.STREAM_SESSIONS
        for base in range(0, len(workload.sessions), size):
            group = workload.sessions[base:base + size]
            ids = [streaming.open(s.xy[0])[0] for s in group]
            for k in range(workloads.STREAM_FIXES):
                for sid, s in zip(ids, group):
                    update = timed(appends, lambda: streaming.append(
                        sid, s.xy[k:k + 1], s.times[k:k + 1]))
                    if update is not None:
                        updates.append(update)
            for sid in ids:
                timed(finalizes, lambda: streaming.finalize(sid))

    oneshot: List[Op] = []

    def thread_b() -> None:
        oneshot.extend(_open_loop(cluster.submit, workload.requests,
                                  workload.due, origin))

    try:
        before = cluster.stats()
        cpu0 = time.process_time()
        origin = time.perf_counter()
        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu1 = time.process_time()
        after = cluster.stats()
        evictions = len(streaming.evictions())
    finally:
        streaming.close()
    return Outcome(
        setup_seconds=setup, first_request_ms=first,
        ops=appends,
        window=max(op.end for op in appends) - origin,
        cpu_seconds=cpu1 - cpu0,
        rss_mb=profile.memory_snapshot()["rss_mb"],
        stats_before=before, stats_after=after,
        oneshot=oneshot, updates=updates, finalize=finalizes,
        evictions=evictions)
