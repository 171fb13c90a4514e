"""Tests for the process-based replica backend (``repro.cluster.workers``).

The contract under test, in order of importance:

1. **bit-identity** — a process-backed shard returns exactly the bytes an
   in-process shard returns for the same weights and requests;
2. **lifecycle** — a kill -9 mid-request never hangs a future (typed
   retry/dead-letter, respawn), repeated crashes degrade the backend
   instead of respawn-looping, timeouts surface typed, close drains;
3. **operations** — deploy/swap broadcasts reach every worker (acked with
   the new tag) and no request is ever served by a half-swapped worker.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    BackendDegraded,
    RecoveryCluster,
    ShardMap,
    ShardSpec,
    StreamingUnsupported,
    WorkerCrashed,
    WorkerError,
    WorkerPool,
    WorkerTimeout,
)
from repro.cluster.workers import (
    _ERROR,
    _RESP_HEADER,
    _RESPONSE,
    _Pending,
    _Worker,
    _service_factory,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.datasets import get_spec, load_dataset
from repro.roadnet import CityArtifacts
from repro.serve import (
    ModelRegistry,
    RecoveryRequest,
    RecoveryResponse,
    RecoveryService,
    ServeConfig,
)
from repro.serve.request import trace_floats
from repro.serve.telemetry import rollup
from repro.stream import StreamingCluster
from repro.trajectory import MatchedTrajectory

TINY = RNTrajRecConfig(hidden_dim=16, num_heads=2, dropout=0.0,
                       receptive_delta=300.0, max_subgraph_nodes=24)


@pytest.fixture(scope="module")
def data():
    return load_dataset("chengdu", num_trajectories=24)


@pytest.fixture(scope="module")
def model(data):
    return RNTrajRec(data.network, TINY).eval()


@pytest.fixture(scope="module")
def requests(data):
    return [RecoveryRequest(s.raw_low.xy, s.raw_low.times, hour=s.hour,
                            holiday=s.holiday, request_id=f"r{i}")
            for i, s in enumerate(data.train[:6])]


def one_shard_map(replicas=None, backend="process", **kwargs):
    """One chengdu shard: two workers as processes (unless ``replicas``
    says otherwise), the one service in-process."""
    if replicas is None:
        replicas = 2 if backend == "process" else 1
    return ShardMap(shards=(ShardSpec(name="chengdu", dataset="chengdu",
                                      replicas=replicas, backend=backend,
                                      **kwargs),))


def build_cluster(data, model, **spec_kwargs):
    return RecoveryCluster(one_shard_map(**spec_kwargs),
                           model_factory=lambda spec, network: model,
                           network_factory=lambda spec: data.network)


def make_pool(data, model, workers=1, **kwargs):
    """A bare WorkerPool over the shared tiny model (lifecycle tests)."""
    config = ServeConfig.for_spec(get_spec("chengdu"))
    network = data.network
    state = model.state_dict()
    model_config = model.config

    def factory():
        registry = ModelRegistry(network)
        child = RNTrajRec(network, model_config)
        child.load_state_dict(state, copy=False)
        registry.add_loaded("default", child, activate=True)
        return RecoveryService(registry, config, shard="pool")

    return WorkerPool(factory, workers=workers, label="pool", **kwargs)


def wait_for(condition, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(interval)
    return False


def assert_same_trajectory(a: MatchedTrajectory, b: MatchedTrajectory):
    np.testing.assert_array_equal(a.segments, b.segments)
    np.testing.assert_array_equal(a.ratios, b.ratios)
    np.testing.assert_array_equal(a.times, b.times)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
class TestFrameCodec:
    def test_request_roundtrip(self):
        request = RecoveryRequest(
            xy=np.array([[1.5, -2.25], [1e6, 0.125]]),
            times=np.array([0.0, 17.5]), hour=23, holiday=True,
            request_id="req/样本-1")
        seq, decoded = decode_request(encode_request(41, request))
        assert seq == 41
        np.testing.assert_array_equal(decoded.xy, request.xy)
        np.testing.assert_array_equal(decoded.times, request.times)
        assert (decoded.hour, decoded.holiday, decoded.request_id) == (
            23, True, "req/样本-1")

    def test_float_lists_encode_like_arrays(self):
        """A shard hands a miss its validated float lists; they frame to the
        same bytes as the same request given as arrays."""
        xy, times = trace_floats([[1.5, -2.25], [1e6, 0.125], [-0.0, 3]],
                                 [0, 17.5, 33.25], origin=(0.5, -1.0))
        as_lists = RecoveryRequest(xy=xy, times=times, hour=7, request_id="r1")
        as_arrays = RecoveryRequest(xy=np.array(xy), times=np.array(times),
                                    hour=7, request_id="r1")
        frame = encode_request(5, as_lists)
        assert frame == encode_request(5, as_arrays)
        _, decoded = decode_request(frame)
        np.testing.assert_array_equal(decoded.xy, as_arrays.xy)
        np.testing.assert_array_equal(decoded.times, as_arrays.times)

    def test_response_roundtrip(self):
        response = RecoveryResponse(
            request_id="r9",
            trajectory=MatchedTrajectory(np.array([3, 1, 4]),
                                         np.array([0.0, 0.5, 0.999]),
                                         np.array([0.0, 12.0, 24.0])),
            cached=True, latency_ms=3.25, model="v2", model_tag="v2#7")
        seq, decoded = decode_response(encode_response(7, response),
                                       shard="cd", latency_ms=9.5)
        assert seq == 7
        assert_same_trajectory(decoded.trajectory, response.trajectory)
        assert decoded.cached and decoded.model == "v2"
        assert decoded.model_tag == "v2#7"
        assert decoded.shard == "cd" and decoded.latency_ms == 9.5
        # Decoded arrays are private copies, not views of the frame.
        assert decoded.trajectory.segments.flags.writeable


# ---------------------------------------------------------------------------
# Drop-in equivalence
# ---------------------------------------------------------------------------
class TestProcessBackend:
    def test_spec_validates_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ShardSpec(name="x", dataset="chengdu", backend="threads")
        with pytest.raises(ValueError, match="worker_timeout"):
            ShardSpec(name="x", dataset="chengdu", worker_timeout=-1.0)

    def test_bit_identical_to_inproc(self, data, model, requests):
        with build_cluster(data, model, backend="inproc") as inproc:
            reference = inproc.recover_many(requests)
        with build_cluster(data, model, backend="process") as cluster:
            results = cluster.recover_many(requests)
            assert all(r.ok for r in reference) and all(r.ok for r in results)
            for ref, out in zip(reference, results):
                assert_same_trajectory(ref.response.trajectory,
                                       out.response.trajectory)
                assert out.response.model_tag == ref.response.model_tag
                assert out.response.shard == "chengdu"

            stats = cluster.stats()
            shard = stats["shards"]["chengdu"]
            assert shard["backend"] == "process"
            assert shard["requests"] == len(requests)
            assert not shard["degraded"] and shard["crashes"] == 0
            workers = shard["worker_stats"]
            assert len(workers) == 2
            assert all(w["alive"] and w["rss_mb"] > 0 for w in workers)
            assert sum(w["requests"] for w in workers) == len(requests)
            # Children-aware memory: the rollup covers the worker tree.
            memory = stats["memory"]
            assert memory["processes"] == 3
            assert memory["children_rss_mb"] > 0
            assert memory["rss_mb"] > memory["children_rss_mb"]

    def test_bit_identical_over_artifacts(self, data, model, requests,
                                          tmp_path):
        """Workers mmap-load the same frozen city the parent built; the
        PR 9 equivalence (artifact-loaded ≡ built) must survive IPC."""
        artifact_dir = str(tmp_path / "artifacts")

        def build(backend):
            return RecoveryCluster(one_shard_map(backend=backend),
                                   model_factory=lambda spec, network: model,
                                   network_factory=lambda spec: data.network,
                                   artifact_dir=artifact_dir)

        with build("inproc") as inproc:
            reference = inproc.recover_many(requests)
            assert inproc.shard("chengdu").artifact_info()["source"] == "built"
        with build("process") as cluster:
            assert cluster.shard("chengdu").warm().artifact_source == "loaded"
            results = cluster.recover_many(requests)
        for ref, out in zip(reference, results):
            assert ref.ok and out.ok
            assert_same_trajectory(ref.response.trajectory,
                                   out.response.trajectory)

    def test_artifact_worker_serves_from_the_mapped_archive(self, data, model,
                                                            tmp_path):
        """What a worker builds post-fork over an artifact directory holds
        the city in page-cache-backed maps: its model's parameters and its
        network's geometry are views of them, so N workers share one copy
        instead of each loading its own."""
        city = CityArtifacts.build(data.network, model=model).save(
            str(tmp_path / "city"))
        config = ServeConfig.for_spec(get_spec("chengdu"))
        # The artifact branch never reads the parent's registry.
        service = _service_factory("chengdu", None, config, city)()
        try:
            arrays = service.registry.artifacts.arrays
            for name, array in arrays.items():
                if array.size:
                    assert isinstance(array, np.memmap), name
            served = service.registry.active_ref()[2]
            for name, param in served.named_parameters():
                assert np.shares_memory(param.data, arrays["model." + name]), name
            indptr, *columns = service.registry.network._geometry_columns()
            assert np.shares_memory(indptr, arrays["net.geom_indptr"])
            for column in columns:
                assert np.shares_memory(column, arrays["net.geom_columns"])
        finally:
            service.close()

    def test_request_errors_stay_typed(self, data, model):
        with build_cluster(data, model, replicas=1) as cluster:
            sample = data.train[0]  # routable xy, invalid (reversed) times
            bad = RecoveryRequest(xy=sample.raw_low.xy,
                                  times=sample.raw_low.times[::-1].copy(),
                                  request_id="bad")
            result = cluster.recover_many([bad])[0]
            assert result.status == "error"
            assert result.error  # the worker's RequestError text, verbatim

    def test_close_drains_inflight(self, data, model, requests):
        cluster = build_cluster(data, model, replicas=2)
        shard = cluster.shard("chengdu")
        futures = [shard.submit(r) for r in requests]
        cluster.close()  # close must let already-admitted work finish
        for future, request in zip(futures, requests):
            response = future.result(timeout=60)
            assert response.request_id == request.request_id


# ---------------------------------------------------------------------------
# Hot-swap propagation
# ---------------------------------------------------------------------------
class TestHotSwap:
    @pytest.fixture(scope="class")
    def model_v2(self, data, model):
        rng = np.random.default_rng(11)
        v2 = RNTrajRec(data.network, TINY)
        v2.load_state_dict({k: v + 0.05 * rng.standard_normal(v.shape)
                            for k, v in model.state_dict().items()})
        return v2.eval()

    def test_deploy_and_swap_reach_workers(self, data, model, model_v2,
                                           requests):
        with build_cluster(data, model, replicas=2) as cluster:
            first = cluster.recover_many(requests[:2])
            assert {r.response.model_tag for r in first} == {"default#1"}

            ack = cluster.deploy_model("chengdu", "v2", model_v2,
                                       activate=True)
            assert ack == {"model": "v2", "model_tag": "v2#1"}
            swapped = cluster.recover_many(requests[:2])
            assert {r.response.model_tag for r in swapped} == {"v2#1"}

            ack = cluster.swap_model("chengdu", "default")
            assert ack == {"model": "default", "model_tag": "default#1"}
            back = cluster.recover_many(requests[:2])
            assert {r.response.model_tag for r in back} == {"default#1"}
            for a, b in zip(first, back):
                assert_same_trajectory(a.response.trajectory,
                                       b.response.trajectory)

    def test_rolling_swap_under_load_never_half_swapped(self, data, model,
                                                        model_v2, requests):
        """Every response produced while a swap rolls through the pool
        must be bit-identical to exactly one of the two generations —
        a half-swapped worker would produce a trajectory matching
        neither reference."""
        config = ServeConfig.for_spec(get_spec("chengdu"))
        expected = {}
        for tag, reference_model in (("default#1", model), ("v2#1", model_v2)):
            with RecoveryService.from_model(reference_model,
                                            config) as service:
                expected[tag] = [service.recover(r).trajectory
                                 for r in requests]

        with build_cluster(data, model, replicas=2,
                           max_inflight=64) as cluster:
            shard = cluster.shard("chengdu")
            shard.warm()
            futures = []
            for wave in range(4):
                futures.extend((i, shard.submit(r))
                               for i, r in enumerate(requests))
                if wave == 1:  # mid-load: roll the new generation out
                    shard.deploy("v2", model_v2, activate=True)
            responses = [(i, f.result(timeout=120)) for i, f in futures]

        tags_seen = {r.model_tag for _, r in responses}
        assert tags_seen == {"default#1", "v2#1"}  # the swap landed mid-load
        for i, response in responses:
            reference = expected[response.model_tag][i]
            assert_same_trajectory(response.trajectory, reference)


# ---------------------------------------------------------------------------
# Worker failure paths
# ---------------------------------------------------------------------------
class TestWorkerFailures:
    def test_kill9_mid_request_recovers_every_future(self, data, model,
                                                     requests):
        """kill -9 under load: every pending future resolves (sibling
        retry or typed WorkerCrashed — never a hang), the slot respawns,
        and subsequent traffic is bit-identical to the reference."""
        with build_cluster(data, model, backend="inproc") as inproc:
            reference = inproc.recover_many(requests)

        with build_cluster(data, model, replicas=2,
                           max_inflight=64) as cluster:
            shard = cluster.shard("chengdu")
            shard.warm()
            pids = shard.worker_pids()
            assert len(pids) == 2
            futures = [shard.submit(r) for r in requests * 3]
            os.kill(pids[0], signal.SIGKILL)

            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=120))
                except (WorkerCrashed, WorkerTimeout) as exc:
                    outcomes.append(exc)
            # No future hangs, and failures (if any) are typed.
            assert all(isinstance(o, (RecoveryResponse, WorkerError))
                       for o in outcomes)
            served = [o for o in outcomes if isinstance(o, RecoveryResponse)]
            assert served  # the sibling kept serving through the crash

            assert wait_for(lambda: len(shard.worker_pids()) == 2)
            assert pids[0] not in shard.worker_pids()
            stats = shard.stats()
            assert stats["crashes"] >= 1 and stats["respawns"] >= 1
            assert not stats["degraded"]

            after = cluster.recover_many(requests)
            for ref, out in zip(reference, after):
                assert ref.ok and out.ok
                assert_same_trajectory(ref.response.trajectory,
                                       out.response.trajectory)

    def test_repeated_crashes_degrade_instead_of_respawn_looping(self, data,
                                                                 model,
                                                                 requests):
        pool = make_pool(data, model, workers=1, max_respawns=1)
        pool.start()
        try:
            assert pool.ping()[0]["model_tag"] == "default#1"
            os.kill(pool.pids()[0], signal.SIGKILL)
            assert wait_for(lambda: pool.respawns == 1 and pool.pids())
            os.kill(pool.pids()[0], signal.SIGKILL)
            assert wait_for(lambda: pool.degraded)
            with pytest.raises(BackendDegraded):
                pool.submit_to(0, requests[0])
            assert pool.stats()["crashes"] == 2
        finally:
            pool.close(drain=False)

    def test_wedged_worker_times_out_typed_and_respawns(self, data, model,
                                                        requests):
        pool = make_pool(data, model, workers=1, max_respawns=3,
                         request_timeout=2.0)
        pool.start()
        try:
            baseline = pool.submit_to(0, requests[0]).result(timeout=120)
            pid = pool.pids()[0]
            os.kill(pid, signal.SIGSTOP)  # wedge, don't kill
            future = pool.submit_to(0, requests[1])
            with pytest.raises(WorkerTimeout):
                future.result(timeout=60)
            # The watchdog killed the wedged worker; the slot respawns and
            # serves again, bit-identical.
            assert wait_for(lambda: pool.pids() and pool.pids()[0] != pid)
            again = pool.submit_to(0, requests[0]).result(timeout=120)
            assert_same_trajectory(again.trajectory, baseline.trajectory)
        finally:
            pool.close(drain=False)

    @pytest.mark.parametrize("garbled", [
        b"",                                              # no kind byte
        bytes([_RESPONSE, 0]),                            # short header
        _RESP_HEADER.pack(_RESPONSE, 7, 1000, 0, 0, 0, 0),  # bad lengths
        bytes([_ERROR]) + b"not a pickle",
        bytes([0x7F]) + b"what",                          # unknown kind
    ], ids=["empty", "short-header", "bad-lengths", "bad-pickle",
            "unknown-kind"])
    def test_undecodable_frame_is_a_worker_crash(self, garbled):
        """A frame the parent cannot decode must not kill the reader
        silently: the worker is killed and its futures fail typed (the
        default ``request_timeout=None`` would otherwise wait forever)."""

        class Conn:
            frames = [garbled]

            def recv_bytes(self):
                if self.frames:
                    return self.frames.pop(0)
                raise EOFError

            def close(self):
                pass

        class Process:
            pid, killed = -1, False

            def kill(self):
                self.killed = True

            def join(self, timeout=None):
                pass

        pool = WorkerPool(lambda: None, workers=1, label="pool",
                          max_respawns=0)  # a crash degrades; nothing forks
        worker = _Worker(0, Process(), Conn())
        pool._workers[0] = worker
        pending = worker.pending[7] = _Pending(b"")
        reader = threading.Thread(target=pool._read_loop, args=(worker,),
                                  daemon=True)
        reader.start()
        with pytest.raises(WorkerCrashed):
            pending.future.result(timeout=5.0)
        reader.join(timeout=5.0)
        assert not reader.is_alive()
        assert worker.process.killed
        assert pool.degraded and pool.crash_count == 1

    def test_crash_during_deploy_converges_via_replay(self, data, model,
                                                      requests):
        """A worker that dies right after a deploy replays the deploy log
        on respawn and comes back serving the new generation."""
        rng = np.random.default_rng(3)
        v2 = RNTrajRec(data.network, TINY)
        v2.load_state_dict({k: v + 0.05 * rng.standard_normal(v.shape)
                            for k, v in model.state_dict().items()})
        v2.eval()
        with build_cluster(data, model, replicas=1) as cluster:
            shard = cluster.shard("chengdu")
            shard.deploy("v2", v2, activate=True)
            pid = shard.worker_pids()[0]
            os.kill(pid, signal.SIGKILL)
            assert wait_for(
                lambda: shard.worker_pids() and shard.worker_pids()[0] != pid)
            response = shard.submit(requests[0]).result(timeout=120)
            assert response.model_tag == "v2#1"


# ---------------------------------------------------------------------------
# One replica surface: a shard behaves the same whatever executes it
# ---------------------------------------------------------------------------
#: stats keys every warmed shard reports, whichever backend serves it
SHARED_STATS = {
    "materialized", "backend", "replicas", "max_inflight", "inflight",
    "shed", "deploys", "model", "model_tag", "requests", "cache_hits",
    "cache_hit_rate", "errors", "requests_by_model", "latency_ms_p50",
    "latency_ms_p99", "cache_size", "cache_capacity",
}
BACKEND_STATS = {
    "inproc": {"engine"},
    "process": {"crashes", "respawns", "degraded", "worker_stats"},
}


class TestReplicaSurface:
    @pytest.mark.parametrize("backend", ["inproc", "process"])
    def test_shard_behaves_the_same_on_either_backend(self, data, model,
                                                      requests, backend):
        cluster = build_cluster(data, model, backend=backend)
        shard = cluster.shard("chengdu")
        try:
            first = [shard.submit(r).result(timeout=120) for r in requests[:3]]
            assert {r.model_tag for r in first} == {"default#1"}

            shard.deploy("v2", RNTrajRec(data.network, TINY), activate=True)
            assert shard.active_model() == {"model": "v2", "model_tag": "v2#1"}
            rolled = shard.submit(requests[0]).result(timeout=120)
            assert rolled.model_tag == "v2#1" and not rolled.cached

            shard.swap("default")
            back = shard.submit(requests[0]).result(timeout=120)
            assert back.model_tag == "default#1"
            assert_same_trajectory(back.trajectory, first[0].trajectory)
            with pytest.raises(KeyError):
                shard.swap("never-registered")

            stats = shard.stats()
            assert SHARED_STATS | BACKEND_STATS[backend] <= set(stats)
            assert stats["backend"] == backend and stats["materialized"]
            assert (stats["requests"], stats["errors"]) == (5, 0)
            assert stats["requests_by_model"] == {"default#1": 4, "v2#1": 1}
            assert (stats["deploys"], stats["inflight"]) == (1, 0)
            assert len(shard.latencies()) == 5
            assert len(shard.worker_pids()) == (2 if backend == "process" else 0)
        finally:
            cluster.close()
        with pytest.raises(RuntimeError, match="closed"):
            shard.submit(requests[0])
        shard.close()  # idempotent
        assert shard.worker_pids() == []

    def test_rollup_block_depends_only_on_the_rows(self, data, model, requests):
        """The aggregate block is one function of (counter rows,
        latencies): both backends fed the same traffic report the same
        counters, and the function itself is checked on fixed rows."""
        blocks = {}
        for backend in ("inproc", "process"):
            with build_cluster(data, model, backend=backend) as cluster:
                for _ in range(2):  # round two lands on the same replicas
                    assert all(r.ok for r in cluster.recover_many(requests))
                stats = cluster.stats()["shards"]["chengdu"]
            blocks[backend] = {key: stats[key] for key in (
                "requests", "cache_hits", "cache_hit_rate", "errors",
                "requests_by_model")}
        assert blocks["inproc"] == blocks["process"]
        assert blocks["inproc"]["requests"] == 2 * len(requests)
        assert blocks["inproc"]["cache_hits"] == len(requests)

        rows = [{"requests": 3, "cache_hits": 1, "errors": 1,
                 "requests_by_model": {"b#1": 1, "a#2": 2}},
                {"requests": 1, "cache_hits": 0, "errors": 0,
                 "requests_by_model": {"a#2": 1}},
                {}]  # a shard that never warmed has no counters
        assert rollup(rows, [0.004, 0.001, 0.003, 0.002]) == {
            "requests": 4, "cache_hits": 1, "cache_hit_rate": 0.25,
            "errors": 1, "requests_by_model": {"a#2": 3, "b#1": 1},
            "latency_ms_p50": 3.0, "latency_ms_p99": 4.0}
        assert rollup([], [])["latency_ms_p99"] == 0.0

    def test_streaming_on_a_process_backend_is_a_typed_error(self, data, model):
        with build_cluster(data, model, replicas=1) as cluster:
            streaming = StreamingCluster(cluster)
            with pytest.raises(StreamingUnsupported, match="inproc"):
                streaming.open(data.train[0].raw_low.xy[0])
            # Failed fast: nothing pinned, no per-shard streaming service.
            assert streaming.stats() == {"pinned_sessions": 0, "shards": {}}
            with pytest.raises(StreamingUnsupported):
                cluster.shard("chengdu").session_service()


# ---------------------------------------------------------------------------
# Multi-core behavior (skip-guarded on narrow runners)
# ---------------------------------------------------------------------------
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="throughput scaling needs >= 4 cores")
def test_two_workers_outrun_one(data, model, requests):
    """On a wide host two decode processes beat one — the reason this
    backend exists.  Guarded rather than failing on 1-2 vCPU runners,
    where the GIL-free win cannot physically appear."""
    def measure(workers):
        pool = make_pool(data, model, workers=workers)
        pool.start()
        try:
            pool.ping()  # warm barrier: measure decode, not fork+warm
            load = [requests[i % len(requests)] for i in range(24)]
            for i, r in enumerate(load):  # warm worker memos equally
                pool.submit_to(i % workers, r).result(timeout=120)
            started = time.perf_counter()
            futures = [pool.submit_to(i % workers, r)
                       for i, r in enumerate(load)]
            for future in futures:
                future.result(timeout=120)
            return time.perf_counter() - started
        finally:
            pool.close(drain=False)

    solo, duo = measure(1), measure(2)
    assert duo < solo / 1.2
