"""Tests for the shard's result cache (``repro.cluster.shard``).

One LRU per shard sits in front of replica admission, in the process
that runs the front door:

1. **one cache per shard** — a repeat hits whichever replica round-robin
   would pick next, on either backend, and never reaches a replica;
2. **hits are never shed** — a cached trace is answered while the shard
   is at ``max_inflight``;
3. **generation safety** — a result is filed under the tag of the
   generation that computed it, never the tag its lookup used;
4. **no hang** — a failure inside the chained completion fails the
   caller's future.

The service is held busy with a gated ``prepare``, never with ``sleep``.
"""

import threading

import numpy as np
import pytest

from repro.cluster import RecoveryCluster, ShardMap, ShardOverloaded, ShardSpec
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.datasets import load_dataset
from repro.serve import RecoveryRequest

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
            for i, s in enumerate(data.train[:4])]


def build_cluster(data, model, backend="inproc", replicas=None,
                  max_inflight=32):
    """A one-shard cluster: one service in-process, two workers (unless
    ``replicas`` says otherwise) as processes."""
    if replicas is None:
        replicas = 2 if backend == "process" else 1
    return RecoveryCluster(
        ShardMap(shards=(ShardSpec(name="chengdu", dataset="chengdu",
                                   replicas=replicas, backend=backend,
                                   max_inflight=max_inflight),)),
        model_factory=lambda spec, network: model,
        network_factory=lambda spec: data.network)


def gate_prepares(shard, monkeypatch):
    """Hold the in-process shard's scheduler inside each ``prepare`` until
    the returned event is set."""
    gate = threading.Event()
    scheduler = shard.warm().session_service().scheduler
    submit = scheduler.submit

    def gated(steps, prepare):
        def held():
            gate.wait(timeout=60.0)
            return prepare()
        return submit(steps, held)

    monkeypatch.setattr(scheduler, "submit", gated)
    return gate


def replica_requests(stats):
    """Requests that reached the service or the workers (misses only)."""
    if "engine" in stats:
        return stats["engine"]["admitted"]
    return sum(row["requests"] for row in stats["worker_stats"])


def same_trajectory(a, b):
    return (np.array_equal(a.segments, b.segments)
            and np.array_equal(a.ratios, b.ratios)
            and np.array_equal(a.times, b.times))


class TestOneCachePerShard:
    @pytest.mark.parametrize("backend", ["inproc", "process"])
    def test_repeat_hits_whichever_replica_is_next(self, data, model,
                                                   requests, backend):
        with build_cluster(data, model, backend=backend) as cluster:
            shard = cluster.shard("chengdu")
            first = shard.submit(requests[0]).result(timeout=120)
            # On the process backend round-robin would hand the repeat to
            # worker 1, which has never seen the trace.
            second = shard.submit(requests[0]).result(timeout=120)
            stats = shard.stats()
        assert not first.cached and second.cached
        assert same_trajectory(first.trajectory, second.trajectory)
        assert (second.shard, second.model, second.model_tag) == (
            "chengdu", "default", "default#1")
        assert (stats["requests"], stats["cache_hits"]) == (2, 1)
        assert (stats["cache_size"], stats["cache_capacity"]) == (1, 1024)
        assert replica_requests(stats) == 1  # the hit never left the door

    def test_cached_trace_is_answered_while_every_replica_is_saturated(
            self, data, model, requests, monkeypatch):
        with build_cluster(data, model, max_inflight=1) as cluster:
            shard = cluster.shard("chengdu")
            warm = shard.submit(requests[0]).result(timeout=120)
            gate = gate_prepares(shard, monkeypatch)
            try:
                busy = shard.submit(requests[1])
                with pytest.raises(ShardOverloaded):
                    shard.submit(requests[2])
                hit = shard.submit(requests[0])
                assert hit.done()  # answered on the calling thread
                assert hit.result().cached
                assert same_trajectory(hit.result().trajectory, warm.trajectory)
            finally:
                gate.set()
            assert not busy.result(timeout=120).cached
            stats = shard.stats()
        assert (stats["shed"], stats["requests"], stats["cache_hits"]) == (1, 3, 1)


class TestGenerationSafety:
    def test_gated_miss_is_served_only_under_its_own_generation(
            self, data, model, requests, monkeypatch):
        """A miss looked up and computed under generation A, whose door
        swaps to B before it resolves, is filed under A: a lookup under B
        misses, and swapping back to A hits it."""
        with build_cluster(data, model) as cluster:
            shard = cluster.shard("chengdu")
            gate = gate_prepares(shard, monkeypatch)
            pending = shard.submit(requests[0])
            shard.deploy("v2", RNTrajRec(data.network, TINY).eval())
            gate.set()
            under_a = pending.result(timeout=120)
            assert under_a.model_tag == "default#1" and not under_a.cached

            under_b = shard.submit(requests[0]).result(timeout=120)
            assert under_b.model_tag == "v2#1" and not under_b.cached
            shard.swap("default")
            again_a = shard.submit(requests[0]).result(timeout=120)
            assert again_a.model_tag == "default#1" and again_a.cached
            assert same_trajectory(again_a.trajectory, under_a.trajectory)

    @pytest.mark.parametrize("backend", ["inproc", "process"])
    def test_result_is_filed_under_the_tag_that_computed_it(
            self, data, model, requests, backend, monkeypatch):
        """A swap landing between the door's lookup (under A) and the
        replica's compute (under B) files the result under B."""
        with build_cluster(data, model, replicas=1,
                           backend=backend) as cluster:
            shard = cluster.shard("chengdu")
            shard.deploy("v2", RNTrajRec(data.network, TINY).eval(),
                         activate=False)
            submit_to = shard._replicas.submit_to

            def swap_then_submit(index, request):
                shard.swap("v2")
                return submit_to(index, request)

            monkeypatch.setattr(shard._replicas, "submit_to", swap_then_submit)
            computed = shard.submit(requests[0]).result(timeout=120)
            monkeypatch.undo()
            assert computed.model_tag == "v2#1" and not computed.cached

            hit = shard.submit(requests[0]).result(timeout=120)
            assert hit.model_tag == "v2#1" and hit.cached
            shard.swap("default")
            fresh = shard.submit(requests[0]).result(timeout=120)
            assert fresh.model_tag == "default#1" and not fresh.cached


def test_failure_in_the_chained_completion_fails_the_future(
        data, model, requests, monkeypatch):
    with build_cluster(data, model) as cluster:
        shard = cluster.shard("chengdu")
        shard.warm()

        def broken_put(key, value):
            raise RuntimeError("cache write failed")

        monkeypatch.setattr(shard._cache, "put", broken_put)
        with pytest.raises(RuntimeError, match="cache write failed"):
            shard.submit(requests[0]).result(timeout=120)
        assert shard.stats()["errors"] == 1
