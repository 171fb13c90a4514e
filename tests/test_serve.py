"""Tests for the ``repro.serve`` online recovery subsystem."""

import gc
import pickle
import threading
import weakref

import numpy as np
import pytest

import reference
from repro.cluster import RecoveryCluster, Shard, ShardSpec, side_by_side
from repro.cluster.workers import _model_payload
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.datasets import get_spec, load_dataset
from repro.roadnet import CityArtifacts, generate_city
from repro.stream import StreamingCluster, StreamingRecoveryService
from repro.serve import (
    LRUCache,
    ModelRegistry,
    RecoveryRequest,
    RecoveryService,
    RequestError,
    ServeConfig,
    assemble_sample,
    build_job,
    quantize_key,
    save_model_bundle,
)
from repro.trajectory import make_batch, pad_sample_target


# ---------------------------------------------------------------------------
# LRU cache
# ---------------------------------------------------------------------------
class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)           # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_quantized_keys_absorb_jitter(self):
        xy = np.array([[100.0, 200.0], [150.0, 260.0]])
        times = np.array([0.0, 96.0])
        base = quantize_key(xy, times, xy_precision=0.5, time_precision=0.5)
        jittered = quantize_key(xy + 0.1, times + 0.1, xy_precision=0.5,
                                time_precision=0.5)
        moved = quantize_key(xy + 5.0, times, xy_precision=0.5, time_precision=0.5)
        assert base == jittered
        assert base != moved

    def test_key_folds_in_extra_context(self):
        xy = np.zeros((2, 2))
        times = np.array([0.0, 10.0])
        assert quantize_key(xy, times, extra=("m1",)) != quantize_key(
            xy, times, extra=("m2",))


# ---------------------------------------------------------------------------
# Model fixtures: a tiny untrained model (eval mode is deterministic)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def data():
    return load_dataset("chengdu", num_trajectories=40)


@pytest.fixture(scope="module")
def model(data):
    config = RNTrajRecConfig(hidden_dim=16, num_heads=2, dropout=0.0,
                             receptive_delta=300.0, max_subgraph_nodes=24)
    return RNTrajRec(data.network, config).eval()


def _request(sample, request_id=""):
    return RecoveryRequest(sample.raw_low.xy, sample.raw_low.times,
                           hour=sample.hour, holiday=sample.holiday,
                           request_id=request_id)


def _shard(data, model):
    """An in-process shard over ``model``: the result cache lives in front
    of the shard's service, so the cache tests go through here."""
    return Shard(ShardSpec(name="chengdu", dataset="chengdu"),
                 model_factory=lambda spec, network: model,
                 network_factory=lambda spec: data.network)


# ---------------------------------------------------------------------------
# Raw-GPS ingestion
# ---------------------------------------------------------------------------
class TestAssembleSample:
    def test_matches_offline_pipeline(self, data):
        offline = data.test[0]
        serving = assemble_sample(_request(offline), data.network,
                                  ServeConfig.for_dataset(data).ingest())
        assert serving.target_length == offline.target_length
        assert np.array_equal(serving.observed_steps, offline.observed_steps)
        assert np.array_equal(serving.target.times, offline.target.times)
        num_segments = data.network.num_segments
        assert np.allclose(
            reference.reference_constraint_tensor(make_batch([serving]),
                                                  num_segments),
            reference.reference_constraint_tensor(make_batch([offline]),
                                                  num_segments))

    def test_rejects_degenerate_requests(self, data):
        config = ServeConfig.for_dataset(data).ingest()
        with pytest.raises(RequestError):
            assemble_sample(RecoveryRequest(np.zeros((1, 2)), np.zeros(1)),
                            data.network, config)
        with pytest.raises(RequestError):  # two fixes inside one ε_ρ step
            assemble_sample(
                RecoveryRequest(np.zeros((2, 2)), np.array([0.0, 0.001])),
                data.network, config)
        with pytest.raises(RequestError):  # JSON can smuggle NaN through
            assemble_sample(
                RecoveryRequest(np.array([[np.nan, 0.0], [100.0, 100.0]]),
                                np.array([0.0, 96.0])),
                data.network, config)


# ---------------------------------------------------------------------------
# Padded batching and the serving recover path
# ---------------------------------------------------------------------------
class TestPaddedRecovery:
    def test_pad_sample_target_extends_grid(self, data):
        sample = data.test[0]
        padded = pad_sample_target(sample, sample.target_length + 3)
        assert padded.target_length == sample.target_length + 3
        assert padded.constraints[-1] is None
        interval = sample.target.interval
        assert np.allclose(np.diff(padded.target.times), interval)
        with pytest.raises(ValueError):
            pad_sample_target(sample, sample.target_length - 1)


# ---------------------------------------------------------------------------
# RecoveryService end to end
# ---------------------------------------------------------------------------
class TestRecoveryService:
    def test_batched_results_equal_per_request_recover(self, data, model):
        service = RecoveryService.from_model(model, ServeConfig.for_dataset(data))
        samples = (data.test + data.val)[:6]
        responses = service.recover_many(
            [_request(s, f"r{i}") for i, s in enumerate(samples)], timeout=120.0)
        service.close()

        for sample, response in zip(samples, responses):
            direct = model.recover_trajectories(make_batch([sample]))[0]
            assert np.array_equal(direct.segments, response.trajectory.segments)
            assert np.allclose(direct.ratios, response.trajectory.ratios)
            assert np.array_equal(direct.times, response.trajectory.times)

    def test_cache_hit_on_resubmission(self, data, model):
        shard = _shard(data, model)
        request = _request(data.test[0], "first")
        first = shard.submit(request).result(timeout=120.0)
        second = shard.submit(request).result(timeout=120.0)
        stats = shard.stats()
        shard.close()

        assert not first.cached
        assert second.cached
        assert np.array_equal(first.trajectory.segments, second.trajectory.segments)
        assert stats["cache_hits"] == 1
        assert stats["requests"] == 2

    def test_time_shifted_duplicate_hits_cache_with_rebased_times(self, data, model):
        shard = _shard(data, model)
        sample = data.test[0]
        original = shard.submit(_request(sample, "t0")).result(timeout=120.0)
        shifted = shard.submit(RecoveryRequest(
            sample.raw_low.xy, sample.raw_low.times + 3600.0,
            hour=sample.hour, holiday=sample.holiday,
            request_id="t1")).result(timeout=120.0)
        shard.close()

        assert shifted.cached  # same geometry, relative times → cache hit
        assert np.array_equal(original.trajectory.segments,
                              shifted.trajectory.segments)
        # ... but the grid is rebased onto the new request's time origin.
        assert np.allclose(shifted.trajectory.times,
                           original.trajectory.times + 3600.0)

    def test_bad_request_fails_future_and_counts_error(self, data, model):
        service = RecoveryService.from_model(
            model, ServeConfig.for_dataset(data))
        futures = [
            service.submit(RecoveryRequest(np.zeros((1, 2)), np.zeros(1))),
            service.submit(RecoveryRequest(np.zeros((0, 2)), np.zeros(0))),
        ]
        for future in futures:  # async contract: errors fail the future
            with pytest.raises(RequestError):
                future.result(timeout=10.0)
        assert service.stats()["errors"] == 2
        service.close()

    def test_stats_shape(self, data, model):
        service = RecoveryService.from_model(model, ServeConfig.for_dataset(data))
        stats = service.stats()
        service.close()
        for key in ("requests", "qps", "latency_ms_p50", "latency_ms_p95",
                    "cache_hit_rate", "active_model", "pending"):
            assert key in stats
        for key in ("queue_wait_ms_p50", "queue_wait_ms_p95", "preemptions",
                    "queued", "slot_steps", "resident_steps", "admitted"):
            assert key in stats["engine"]
        # The cache gauges moved to the shard that owns the cache.
        assert not {"cache_size", "cache_capacity"} & set(stats)
        shard = _shard(data, model).warm()
        gauges = shard.stats()
        shard.close()
        assert (gauges["cache_size"], gauges["cache_capacity"]) == (0, 1024)


# ---------------------------------------------------------------------------
# Where the work runs: submit validates and enqueues, the worker builds
# ---------------------------------------------------------------------------
WORKER = "continuous-scheduler"


def hold_worker(service, sample):
    """Park the service's scheduler worker inside a gated ``prepare`` (whose
    job, ``sample``'s, is built up front) and return the gate."""
    job = build_job(service.registry.active_ref()[2], sample, "held")
    entered, gate = threading.Event(), threading.Event()

    def held():
        entered.set()
        gate.wait(timeout=60.0)
        return job

    service.scheduler.submit(job.num_steps, held)
    assert entered.wait(timeout=60.0)
    return gate


def spy_on_builds(monkeypatch):
    """``(function, thread name)`` of every one-shot Eq. 16 assembly and
    every job build, one-shot or streaming, from here on."""
    import repro.serve.request
    import repro.serve.service
    import repro.stream.engine

    calls = []
    for module, name in ((repro.serve.request, "fix_entries"),
                         (repro.serve.service, "build_job"),
                         (repro.stream.engine, "build_job")):
        def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append((_name, threading.current_thread().name))
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return calls


class TestWorkPlacement:
    def test_submit_only_enqueues_and_the_worker_builds_by_grid_length(
            self, data, model, monkeypatch):
        # Prefixes of 4-fix traces: grids of 25, 9, 17, 9, 17 steps, so
        # every length is tied once and arrival breaks the tie.
        config = ServeConfig.for_dataset(data)
        requests = [RecoveryRequest(s.raw_low.xy[:n], s.raw_low.times[:n],
                                    request_id=f"r{i}")
                    for i, (s, n) in enumerate(zip(data.test, (4, 2, 3, 2)))]
        requests.append(RecoveryRequest(data.test[0].raw_low.xy[:3],
                                        data.test[0].raw_low.times[:3]))
        samples = [assemble_sample(r, data.network, config.ingest())
                   for r in requests]
        service = RecoveryService.from_model(model, config)
        try:
            gate = hold_worker(service, data.test[0])
            calls = spy_on_builds(monkeypatch)
            order = []
            futures = [service.submit(request) for request in requests]
            assert calls == []  # every submit returned before any build
            assert service.scheduler.pending == len(samples)
            for i, future in enumerate(futures):
                future.add_done_callback(lambda _, i=i: order.append(i))
            gate.set()
            responses = [future.result(timeout=120.0) for future in futures]
        finally:
            service.close()
        assert [s.target_length for s in samples] == [25, 9, 17, 9, 17]
        assert order == sorted(range(len(samples)),
                               key=lambda i: (samples[i].target_length, i))
        assert sorted(calls) == sorted(
            [("build_job", WORKER), ("fix_entries", WORKER)] * len(samples))
        for sample, response in zip(samples, responses):
            direct = model.recover_trajectories(make_batch([sample]))[0]
            assert np.array_equal(direct.segments, response.trajectory.segments)
            assert np.array_equal(direct.times, response.trajectory.times)

    def test_streaming_appends_and_finalize_build_on_the_worker(
            self, data, model, monkeypatch):
        sample = data.test[0]
        xy, times = sample.raw_low.xy, sample.raw_low.times
        assert len(times) >= 3  # the last append does not decode from 0
        service = RecoveryService.from_model(model, ServeConfig.for_dataset(data))
        streaming = StreamingRecoveryService(service, commit_horizon=0)
        try:
            calls = spy_on_builds(monkeypatch)
            session = streaming.open(hour=sample.hour)
            for point, time in zip(xy, times):
                streaming.append(session, point, [time])
            assert calls == [("build_job", WORKER)] * (len(times) - 1)
            final = streaming.finalize(session)
        finally:
            streaming.close()
            service.close()
        assert calls == [("build_job", WORKER)] * len(times)
        direct = model.recover_trajectories(make_batch([sample]))[0]
        assert np.array_equal(direct.segments, final.trajectory.segments)

    @pytest.mark.parametrize("xy, times", [
        pytest.param([[700.0, 700.0]], [0.0], id="one-fix"),
        pytest.param([[700.0, 700.0], [780.0, 760.0]], [0.0, 1.0],
                     id="one-grid-step"),
        pytest.param([[700.0, 700.0], [780.0, 760.0]], [0.0, 1e9],
                     id="past-max-grid-steps"),
        pytest.param([[700.0, np.nan], [780.0, 760.0]], [0.0, 96.0],
                     id="non-finite"),
        pytest.param([[700.0, 700.0], [740.0, 730.0], [780.0, 760.0]],
                     [0.0, 96.0, 96.0], id="times-not-increasing"),
    ])
    def test_a_bad_request_fails_before_anything_is_queued(
            self, data, model, xy, times):
        service = RecoveryService.from_model(model, ServeConfig.for_dataset(data))
        gate = hold_worker(service, data.test[0])
        try:
            admitted = service.scheduler.engine.admitted
            future = service.submit(RecoveryRequest(np.array(xy),
                                                    np.array(times)))
            assert future.done()
            assert service.scheduler.pending == 0
            assert service.scheduler.engine.admitted == admitted
            with pytest.raises(RequestError):
                future.result(timeout=0)
        finally:
            gate.set()
            service.close()
        assert service.stats()["errors"] == 1


class TestClosedOwnerIsFreed:
    """A closed owner of a scheduler — a ``RecoveryService``, an inproc
    ``RecoveryCluster``, a ``StreamingCluster`` over one — is freed by
    reference counting alone: with the cyclic GC off, its model and road
    network die with the last reference to it."""

    @staticmethod
    def _serve(owner, network, model, request):
        """Serve ``request`` through a fresh ``owner`` and close it."""
        if owner == "service":
            service = RecoveryService.from_model(model)
            service.recover(request, timeout=120.0)
            service.close()
            return
        cluster = RecoveryCluster(side_by_side(["chengdu"]),
                                  network_factory=lambda spec: network,
                                  model_factory=lambda spec, net: model)
        if owner == "cluster":
            cluster.recover(request, timeout=120.0)
        else:
            streaming = StreamingCluster(cluster)
            session_id, _ = streaming.open()
            streaming.append(session_id, request.xy, request.times)
            streaming.finalize(session_id)
            streaming.close()
        cluster.close()

    @pytest.mark.parametrize("owner", ["service", "cluster", "streaming"])
    def test_model_and_network_die_with_the_closed_owner(self, data, owner):
        # A network of its own: load_dataset's networks are memoized.
        network = generate_city(get_spec("chengdu").city)
        model = RNTrajRec(network, RNTrajRecConfig(
            hidden_dim=16, num_heads=2, dropout=0.0, receptive_delta=300.0,
            max_subgraph_nodes=24)).eval()
        alive = (weakref.ref(network), weakref.ref(model))
        gc.collect()
        gc.disable()
        try:
            self._serve(owner, network, model, _request(data.test[0]))
            del network, model
            assert [ref() for ref in alive] == [None, None]
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Model registry: bundles, hot-swap, pinned structures
# ---------------------------------------------------------------------------
def _bundle_model(data, model, tmp_path):
    prefix = str(tmp_path / "bundle")
    save_model_bundle(model, prefix)
    registry = ModelRegistry(data.network)
    registry.register("v1", prefix, activate=True)
    return registry.load("v1")


def _artifact_model(data, model, tmp_path):
    CityArtifacts.build(data.network, model=model).save(str(tmp_path / "city"))
    return ModelRegistry(artifacts=CityArtifacts.load(
        str(tmp_path / "city"), mmap=True)).register_artifact_model()


def _deploy_model(data, model, tmp_path):
    # The payload crosses a worker's pipe pickled; the worker builds it.
    payload = pickle.loads(pickle.dumps(_model_payload("v1", model, True)))
    return payload["source"].build(data.network)


class TestModelRegistry:
    @pytest.mark.parametrize("source", [_bundle_model, _artifact_model, _deploy_model],
                             ids=["bundle", "artifact", "deploy"])
    def test_bundle_round_trip_reproduces_outputs(self, data, model, tmp_path, source):
        """Every form a served model ships in rebuilds, through
        ``ModelSnapshot.build``, a model whose recoveries are byte-equal
        to the source model's."""
        loaded = source(data, model, tmp_path)

        assert loaded is not model
        assert loaded.config == model.config  # the snapshot carried the config
        batch = make_batch(data.test[:4])
        expected_segments, expected_rates = model.recover(batch)
        got_segments, got_rates = loaded.recover(batch)
        assert np.array_equal(expected_segments, got_segments)
        assert np.array_equal(expected_rates, got_rates)

    def test_pinned_structures_shared_across_models(self, data, model, tmp_path):
        save_model_bundle(model, str(tmp_path / "a"))
        save_model_bundle(model, str(tmp_path / "b"))
        registry = ModelRegistry(data.network)
        registry.register("a", str(tmp_path / "a"))
        registry.register("b", str(tmp_path / "b"))
        model_a, model_b = registry.load("a"), registry.load("b")
        # One network object, hence one copy of everything it memoizes.
        assert model_a.network is model_b.network
        assert model_a.encoder.grid == model_b.encoder.grid
        assert model_a.encoder.road_encoder._grid_seq is model_b.encoder.road_encoder._grid_seq
        assert model_a.reachability._indices is model_b.reachability._indices
        assert model_a.reachability._indptr is model_b.reachability._indptr

    def test_hot_swap_switches_active_model(self, data, model, tmp_path):
        save_model_bundle(model, str(tmp_path / "v1"))
        shard = _shard(data, model)
        shard.deploy("v1", str(tmp_path / "v1"))
        registry = shard.registry

        request = _request(data.test[0], "swap-check")
        first = shard.submit(request).result(timeout=120.0)
        assert first.model == "v1"

        other = RNTrajRec(data.network, model.config).eval()
        registry.add_loaded("v2", other)
        shard.swap("v2")
        second = shard.submit(request).result(timeout=120.0)
        shard.close()

        assert second.model == "v2"
        assert not second.cached  # cache keys include the model name
        assert registry.active_name == "v2"

    def test_in_flight_requests_finish_on_submit_time_model(self, data, model):
        registry = ModelRegistry(data.network)
        registry.add_loaded("v1", model, activate=True)
        service = RecoveryService(registry, ServeConfig.for_dataset(data))

        # Submit while v1 is active, then hot-swap while it is in flight.
        future = service.submit(_request(data.test[0], "inflight"))
        registry.add_loaded("v2", RNTrajRec(data.network, model.config).eval())
        service.swap_model("v2")
        response = future.result(timeout=120.0)
        service.close()

        assert response.model == "v1"
        direct = model.recover_trajectories(make_batch([data.test[0]]))[0]
        assert np.array_equal(direct.segments, response.trajectory.segments)

    def test_reregistering_a_name_invalidates_cached_results(self, data, model):
        shard = _shard(data, model)
        registry = shard.registry  # "default" is the model above

        request = _request(data.test[0], "regen")
        first = shard.submit(request).result(timeout=120.0)
        # Hot-reload an updated model under the *same* name.
        retrained = RNTrajRec(data.network, model.config).eval()
        registry.add_loaded("default", retrained, activate=True)
        second = shard.submit(request).result(timeout=120.0)
        shard.close()

        assert not first.cached
        assert not second.cached  # generation tag invalidated the old entry
        direct = retrained.recover_trajectories(make_batch([data.test[0]]))[0]
        assert np.array_equal(direct.segments, second.trajectory.segments)

    def test_unknown_model_raises(self, data):
        registry = ModelRegistry(data.network)
        with pytest.raises(KeyError):
            registry.load("nope")
