"""Tests for ``repro.stream`` — sessionized incremental trajectory recovery.

The load-bearing assertion is the correctness anchor: ``finalize()`` after
N appends must reproduce the one-shot ``recover()`` of the same N fixes
bit-for-bit, across sampling gaps (ε_τ/ε_ρ of 8 and 4), append chunk
sizes and commit horizons.  Around it: the bounded session store (TTL,
LRU, backpressure), the typed append validation, the decoder's
split/replay kernel invariants, telemetry, and session→shard affinity.
"""

import inspect
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
import repro.stream.engine as stream_engine
from repro.cluster import RecoveryCluster, RouteError, side_by_side
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.datasets import load_dataset
from repro.scenarios import (
    Outage,
    Scenario,
    VariableRate,
    build_scenario_samples,
    standard_scenarios,
)
from repro.serve import (
    RecoveryRequest,
    RecoveryService,
    RequestError,
    ServeConfig,
    assemble_sample,
    validate_append_times,
)
from repro.stream import (
    SessionOverloaded,
    SessionState,
    SessionStore,
    StoreConfig,
    StreamError,
    StreamingCluster,
    StreamingRecoveryService,
    UnknownSession,
)
from repro.trajectory import TrajectorySimulator, make_batch

TINY = RNTrajRecConfig(hidden_dim=16, num_heads=2, dropout=0.0,
                       receptive_delta=300.0, max_subgraph_nodes=24)


@pytest.fixture(scope="module")
def data():
    return load_dataset("chengdu", num_trajectories=40)


@pytest.fixture(scope="module")
def model(data):
    return RNTrajRec(data.network, TINY).eval()


@pytest.fixture(scope="module")
def data_gap4():
    """The same city at a denser input sampling (ε_τ/ε_ρ = 4)."""
    return load_dataset("chengdu", num_trajectories=16, keep_every=4)


@pytest.fixture(scope="module")
def model_gap4(data_gap4):
    return RNTrajRec(data_gap4.network, TINY).eval()


class FakeClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


def _ingest(data):
    return ServeConfig.for_spec(data.spec).ingest()


@pytest.fixture()
def streaming():
    """Builds streaming services, each on its own one-shot
    ``RecoveryService`` over ``model`` with ``data``'s ingest grid, and
    closes those services after the test."""
    borrowed = []

    def build(model, data, commit_horizon=8, clock=time.monotonic, shard="",
              **store):
        oneshot = RecoveryService.from_model(
            model, ServeConfig.for_spec(data.spec), shard=shard)
        borrowed.append(oneshot)
        return StreamingRecoveryService(oneshot, commit_horizon,
                                        StoreConfig(**store), clock=clock)

    yield build
    for oneshot in borrowed:
        oneshot.close()


def _reference(model, data, sample):
    """The one-shot recovery of a sample's raw fixes (serving path)."""
    request = RecoveryRequest(sample.raw_low.xy, sample.raw_low.times,
                              hour=sample.hour, holiday=sample.holiday)
    assembled = assemble_sample(request, data.network, _ingest(data))
    return model.recover_trajectories(make_batch([assembled]))[0]


def _drive(service, sample, chunk):
    """Stream a sample's fixes in ``chunk``-sized appends; returns
    (session_id, updates, finalize response)."""
    session_id = service.open(hour=sample.hour, holiday=sample.holiday)
    raw = sample.raw_low
    updates = []
    for start in range(0, len(raw), chunk):
        stop = min(start + chunk, len(raw))
        updates.append(service.append(session_id, raw.xy[start:stop],
                                      raw.times[start:stop]))
    return session_id, updates, service.finalize(session_id)


# ---------------------------------------------------------------------------
# Session store: TTL, LRU, backpressure, bounded memory
# ---------------------------------------------------------------------------
class TestSessionStore:
    def _store(self, **overrides):
        clock = FakeClock()
        params = dict(capacity=4, ttl_seconds=100.0)
        params.update(overrides)
        return SessionStore(StoreConfig(**params), clock=clock), clock

    def test_ttl_expires_idle_sessions(self):
        store, clock = self._store(ttl_seconds=30.0)
        store.open(SessionState("a"))
        clock.advance(10.0)
        store.open(SessionState("b"))
        clock.advance(25.0)  # a idle 35s, b idle 25s
        with pytest.raises(UnknownSession):
            store.get("a")
        assert store.get("b").session_id == "b"
        records = store.evictions()
        assert [r["session_id"] for r in records] == ["a"]
        assert records[0]["reason"] == "ttl"
        assert store.stats()["expired_ttl"] == 1

    def test_lru_eviction_under_capacity_pressure(self):
        store, clock = self._store(capacity=2)
        store.open(SessionState("a"))
        clock.advance(1.0)
        store.open(SessionState("b"))
        clock.advance(1.0)
        store.get("a")  # b is now least recently used
        store.open(SessionState("c"))
        assert "a" in store and "c" in store and "b" not in store
        record = store.evictions()[-1]
        assert record["session_id"] == "b" and record["reason"] == "lru"

    def test_backpressure_sheds_when_nothing_is_idle_enough(self):
        store, clock = self._store(capacity=1, evict_idle_seconds=60.0)
        store.open(SessionState("busy"))
        clock.advance(5.0)  # idle 5s < 60s: not evictable
        with pytest.raises(SessionOverloaded):
            store.open(SessionState("late"))
        assert store.stats()["shed"] == 1
        assert "busy" in store  # the resident session survived
        clock.advance(60.0)  # now idle long enough -> eviction beats shedding
        store.open(SessionState("late"))
        assert "late" in store and "busy" not in store

    def test_memory_stays_bounded_under_session_churn(self):
        store, clock = self._store(capacity=8, eviction_log=16)
        for i in range(40):
            store.open(SessionState(f"s{i}"))
            clock.advance(0.1)
            assert len(store) <= 8
        stats = store.stats()
        assert stats["active_sessions"] == 8
        assert stats["evicted_lru"] == 32
        assert len(store.evictions()) == 16  # the record ring is bounded too

    def test_duplicate_open_and_finalize_remove(self):
        store, _ = self._store()
        store.open(SessionState("a"))
        with pytest.raises(StreamError):
            store.open(SessionState("a"))
        store.remove("a")
        assert store.stats()["finalized"] == 1
        assert store.evictions() == []  # completion is not an eviction
        with pytest.raises(UnknownSession):
            store.remove("a")


# ---------------------------------------------------------------------------
# Append validation: the typed RequestError gate
# ---------------------------------------------------------------------------
class TestAppendValidation:
    def test_rejects_malformed_chunks(self):
        with pytest.raises(RequestError, match="non-empty"):
            validate_append_times([])
        with pytest.raises(RequestError, match="finite"):
            validate_append_times([0.0, np.nan])
        with pytest.raises(RequestError, match="duplicate"):
            validate_append_times([0.0, 96.0, 96.0])
        with pytest.raises(RequestError, match="out-of-order"):
            validate_append_times([0.0, 96.0, 48.0])

    def test_rejects_chunks_behind_the_session(self):
        with pytest.raises(RequestError, match="duplicate"):
            validate_append_times([96.0], last_time=96.0)
        with pytest.raises(RequestError, match="out-of-order"):
            validate_append_times([48.0], last_time=96.0)
        out = validate_append_times([192.0, 288.0], last_time=96.0)
        assert out.dtype == np.float64 and len(out) == 2

    def test_service_append_rejections_are_typed(self, data, model,
                                                 streaming):
        service = streaming(model, data)
        sample = data.test[0]
        raw = sample.raw_low
        sid = service.open()
        service.append(sid, raw.xy[:2], raw.times[:2])
        with pytest.raises(RequestError):  # behind the session's newest fix
            service.append(sid, raw.xy[:1], raw.times[:1])
        with pytest.raises(RequestError):  # same ε_ρ step as an old fix
            service.append(sid, raw.xy[2:3], raw.times[1:2] + 0.001)
        with pytest.raises(RequestError):  # NaN coordinates
            service.append(sid, np.array([[np.nan, 0.0]]),
                           raw.times[2:3])
        with pytest.raises(RequestError):  # shape mismatch
            service.append(sid, raw.xy[2:4], raw.times[2:3])
        # The session survived every rejection and still accepts fixes.
        update = service.append(sid, raw.xy[2:3], raw.times[2:3])
        assert update.grid_length > 0
        assert service.telemetry.stats()["errors"] == 4

    def test_open_on_a_finalized_or_unknown_session_fails(self, data, model,
                                                          streaming):
        service = streaming(model, data)
        with pytest.raises(UnknownSession):
            service.append("nope", np.zeros((1, 2)), [0.0])
        sample = data.test[0]
        sid, _, _ = _drive(service, sample, chunk=2)
        with pytest.raises(UnknownSession):  # finalize removed it
            service.finalize(sid)
        with pytest.raises(RequestError):  # < 2 fixes cannot finalize
            sid2 = service.open()
            service.append(sid2, sample.raw_low.xy[:1],
                           sample.raw_low.times[:1])
            service.finalize(sid2)


# ---------------------------------------------------------------------------
# Decoder primitives the engine is built on
# ---------------------------------------------------------------------------
class TestDecoderPrimitives:
    def test_split_decode_is_bit_identical_to_unsplit(self, data, model):
        batch = make_batch(data.test[:3])
        encoded = model.encode(batch)
        from repro.core.decoder import interpolation_prior

        constraint = reference.reference_constraint_tensor(
            batch, data.network.num_segments)
        constraint = constraint * reference.dense(interpolation_prior(
            batch, data.network, model.config.decode_prior_scale,
            model.config.decode_prior_floor))
        whole_seg, whole_rate = model.decoder.decode_greedy(
            encoded.point_features, encoded.trajectory_feature,
            batch.target_length, reference.constraint_from_dense(constraint),
            reachability=model.reachability)

        carry = model.decoder.initial_carry(encoded.trajectory_feature.data)
        parts = []
        cut = batch.target_length // 2
        for lo, hi in ((0, cut), (cut, batch.target_length)):
            seg, rate, carry = model.decoder.decode_greedy_from(
                encoded.point_features, carry, hi - lo,
                reference.constraint_from_dense(constraint[:, lo:hi]),
                reachability=model.reachability)
            parts.append((seg, rate))
        assert np.array_equal(np.concatenate([p[0] for p in parts], axis=1),
                              whole_seg)
        assert np.array_equal(np.concatenate([p[1] for p in parts], axis=1),
                              whole_rate)

    def test_suffix_constraint_matches_full_tensor_slice(self, data, model):
        """``decode_constraint(batch, start)`` materializes only grid rows
        ``[start:]``, bit-equal to slicing the full tensor — with the
        interpolation prior configured and off, for a batch of 1 and of 3."""
        no_prior = RNTrajRec(data.network,
                             replace(TINY, decode_prior_scale=0.0)).eval()
        assert model.config.decode_prior_scale > 0
        for variant in (model, no_prior):
            for size in (1, 3):
                batch = make_batch(data.test[:size])
                length = batch.target_length
                full = reference.dense(variant.decode_constraint(batch))
                assert full.shape == (size, length, data.network.num_segments)
                for start in (0, length // 2, length - 1):
                    suffix = reference.dense(
                        variant.decode_constraint(batch, start))
                    assert np.array_equal(suffix, full[:, start:])


# ---------------------------------------------------------------------------
# The correctness anchor: finalize == one-shot, across the matrix
# ---------------------------------------------------------------------------
class TestStreamingEquivalence:
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("horizon", [0, 2, 64])
    def test_finalize_equals_oneshot(self, data, model, streaming, chunk,
                                     horizon):
        service = streaming(model, data, commit_horizon=horizon)
        for sample in data.test[:2]:
            expected = _reference(model, data, sample)
            _, _, response = _drive(service, sample, chunk)
            got = response.trajectory
            assert np.array_equal(got.segments, expected.segments)
            assert np.array_equal(got.ratios, expected.ratios)
            assert np.array_equal(got.times, expected.times)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_finalize_equals_oneshot_at_denser_sampling(
            self, data_gap4, model_gap4, streaming, chunk):
        service = streaming(model_gap4, data_gap4, commit_horizon=2)
        for sample in data_gap4.test[:2]:
            expected = _reference(model_gap4, data_gap4, sample)
            _, _, response = _drive(service, sample, chunk)
            assert np.array_equal(response.trajectory.segments,
                                  expected.segments)
            assert np.array_equal(response.trajectory.ratios,
                                  expected.ratios)

    def test_committed_prefix_never_changes_after_commit(self, data, model,
                                                         streaming):
        service = streaming(model, data, commit_horizon=2)
        sample = data.test[0]
        _, updates, _ = _drive(service, sample, chunk=1)
        decoded = [u for u in updates if u.trajectory is not None]
        for earlier, later in zip(decoded, decoded[1:]):
            frozen = earlier.committed_steps
            assert later.committed_steps >= frozen
            assert np.array_equal(later.trajectory.segments[:frozen],
                                  earlier.trajectory.segments[:frozen])
            assert later.revised_from == -1 or later.revised_from >= frozen

    def test_wide_horizon_streams_the_exact_oneshot_every_append(
            self, data, model, streaming):
        """With a horizon wider than the grid nothing commits: every update
        is a full decode from step 0, finalize short-circuits (no second
        decode) and still equals the one-shot result."""
        service = streaming(model, data, commit_horizon=10_000)
        sample = data.test[1]
        expected = _reference(model, data, sample)
        sid, updates, _ = _drive(service, sample, chunk=1)
        last = updates[-1]
        assert last.committed_steps == 0 and last.skipped_steps == 0
        assert np.array_equal(last.trajectory.segments, expected.segments)

        # Engine-level: the stored full decode is returned verbatim.
        scheduler = service.service.scheduler
        session = SessionState("x", hour=sample.hour, holiday=sample.holiday)
        assembled = stream_engine.append_fixes(
            session, data.network, service.ingest, sample.raw_low.xy,
            sample.raw_low.times)
        stream_engine.decode(model, session, assembled, 10_000, scheduler)
        trajectory, revised_from, ran_decode = stream_engine.finalize(
            model, session, assembled, scheduler)
        assert not ran_decode and revised_from == -1
        assert np.array_equal(trajectory.segments, expected.segments)


# ---------------------------------------------------------------------------
# Service semantics: updates, lifecycle, telemetry
# ---------------------------------------------------------------------------
class TestStreamingService:
    def test_update_bookkeeping(self, data, model, streaming):
        horizon = 2
        service = streaming(model, data, commit_horizon=horizon, shard="cd")
        sample = data.test[0]
        sid, updates, response = _drive(service, sample, chunk=1)
        assert updates[0].trajectory is None  # one fix cannot decode yet
        assert updates[0].session_id == sid
        for update in updates[1:]:
            assert update.trajectory is not None
            assert len(update.trajectory) == update.grid_length
            assert update.decoded_steps + update.skipped_steps == \
                update.grid_length
            assert update.committed_steps <= update.grid_length
            assert update.shard == "cd" and update.model == "default"
        # Later appends resume from the checkpoint instead of step 0: each
        # re-decodes at most the horizon plus the steps its fix added.
        assert len(updates) > 2
        for previous, update in zip(updates[1:], updates[2:]):
            assert update.decoded_steps <= horizon + (
                update.grid_length - previous.grid_length)
        assert updates[-1].skipped_steps > 0
        assert response.session_id == sid
        assert response.shard == "cd"

    def test_appends_build_each_fix_subgraph_once(self, data, model, streaming,
                                                  monkeypatch):
        """Every append re-encodes the session's fixes, and the sub-graph
        memo serves the earlier ones: 32 one-fix appends and the finalize
        build each fix's sub-graph once, even with the memo flipping its
        generations after every batch."""
        from repro import profile
        from repro.core import subgraph_gen

        monkeypatch.setattr(subgraph_gen, "GENERATION_BATCHES", 1)
        simulation = replace(data.spec.simulation, target_points=48)
        raw, _ = TrajectorySimulator(data.network, simulation).simulate(1)[0]
        xy, times = raw.xy[:32], raw.times[:32]
        assert len(xy) == 32
        service = streaming(model, data)
        model.encoder.subgraph_generator.clear_cache()
        profile.reset()
        profile.enable()
        try:
            sid = service.open()
            for j in range(32):
                service.append(sid, xy[j:j + 1], times[j:j + 1])
            service.finalize(sid)
            builds = profile.stats()["counters"]["subgraph.build"]
        finally:
            profile.disable()
            profile.reset()
        assert builds == len(np.unique(np.round(xy), axis=0))

    def test_telemetry_splits_streaming_from_oneshot(self, data, model,
                                                     streaming):
        service = streaming(model, data)
        tag = service.registry.active_ref()[1]
        # One-shot traffic through the same telemetry object.
        service.telemetry.record_request(0.01, cache_hit=False, model_tag=tag)
        _drive(service, data.test[0], chunk=2)
        stats = service.stats()
        assert stats["streaming_requests"] >= 3  # appends + finalize
        assert stats["oneshot_requests"] == 1
        assert stats["streaming_by_model"][tag] == stats["streaming_requests"]
        assert tag in stats["revision_rate_by_model"]
        assert 0.0 <= stats["revision_rate_by_model"][tag] <= 1.0
        assert stats["sessions"]["opened"] == 1
        assert stats["sessions"]["finalized"] == 1
        assert stats["commit_horizon"] == 8  # the default

    def test_store_pressure_surfaces_through_the_service(self, data, model,
                                                         streaming):
        clock = FakeClock()
        service = streaming(model, data, clock=clock, capacity=1,
                            ttl_seconds=50.0, evict_idle_seconds=1_000.0)
        sample = data.test[0]
        sid = service.open()
        service.append(sid, sample.raw_low.xy[:2], sample.raw_low.times[:2])
        clock.advance(5.0)
        with pytest.raises(SessionOverloaded):  # resident session too fresh
            service.open()
        clock.advance(60.0)  # TTL passes; next open sweeps the stale session
        sid2 = service.open()
        with pytest.raises(UnknownSession):
            service.append(sid, sample.raw_low.xy[2:3],
                           sample.raw_low.times[2:3])
        assert sid2 in service.store
        records = service.evictions()
        assert records and records[-1]["session_id"] == sid
        assert records[-1]["reason"] == "ttl"
        assert records[-1]["fixes"] == 2

    def test_hot_swap_invalidates_the_carry_checkpoint(self, data, model,
                                                       streaming):
        service = streaming(model, data, commit_horizon=2)
        challenger = RNTrajRec(data.network, TINY).eval()
        service.registry.add_loaded("challenger", challenger)
        sample = data.test[0]
        raw = sample.raw_low
        sid = service.open(hour=sample.hour, holiday=sample.holiday)
        for j in range(len(raw) - 1):
            update = service.append(sid, raw.xy[j:j + 1], raw.times[j:j + 1])
        assert update.skipped_steps > 0  # a checkpoint was in use

        service.registry.activate("challenger")
        update = service.append(sid, raw.xy[-1:], raw.times[-1:])
        assert update.model == "challenger"
        assert update.skipped_steps == 0  # old-weights carry was dropped

        response = service.finalize(sid)
        expected = _reference(challenger, data, sample)
        assert np.array_equal(response.trajectory.segments,
                              expected.segments)

    def test_hot_swap_invalidates_the_stored_full_decode(self, data, model,
                                                         streaming):
        """Purity: a session that never crossed its horizon holds a full
        decode finalize may return verbatim — but only under the model
        that decoded it.  After a swap, finalize must answer with the
        active model's recovery, not the old one under a new stamp."""
        service = streaming(model, data, commit_horizon=10_000)
        challenger = RNTrajRec(data.network, TINY).eval()
        service.registry.add_loaded("challenger", challenger)
        sample = data.test[0]
        sid = service.open(hour=sample.hour, holiday=sample.holiday)
        service.append(sid, sample.raw_low.xy, sample.raw_low.times)

        service.registry.activate("challenger")
        response = service.finalize(sid)
        assert response.model == "challenger"
        expected = _reference(challenger, data, sample)
        stale = _reference(model, data, sample)
        assert not np.array_equal(expected.segments, stale.segments)
        assert np.array_equal(response.trajectory.segments, expected.segments)
        assert np.array_equal(response.trajectory.ratios, expected.ratios)

    def test_finalize_joins_the_slot_table(self, data, model):
        """A session past its horizon finalizes as exactly one more
        admission into its one-shot service's slot table, and the answer
        is the one-shot recovery."""
        serve = RecoveryService.from_model(
            model, ServeConfig.for_spec(data.spec))
        service = StreamingRecoveryService(serve, commit_horizon=2)
        sample = data.test[0]
        raw = sample.raw_low
        try:
            sid = service.open(hour=sample.hour, holiday=sample.holiday)
            for j in range(len(raw)):
                update = service.append(sid, raw.xy[j:j + 1],
                                        raw.times[j:j + 1])
            assert update.skipped_steps > 0  # past the horizon
            before = serve.scheduler.stats()["admitted"]
            response = service.finalize(sid)
            assert serve.scheduler.stats()["admitted"] == before + 1
        finally:
            service.close()
            serve.close()
        expected = _reference(model, data, sample)
        assert np.array_equal(response.trajectory.segments, expected.segments)
        assert np.array_equal(response.trajectory.ratios, expected.ratios)
        assert np.array_equal(response.trajectory.times, expected.times)

    def test_closed_service_refuses_work(self, data, model, streaming):
        service = streaming(model, data)
        service.close()
        with pytest.raises(RuntimeError):
            service.open()


# ---------------------------------------------------------------------------
# Session -> shard affinity over a cluster
# ---------------------------------------------------------------------------
class TestStreamingCluster:
    @pytest.fixture()
    def cluster(self, data):
        built = RecoveryCluster(
            side_by_side(["chengdu", "chengdu"], gap=600.0),
            model_factory=lambda spec, network: RNTrajRec(network,
                                                          TINY).eval(),
            network_factory=lambda spec: data.network,
        )
        yield built
        built.close()

    def test_sessions_pin_to_the_owning_shard(self, data, cluster):
        streaming = StreamingCluster(cluster)
        sample = data.test[0]
        origin = cluster.shards[1].spec.origin
        shifted = sample.raw_low.xy + np.asarray(origin)

        sid, shard_name = streaming.open(shifted[0], hour=sample.hour,
                                         holiday=sample.holiday)
        assert shard_name == cluster.shards[1].name
        for j in range(len(shifted)):
            update = streaming.append(sid, shifted[j:j + 1],
                                      sample.raw_low.times[j:j + 1])
            assert update.shard == shard_name
        response = streaming.finalize(sid)
        assert response.shard == shard_name

        # Localized appends produce the same recovery the owning shard's
        # model gives for the city-frame trace.  The reference round-trips
        # the global->local translation too: (xy + origin) - origin is not
        # bitwise xy, and the decode is deliberately bit-exact, not robust
        # to sub-micron coordinate perturbation.
        local = shifted - np.asarray(origin)
        request = RecoveryRequest(local, sample.raw_low.times,
                                  hour=sample.hour, holiday=sample.holiday)
        assembled = assemble_sample(request, data.network, _ingest(data))
        expected = cluster.shards[1].registry.active_ref()[2] \
            .recover_trajectories(make_batch([assembled]))[0]
        assert np.array_equal(response.trajectory.segments, expected.segments)

        # The pin is released: the session is gone everywhere.
        with pytest.raises(UnknownSession):
            streaming.append(sid, shifted[:1], sample.raw_low.times[:1])
        assert streaming.stats()["pinned_sessions"] == 0
        assert shard_name in streaming.stats()["shards"]

    def test_unroutable_open_is_rejected(self, cluster):
        streaming = StreamingCluster(cluster)
        with pytest.raises(RouteError):
            streaming.open(np.array([1e9, 1e9]))
        assert cluster.dead_letters()[-1]["reason"] == "outside"
        assert cluster.stats()["router"]["unroutable"] == 1

    def test_evictions_roll_up_with_shard_labels(self, data, cluster):
        clock = FakeClock()
        streaming = StreamingCluster(
            cluster, store=StoreConfig(ttl_seconds=10.0), clock=clock)
        sample = data.test[0]
        sid, shard_name = streaming.open(sample.raw_low.xy[0])
        streaming.append(sid, sample.raw_low.xy[:2], sample.raw_low.times[:2])
        clock.advance(30.0)
        sid2, _ = streaming.open(sample.raw_low.xy[0])  # sweeps the stale one
        records = streaming.evictions()
        assert [r["session_id"] for r in records] == [sid]
        assert records[0]["shard"] == shard_name
        with pytest.raises(UnknownSession):  # the store forgot it: so did we
            streaming.finalize(sid)
        assert sid2  # the fresh session stays usable
        streaming.close()

    def test_abandoned_sessions_leave_no_pin(self, data, cluster):
        """The stores are the only membership: what one expired is not
        pinned either, whether or not its client ever comes back."""
        clock = FakeClock()
        streaming = StreamingCluster(
            cluster, store=StoreConfig(ttl_seconds=10.0), clock=clock)
        point = data.test[0].raw_low.xy[0]
        for _ in range(50):
            streaming.open(point)
        assert streaming.stats()["pinned_sessions"] == 50
        clock.advance(30.0)
        streaming.open(point)
        stats = streaming.stats()
        live = sum(block["sessions"]["active_sessions"]
                   for block in stats["shards"].values())
        assert stats["pinned_sessions"] == live == 1

    def test_a_session_id_lives_on_one_shard(self, data, cluster):
        clock = FakeClock()
        streaming = StreamingCluster(
            cluster, store=StoreConfig(ttl_seconds=10.0), clock=clock)
        raw = data.test[0].raw_low
        there = raw.xy + np.asarray(cluster.shards[1].spec.origin)
        assert streaming.open(raw.xy[0], session_id="dev-7")[1] == \
            cluster.shards[0].name
        for point in (there[0], raw.xy[0]):  # the sibling shard, then its own
            with pytest.raises(StreamError, match="already open"):
                streaming.open(point, session_id="dev-7")
        # The first session was not orphaned: it still appends where it is.
        assert streaming.append("dev-7", raw.xy[:2], raw.times[:2]).shard == \
            cluster.shards[0].name
        clock.advance(30.0)  # ... and once it expired the id is free again
        assert streaming.open(there[0], session_id="dev-7")[1] == \
            cluster.shards[1].name

    def test_racing_opens_of_one_id_admit_exactly_one(self, data, cluster):
        """Check-then-open is one step: 16 threads over two shards, 1e-5 s
        switch interval, and the id ends up live in exactly one store."""
        streaming = StreamingCluster(cluster)
        raw = data.test[0].raw_low
        points = [raw.xy[0], raw.xy[0] + np.asarray(cluster.shards[1].spec.origin)]
        streaming.open(points[0]), streaming.open(points[1])  # both services built
        outcomes, barrier = [], threading.Barrier(16)

        def race(index):
            barrier.wait(timeout=10.0)
            try:
                outcomes.append(streaming.open(points[index % 2],
                                               session_id="contested")[1])
            except StreamError:
                outcomes.append(None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=race, args=(i,)) for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(outcomes) == 16 and outcomes.count(None) == 15
        assert streaming.stats()["pinned_sessions"] == 3

    def test_open_without_a_point_needs_a_one_shard_map(self, data, cluster):
        with pytest.raises(RequestError, match="point"):
            StreamingCluster(cluster).open()
        with RecoveryCluster(
                side_by_side(["chengdu"]), network_factory=lambda s: data.network,
                model_factory=lambda s, n: RNTrajRec(n, TINY).eval()) as solo:
            assert StreamingCluster(solo).open()[1] == "chengdu"

    def test_overrides_never_carry_an_ingest_grid(self, cluster):
        """A session's ingest grid comes only from its ``RecoveryService``'s
        ``ServeConfig``: no ingest field is a streaming parameter at all."""
        ingest = {"interval", "beta", "max_gps_error"}
        for surface in (StreamingCluster, StreamingRecoveryService,
                        StoreConfig):
            assert not ingest & set(inspect.signature(surface).parameters)
        with pytest.raises(TypeError):
            StreamingCluster(cluster, interval=12.0)
        with pytest.raises(TypeError):
            StreamingCluster(cluster, no_such_field=1)


# ---------------------------------------------------------------------------
# Degraded-input edges: scenario-generated gaps through the streaming path
# ---------------------------------------------------------------------------
class TestDegradedStreaming:
    @pytest.fixture(scope="class")
    def pairs(self, data):
        return TrajectorySimulator(data.network,
                                   data.spec.simulation).simulate(6)

    @pytest.fixture(scope="class")
    def outage_samples(self, data, pairs):
        """Recovery samples whose fixes carry contiguous observation gaps
        (the repro.scenarios Outage degrader over the same city/recipe)."""
        scenario = Scenario(name="outage",
                            transforms=(Outage(gaps=2, min_span=4,
                                               max_span=10),),
                            seed=3)
        return build_scenario_samples(pairs, data.network, scenario,
                                      data.spec.dataset)

    def test_gap_times_pass_append_validation(self, data, outage_samples):
        """Times that jump whole outage windows are still valid appends —
        a gap is not an error; only regressions and duplicates are."""
        interval = data.spec.simulation.sample_interval
        saw_gap = False
        for sample in outage_samples:
            times = sample.raw_low.times
            saw_gap = saw_gap or bool(np.any(np.diff(times) > 8 * interval))
            last = None
            for j in range(len(times)):
                out = validate_append_times(times[j:j + 1], last_time=last)
                assert out.dtype == np.float64
                last = float(times[j])
            # Replaying any pre-gap fix after the gap stays a typed error.
            with pytest.raises(RequestError):
                validate_append_times(times[:1], last_time=last)
        assert saw_gap  # the scenario really produced outage-scale gaps

    # The chengdu recipe keeps every 8th fix, standard_scenarios' default.
    @pytest.mark.parametrize("scenario", standard_scenarios(),
                             ids=lambda scenario: scenario.name)
    def test_outage_sessions_finalize_exactly(self, data, model, streaming,
                                              pairs, scenario):
        """finalize() == one-shot recovery under every standard scenario's
        fix pattern (mixed strides, outage gaps, noise bursts): the
        commit-horizon machinery must not drift when appends land far past
        the committed frontier."""
        samples = build_scenario_samples(pairs, data.network, scenario,
                                         data.spec.dataset)
        service = streaming(model, data, commit_horizon=2)
        for sample in samples[:3]:
            sid, _, response = _drive(service, sample, chunk=1)
            segments, rates = model.recover(make_batch([sample]))
            assert np.array_equal(response.trajectory.segments, segments[0])
            assert np.array_equal(response.trajectory.ratios, rates[0])

    def test_eviction_ring_under_degraded_churn(self, data, model, streaming,
                                                outage_samples):
        """Devices driving degraded traces drop offline mid-trip; the
        eviction ring must account for every aborted session — fixes,
        appends, revisions — and stay bounded."""
        clock = FakeClock()
        service = streaming(model, data, commit_horizon=1, clock=clock,
                            capacity=2, ttl_seconds=10_000.0, eviction_log=4)
        appended: dict = {}
        for round_ in range(4):
            for sample in outage_samples[:2]:
                sid = service.open(hour=sample.hour, holiday=sample.holiday)
                raw = sample.raw_low
                count = 2 + (round_ % 2)  # vary per-session append churn
                for j in range(min(count, len(raw))):
                    service.append(sid, raw.xy[j:j + 1], raw.times[j:j + 1])
                appended[sid] = min(count, len(raw))
                clock.advance(1.0)
                # ... and the device goes dark: no finalize, ever.

        records = service.evictions()
        assert len(records) <= 4  # the ring is bounded by eviction_log
        assert service.store.stats()["evicted_lru"] == 6  # 8 opened, cap 2
        for record in records:
            assert record["reason"] == "lru"
            assert record["fixes"] == record["appends"] == \
                appended[record["session_id"]]
            assert record["revisions"] >= 0
            assert record["committed_steps"] >= 0
        # Aborted sessions with enough fixes did real incremental work —
        # the ring preserves the decode telemetry of sessions nobody will
        # ever finalize.
        assert any(r["committed_steps"] > 0 for r in records
                   if r["fixes"] >= 3)

    @pytest.fixture(scope="class")
    def irregular_samples(self, data, outage_samples):
        """Clean traces plus Outage and VariableRate ones: irregular gaps
        between fixes, where session ingest and one-shot assembly must
        agree most."""
        pairs = TrajectorySimulator(data.network,
                                    data.spec.simulation).simulate(4)
        variable = build_scenario_samples(
            pairs, data.network,
            Scenario(name="variable", transforms=(VariableRate(),), seed=5),
            data.spec.dataset)
        return list(data.test[:3]) + list(outage_samples[:3]) + variable

    @pytest.fixture(scope="class")
    def oneshot(self, data, model):
        with RecoveryService.from_model(
                model, ServeConfig.for_spec(data.spec)) as service:
            yield service

    @staticmethod
    def _fields(sample):
        """Every field of a recovery sample, arrays as (dtype, shape, bytes)."""
        def raw(array):
            return array.dtype.str, array.shape, array.tobytes()

        return ([raw(a) for a in (
            sample.raw_low.xy, sample.raw_low.times, sample.target.segments,
            sample.target.ratios, sample.target.times, sample.observed_steps)]
            + [None if entry is None else tuple(map(raw, entry))
               for entry in sample.constraints]
            + [sample.hour, sample.holiday])

    @given(pick=st.data())
    @settings(max_examples=20, deadline=None)
    def test_session_sample_is_oneshot_assembly(self, data, model,
                                                irregular_samples, oneshot,
                                                pick):
        """Random 1–4-fix chunkings of clean and degraded traces: after
        every append the session's decode sample equals ``assemble_sample``
        over the fixes so far, field by field in bytes, and ``finalize``
        equals ``RecoveryService.recover`` of the same fixes."""
        sample = pick.draw(st.sampled_from(irregular_samples))
        service = StreamingRecoveryService(
            oneshot, pick.draw(st.sampled_from([0, 2, 8, 10_000])))
        raw, ingest = sample.raw_low, oneshot.config.ingest()
        sid = service.open(hour=sample.hour, holiday=sample.holiday)
        seen = 0
        while seen < len(raw):
            stop = min(len(raw), seen + pick.draw(st.integers(1, 4)))
            service.append(sid, raw.xy[seen:stop], raw.times[seen:stop])
            seen = stop
            if seen < 2:
                continue
            request = RecoveryRequest(raw.xy[:seen], raw.times[:seen],
                                      hour=sample.hour, holiday=sample.holiday)
            session = service.store.get(sid)
            assert self._fields(stream_engine.session_sample(
                session, data.network, ingest)) == self._fields(
                    assemble_sample(request, data.network, ingest))
        final = service.finalize(sid).trajectory
        expected = oneshot.recover(request).trajectory
        assert np.array_equal(final.segments, expected.segments)
        assert np.array_equal(final.ratios, expected.ratios)
        assert np.array_equal(final.times, expected.times)
