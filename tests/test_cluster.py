"""Tests for the ``repro.cluster`` sharded multi-city serving layer."""

import json
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    RecoveryCluster,
    RouteError,
    Shard,
    ShardMap,
    ShardOverloaded,
    ShardRouter,
    ShardSpec,
    load_shard_map,
    side_by_side,
)
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.datasets import load_dataset
from repro.serve import RecoveryRequest
from repro.trajectory import make_batch


# ---------------------------------------------------------------------------
# Fixtures: one tiny untrained model recipe, a two-city map
# ---------------------------------------------------------------------------
TINY = RNTrajRecConfig(hidden_dim=16, num_heads=2, dropout=0.0,
                       receptive_delta=300.0, max_subgraph_nodes=24)


@pytest.fixture(scope="module")
def data():
    return load_dataset("chengdu", num_trajectories=40)


def tiny_factory(spec, network):
    return RNTrajRec(network, TINY).eval()


def two_city_map(**shard_kwargs):
    return side_by_side(["chengdu", "chengdu"], gap=600.0, **shard_kwargs)


@pytest.fixture()
def cluster(data):
    built = RecoveryCluster(
        two_city_map(),
        model_factory=tiny_factory,
        network_factory=lambda spec: data.network,  # reuse the cached city
    )
    yield built
    built.close()


def _request(sample, request_id="", offset=(0.0, 0.0)):
    return RecoveryRequest(sample.raw_low.xy + np.asarray(offset),
                           sample.raw_low.times, hour=sample.hour,
                           holiday=sample.holiday, request_id=request_id)


# ---------------------------------------------------------------------------
# Shard map and shard-map files
# ---------------------------------------------------------------------------
class TestShardMap:
    def test_side_by_side_boxes_are_disjoint(self):
        smap = side_by_side(["chengdu", "porto", "shanghai"], gap=500.0)
        assert smap.names() == ["chengdu", "porto", "shanghai"]
        boxes = [spec.resolved_bbox() for spec in smap]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert a[2] <= b[0] or b[2] <= a[0]  # disjoint in x

    def test_overlapping_boxes_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            ShardMap(shards=(
                ShardSpec(name="a", dataset="chengdu", origin=(0.0, 0.0)),
                ShardSpec(name="b", dataset="chengdu", origin=(100.0, 0.0)),
            ))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShardMap(shards=(
                ShardSpec(name="a", dataset="chengdu"),
                ShardSpec(name="a", dataset="chengdu", origin=(5000.0, 0.0)),
            ))

    def test_spec_requires_dataset_or_bbox(self):
        with pytest.raises(ValueError, match="dataset name or an explicit bbox"):
            ShardSpec(name="x")
        spec = ShardSpec(name="x", bbox=(0.0, 0.0, 100.0, 100.0))
        assert spec.resolved_bbox() == (0.0, 0.0, 100.0, 100.0)

    def test_json_round_trip(self, tmp_path):
        payload = {
            "serve": {"cache_capacity": 64},
            "shards": [
                {"name": "cd", "dataset": "chengdu", "origin": [0.0, 0.0],
                 "backend": "process", "replicas": 2, "max_inflight": 3},
                {"name": "pt", "dataset": "porto", "origin": [2500.0, 0.0],
                 "bundle": "runs/porto_model"},
            ],
        }
        path = tmp_path / "map.json"
        path.write_text(json.dumps(payload))
        smap = load_shard_map(str(path))
        assert smap.serve == {"cache_capacity": 64}
        assert smap.names() == ["cd", "pt"]
        assert smap.shards[0].replicas == 2
        assert smap.shards[0].max_inflight == 3
        assert smap.shards[1].bundle == "runs/porto_model"

    def test_toml_parses(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # noqa: F841  (py >= 3.11)
        path = tmp_path / "map.toml"
        path.write_text(
            "[serve]\ncache_capacity = 8\n\n"
            "[[shard]]\nname = \"cd\"\ndataset = \"chengdu\"\n"
            "origin = [0.0, 0.0]\n\n"
            "[[shard]]\nname = \"sh\"\ndataset = \"shanghai\"\n"
            "origin = [3000.0, 0.0]\nbackend = \"process\"\nreplicas = 2\n"
        )
        smap = load_shard_map(str(path))
        assert smap.names() == ["cd", "sh"]
        assert smap.serve == {"cache_capacity": 8}
        assert smap.shards[1].replicas == 2

    def test_unknown_top_level_keys_rejected(self, tmp_path):
        """A misspelled section, or a retired ``[cluster]`` one, is a
        load error that names it — never silently default settings."""
        path = tmp_path / "map.json"
        shards = [{"name": "cd", "dataset": "chengdu"}]
        for extra in ({"server": {"cache_capacity": 8}},
                      {"cluster": {"cell_size": 5.0}}):
            path.write_text(json.dumps({**extra, "shards": shards}))
            with pytest.raises(ValueError, match=repr(next(iter(extra)))):
                load_shard_map(str(path))

    def test_doc_shard_maps_parse(self, tmp_path):
        """Every TOML/JSON shard-map block in docs/cluster.md loads, so
        the guide cannot drift from the schema."""
        pytest.importorskip("tomllib")  # py >= 3.11
        guide = Path(__file__).resolve().parents[1] / "docs" / "cluster.md"
        blocks = re.findall(r"```(toml|json)\n(.*?)```",
                            guide.read_text(encoding="utf-8"), re.S)
        assert {kind for kind, _ in blocks} == {"toml", "json"}
        for i, (kind, text) in enumerate(blocks):
            path = tmp_path / f"map{i}.{kind}"
            path.write_text(text)
            assert load_shard_map(str(path)).names()

    def test_inproc_shard_is_one_service(self):
        with pytest.raises(ValueError, match="backend='process'"):
            ShardSpec(name="x", dataset="chengdu", replicas=2)
        spec = ShardSpec(name="x", dataset="chengdu", replicas=2,
                         backend="process")
        assert spec.replicas == 2

    def test_unknown_shard_keys_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"shards": [
            {"name": "cd", "dataset": "chengdu", "replicsa": 2}]}))
        with pytest.raises(ValueError, match="unknown shard keys"):
            load_shard_map(str(path))

    def test_unknown_serve_keys_rejected_at_parse_time(self, tmp_path):
        """A [serve] typo — or a retired key in a stale map — must fail at
        load, not as an HTTP 500 on the first lazily warmed request."""
        path = tmp_path / "map.json"
        for serve in ({"max_batchsize": 8}, {"scheduler": "continuous"}):
            path.write_text(json.dumps({
                "serve": serve,
                "shards": [{"name": "cd", "dataset": "chengdu"}],
            }))
            with pytest.raises(ValueError, match="unknown serve override keys"):
                load_shard_map(str(path))


# ---------------------------------------------------------------------------
# Router edge cases (pure geometry, no models)
# ---------------------------------------------------------------------------
class TestShardRouter:
    BOXES = [(0.0, 0.0, 1000.0, 1000.0), (1500.0, 0.0, 2500.0, 1000.0)]

    def test_routes_interior_traces(self):
        router = ShardRouter(self.BOXES, cell_size=200.0)
        assert router.shard_of_points([[100.0, 100.0], [900.0, 900.0]]) == 0
        assert router.shard_of_points([[1600.0, 500.0], [2400.0, 10.0]]) == 1

    def test_trace_on_shard_boundary_routes_exactly(self):
        """Fixes on the bbox edge belong to the shard (inclusive bounds),
        even though their grid cell's center may lie outside it."""
        router = ShardRouter(self.BOXES, cell_size=300.0)  # 1000/300 ≠ integer
        assert router.shard_of_points([[1000.0, 500.0], [999.9, 400.0]]) == 0
        assert router.shard_of_points([[1500.0, 0.0], [1500.0, 1000.0]]) == 1

    def test_outside_all_shards(self):
        router = ShardRouter(self.BOXES, cell_size=200.0)
        with pytest.raises(RouteError) as err:
            router.shard_of_points([[100.0, 100.0], [1200.0, 500.0]])
        assert err.value.reason == "outside"  # 1200 is in the corridor gap
        with pytest.raises(RouteError) as err:
            router.shard_of_points([[-500.0, -500.0], [-400.0, -500.0]])
        assert err.value.reason == "outside"

    def test_straddling_trace_rejected(self):
        router = ShardRouter(self.BOXES, cell_size=200.0)
        with pytest.raises(RouteError) as err:
            router.shard_of_points([[900.0, 500.0], [1600.0, 500.0]])
        assert err.value.reason == "straddle"

    def test_coverage_counts_owned_cells(self):
        router = ShardRouter(self.BOXES, cell_size=250.0)
        owned, total = router.coverage()
        assert 0 < owned < total  # the corridor between the boxes is unowned


# ---------------------------------------------------------------------------
# Cluster end to end: routing, localization, dead letters
# ---------------------------------------------------------------------------
class TestClusterRouting:
    def test_lazy_warm_up_and_localized_equivalence(self, data, cluster):
        """Shards materialize on first routed request, and a trace routed
        into the translated city recovers exactly what a direct local
        recovery produces."""
        assert not any(shard.materialized for shard in cluster.shards)
        sample = data.test[0]
        origin = cluster.shard("chengdu-2").spec.origin
        response = cluster.recover(_request(sample, "b", offset=origin),
                                   timeout=300.0)
        assert cluster.shard("chengdu-2").materialized
        assert not cluster.shard("chengdu").materialized  # untouched sibling
        assert response.shard == "chengdu-2"
        assert response.model_tag == "default#1"

        model = cluster.shard("chengdu-2").registry.load("default")
        direct = model.recover_trajectories(make_batch([sample]))[0]
        assert np.array_equal(direct.segments, response.trajectory.segments)
        assert np.allclose(direct.ratios, response.trajectory.ratios)

    def test_unroutable_traces_dead_letter(self, data, cluster):
        sample = data.test[0]
        origin = cluster.shard("chengdu-2").spec.origin
        straddle_xy = np.vstack([sample.raw_low.xy[:1],
                                 sample.raw_low.xy[1:2] + np.asarray(origin)])
        results = cluster.recover_many([
            _request(sample, "ok"),
            RecoveryRequest([[99000.0, 0.0], [99100.0, 0.0]],
                            [0.0, 96.0], request_id="lost"),
            RecoveryRequest(straddle_xy, sample.raw_low.times[:2],
                            request_id="crossing"),
        ], timeout=300.0)
        assert [r.status for r in results] == ["ok", "unroutable", "unroutable"]
        letters = cluster.dead_letters()
        assert [letter["request_id"] for letter in letters] == ["lost", "crossing"]
        assert [letter["reason"] for letter in letters] == ["outside", "straddle"]
        stats = cluster.stats()
        assert stats["router"]["unroutable_by_reason"] == {
            "outside": 1, "straddle": 1}
        assert stats["cluster"]["requests"] == 1

    def test_submit_future_fails_with_route_error(self, cluster):
        future = cluster.submit(RecoveryRequest(
            [[99000.0, 0.0], [99100.0, 0.0]], [0.0, 96.0], request_id="x"))
        with pytest.raises(RouteError):
            future.result(timeout=10.0)


# ---------------------------------------------------------------------------
# Backpressure: bounded admission, round-robin replicas, shedding
# ---------------------------------------------------------------------------
class TestShedding:
    def test_all_replicas_saturated_sheds(self, data):
        """With the shard at its admission bound, further submits shed
        with ShardOverloaded instead of queueing; draining re-opens
        admission."""
        cluster = RecoveryCluster(
            ShardMap(shards=(ShardSpec(name="cd", dataset="chengdu",
                                       max_inflight=1),)),
            model_factory=tiny_factory,
            network_factory=lambda spec: data.network)
        try:
            sample = data.test[0]
            # One admitted; the service is now busy decoding (a single
            # decode takes tens of ms) ...
            admitted = cluster.submit(_request(sample, "a0"))
            # ... so the rest of the burst must shed, synchronously.
            results = cluster.recover_many(
                [_request(sample, f"s{i}") for i in range(4)], timeout=0.5)
            assert [r.status for r in results] == ["shed"] * 4
            assert all(r.shard == "cd" for r in results)
            stats = cluster.stats()
            assert stats["shards"]["cd"]["shed"] == 4
            assert stats["shards"]["cd"]["inflight"] <= 1  # bounded, not queued
            assert stats["router"]["shed_by_shard"] == {"cd": 4}
            sheds = [l for l in cluster.dead_letters() if l["reason"] == "shed"]
            assert len(sheds) == 4

            admitted.result(timeout=300.0)  # the admitted one still completes
            # Admission re-opens once in-flight work drains.
            reopened = cluster.recover(_request(sample, "again"), timeout=300.0)
            assert reopened.shard == "cd"
        finally:
            cluster.close()

    def test_replicas_drain_round_robin(self):
        # Placement reads only the in-flight counts, so a cold process
        # shard (no workers forked) is enough.
        shard = Shard(ShardSpec(name="cd", dataset="chengdu",
                                backend="process", replicas=2,
                                max_inflight=4))
        picks = [shard._pick_replica() for _ in range(4)]
        assert picks == [0, 1, 0, 1]
        assert not shard.materialized


# ---------------------------------------------------------------------------
# Hot swap: one shard's rollout never touches siblings
# ---------------------------------------------------------------------------
class TestHotSwap:
    def test_swap_one_shard_while_sibling_serves(self, data, cluster):
        sample = data.test[0]
        origin2 = cluster.shard("chengdu-2").spec.origin
        first_a = cluster.recover(_request(sample, "a1"), timeout=300.0)
        first_b = cluster.recover(_request(sample, "b1", offset=origin2),
                                  timeout=300.0)
        assert first_a.model_tag == first_b.model_tag == "default#1"

        # Roll a new generation onto chengdu only, while chengdu-2 serves
        # a concurrent request.
        replacement = RNTrajRec(cluster.shard("chengdu").network, TINY).eval()
        inflight = cluster.submit(_request(sample, "b2", offset=origin2))
        deployed = cluster.deploy_model("chengdu", "v2", replacement)
        assert deployed == {"model": "v2", "model_tag": "v2#1"}

        after_a = cluster.recover(_request(sample, "a2"), timeout=300.0)
        after_b = cluster.recover(_request(sample, "b3", offset=origin2),
                                  timeout=300.0)
        assert inflight.result(timeout=300.0).model_tag == "default#1"
        # Swapped shard serves the new generation, uncached (keys fold the
        # model tag) and equal to the replacement model's direct output.
        assert after_a.model_tag == "v2#1"
        assert not after_a.cached
        direct = replacement.recover_trajectories(make_batch([sample]))[0]
        assert np.array_equal(direct.segments, after_a.trajectory.segments)
        # The sibling still serves its original generation — from cache.
        assert after_b.model_tag == "default#1"
        assert after_b.cached

        stats = cluster.stats()
        assert stats["shards"]["chengdu"]["deploys"] == 1
        assert stats["shards"]["chengdu-2"]["deploys"] == 0
        assert set(stats["shards"]["chengdu"]["requests_by_model"]) == {
            "default#1", "v2#1"}

    def test_rolling_deploys_keep_at_most_two_generations(self, cluster):
        """Sustained rollouts must not accumulate models: after each
        activation only the new generation and its immediate predecessor
        (instant rollback) stay resident."""
        shard = cluster.shard("chengdu")
        shard.warm()
        for i in range(4):
            shard.deploy(f"roll{i}", RNTrajRec(shard.network, TINY).eval())
        assert shard.registry.names() == ["roll2", "roll3"]
        assert shard.active_model()["model"] == "roll3"
        # The predecessor still swaps back in without a reload from disk.
        shard.swap("roll2")
        assert shard.active_model()["model"] == "roll2"

    def test_swap_unknown_shard_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.swap_model("nope", "v2")


# ---------------------------------------------------------------------------
# Telemetry rollup
# ---------------------------------------------------------------------------
class TestStatsRollup:
    def test_rolled_up_shape_and_profile_section(self, data, cluster):
        from repro import profile

        sample = data.test[0]
        profile.reset()
        profile.enable()
        try:
            cluster.recover(_request(sample, "p"), timeout=300.0)
            stats = cluster.stats()
        finally:
            profile.disable()

        for key in ("shards", "materialized", "requests", "cache_hits",
                    "shed", "unroutable", "latency_ms_p50", "latency_ms_p99"):
            assert key in stats["cluster"]
        assert stats["cluster"]["requests"] == 1
        assert stats["router"]["routed_by_shard"] == {"chengdu": 1}
        shard = stats["shards"]["chengdu"]
        assert shard["requests_by_model"] == {"default#1": 1}
        assert "replica_stats" not in shard
        # profile.enable() makes the rollup carry the section registry.
        # The continuous scheduler admits (encode + constraint) and sweeps
        # the slot table under its own sections.
        assert "serve.admit" in stats["profile"]["sections"]
        assert "engine.step" in stats["profile"]["sections"]
        json.dumps(stats)  # the whole snapshot must be JSON-serializable

    def test_shard_engine_block_is_its_services_scheduler_stats(self, data):
        """An in-process shard is one service: its ``engine`` block is
        that service's ``scheduler.stats()`` verbatim, nothing merged."""
        cluster = RecoveryCluster(
            ShardMap(shards=(ShardSpec(name="cd", dataset="chengdu"),)),
            model_factory=tiny_factory,
            network_factory=lambda spec: data.network)
        try:
            for i, sample in enumerate(data.test[:4]):
                cluster.recover(_request(sample, f"q{i}"), timeout=300.0)
            shard = cluster.shard("cd")
            engine = cluster.stats()["shards"]["cd"]["engine"]
            assert engine == shard.session_service().scheduler.stats()
        finally:
            cluster.close()
        assert engine["admitted"] == 4
