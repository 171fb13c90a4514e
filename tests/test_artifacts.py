"""Tests for zero-copy shared-memory city artifacts.

Three layers, mirroring the PR's structure:

* ``repro.nn.serialization`` — the aligned uncompressed archive format and
  its opt-in ``mmap=True`` reader (zero-copy, read-only, 64-byte aligned);
* ``from_arrays`` constructors — ``RoadNetwork`` / ``Grid`` /
  ``ReachabilityMask`` rebuilt from externally owned (write-protected)
  buffers must behave bit-identically to their built-in-memory twins;
* ``CityArtifacts`` + serving rewire — a frozen bundle loads back into a
  registry/shard whose models *share* (identity, not equality) one
  physical copy of every immutable structure and recover bit-identically.
"""

import json
import os

import numpy as np
import pytest

from repro.cluster import ShardSpec
from repro.cluster.shard import Shard
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.core.decoder import ReachabilityMask
from repro.datasets import load_dataset
from repro.nn.serialization import (
    ALIGNMENT,
    load_archive,
    load_checkpoint,
    save_archive,
    save_checkpoint,
)
from repro import profile
from repro.roadnet import CityArtifacts
from repro.serve import ModelRegistry, RecoveryRequest, RecoveryService, ServeConfig
from repro.trajectory import make_batch

TINY = RNTrajRecConfig(hidden_dim=16, num_heads=2, dropout=0.0,
                       receptive_delta=300.0, max_subgraph_nodes=24)


@pytest.fixture(scope="module")
def data():
    return load_dataset("chengdu", num_trajectories=40)


@pytest.fixture(scope="module")
def model(data):
    return RNTrajRec(data.network, TINY).eval()


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory, data, model):
    directory = tmp_path_factory.mktemp("artifacts") / "chengdu"
    CityArtifacts.build(data.network, model=model).save(str(directory))
    return str(directory)


# ---------------------------------------------------------------------------
# Aligned archive format + mmap reader
# ---------------------------------------------------------------------------
class TestAlignedArchive:
    def _arrays(self):
        rng = np.random.default_rng(3)
        return {
            "weights": rng.normal(size=(37, 13)),          # odd shapes: the
            "indices": rng.integers(0, 99, size=201),      # header padding
            "flags": rng.random(11) > 0.5,                 # must still align
            "scalar": np.array(4.25),
            "empty": np.zeros((0, 4)),
        }

    def test_round_trip_copy_and_mmap(self, tmp_path):
        arrays = self._arrays()
        path = save_archive(arrays, str(tmp_path / "a.npz"))
        for mmap in (False, True):
            loaded = load_archive(path, mmap=mmap)
            assert set(loaded) == set(arrays)
            for name, value in arrays.items():
                assert loaded[name].dtype == value.dtype
                assert np.array_equal(loaded[name], value)

    def test_numpy_can_read_the_aligned_archive(self, tmp_path):
        """The aligned writer stays a valid ordinary .npz."""
        arrays = self._arrays()
        path = save_archive(arrays, str(tmp_path / "a.npz"))
        with np.load(path) as handle:
            for name, value in arrays.items():
                assert np.array_equal(handle[name], value)

    def test_mmap_views_are_zero_copy_and_aligned(self, tmp_path):
        arrays = self._arrays()
        path = save_archive(arrays, str(tmp_path / "a.npz"))
        loaded = load_archive(path, mmap=True)
        for name, view in loaded.items():
            if view.size == 0:
                continue
            assert isinstance(view, np.memmap), name
            assert view.ctypes.data % ALIGNMENT == 0, name

    def test_mmap_views_are_write_protected(self, tmp_path):
        path = save_archive(self._arrays(), str(tmp_path / "a.npz"))
        loaded = load_archive(path, mmap=True)
        for name, view in loaded.items():
            assert not view.flags.writeable, name
            if view.size:
                with pytest.raises((ValueError, TypeError)):
                    view[...] = 0

    def test_deterministic_bytes(self, tmp_path):
        arrays = self._arrays()
        a = save_archive(arrays, str(tmp_path / "a.npz"))
        b = save_archive(arrays, str(tmp_path / "b.npz"))
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_legacy_compressed_archive_falls_back_to_copies(self, tmp_path):
        arrays = {k: v for k, v in self._arrays().items() if k != "empty"}
        path = str(tmp_path / "legacy.npz")
        np.savez_compressed(path, **arrays)
        loaded = load_archive(path, mmap=True)
        for name, value in arrays.items():
            assert np.array_equal(loaded[name], value)
            assert not loaded[name].flags.writeable  # still read-only

    def test_checkpoint_mmap_round_trip(self, data, model, tmp_path):
        path = save_checkpoint(model, str(tmp_path / "ckpt.npz"))
        twin = RNTrajRec(data.network, TINY)
        load_checkpoint(twin, path, mmap=True)
        twin.eval()
        for name, value in model.state_dict().items():
            assert np.array_equal(twin.state_dict()[name], value)
        # mmap adoption means the twin's parameters are frozen views.
        some_param = next(iter(twin.parameters()))
        with pytest.raises((ValueError, TypeError)):
            some_param.data[...] = 0.0


# ---------------------------------------------------------------------------
# from_arrays equivalence: network / grid / reachability
# ---------------------------------------------------------------------------
class TestFromArrays:
    @pytest.fixture(scope="class")
    def packed(self, artifact_dir):
        return CityArtifacts.load(artifact_dir, mmap=True)

    def test_network_queries_bit_identical(self, data, packed):
        built, loaded = data.network, packed.network()
        assert loaded.num_segments == built.num_segments
        rng = np.random.default_rng(11)
        x0, y0, x1, y1 = built.bounds()
        points = np.column_stack([rng.uniform(x0, x1, 64),
                                  rng.uniform(y0, y1, 64)])
        for x, y in points[:8]:
            assert (sorted(built.segments_within(x, y, 150.0))
                    == sorted(loaded.segments_within(x, y, 150.0)))
            assert built.nearest_segment(x, y) == loaded.nearest_segment(x, y)
        a = built.segments_within_batch(points, 120.0)
        b = loaded.segments_within_batch(points, 120.0)
        for row_a, row_b in zip(a, b):
            assert np.array_equal(row_a, row_b)

    def test_network_lazy_views_match(self, data, packed):
        built, loaded = data.network, packed.network()
        assert loaded.edges == built.edges
        assert loaded.out_neighbors == built.out_neighbors
        assert loaded.in_neighbors == built.in_neighbors
        assert np.array_equal(loaded.edge_index(), built.edge_index())
        assert np.array_equal(loaded.edge_index_loops(),
                              built.edge_index_loops())
        assert np.array_equal(loaded.static_features(),
                              built.static_features())
        for ours, theirs in zip(loaded.segments[:16], built.segments[:16]):
            assert np.array_equal(ours.polyline, theirs.polyline)

    def test_packed_static_features_write_protected(self, packed):
        static = packed.network().static_features()
        with pytest.raises((ValueError, TypeError)):
            static[0, 0] = 1.0

    def test_grid_round_trips_exact_floats(self, data, packed, model):
        built = data.network.make_grid(model.config.grid_cell_size)
        loaded = packed.grid()
        assert loaded is not None
        assert (loaded.x0, loaded.y0, loaded.x1, loaded.y1,
                loaded.cell_size) == (built.x0, built.y0, built.x1,
                                      built.y1, built.cell_size)

    def test_grid_sequences_shared_and_identical(self, data, packed, model):
        grid = packed.grid()
        seq, mask = packed.network().grid_sequences(grid)
        built_seq, built_mask = data.network.grid_sequences(
            data.network.make_grid(model.config.grid_cell_size))
        assert np.array_equal(seq, built_seq)
        assert np.array_equal(mask, built_mask)
        again, _ = packed.network().grid_sequences(grid)
        assert again is seq  # memoized, not rebuilt

    def test_reachability_bit_identical(self, data, packed, model):
        built = ReachabilityMask(data.network.out_neighbors,
                                 hops=model.config.reachability_hops)
        loaded = packed.reachability()
        assert loaded is not None
        assert loaded.hops == built.hops
        assert loaded.num_nodes == built.num_nodes
        for node in range(0, built.num_nodes, 37):
            assert np.array_equal(loaded._sets[node], built._sets[node])


# ---------------------------------------------------------------------------
# CityArtifacts bundle + registry sharing + recovery equivalence
# ---------------------------------------------------------------------------
class TestCityArtifacts:
    def test_round_trip_with_verification(self, artifact_dir):
        loaded = CityArtifacts.load(artifact_dir, mmap=True, verify=True)
        assert loaded.content_digest
        assert loaded.has_model()
        manifest = json.loads(
            open(os.path.join(artifact_dir, "manifest.json")).read())
        assert manifest["content_hash"] == loaded.content_digest

    def test_recovery_bit_identical_to_source_model(self, data, model,
                                                    artifact_dir):
        registry = ModelRegistry(
            artifacts=CityArtifacts.load(artifact_dir, mmap=True))
        packed_model = registry.register_artifact_model("default",
                                                        activate=True)
        batch = make_batch(data.test[:3])
        want_segments, want_rates = model.recover(batch)
        got_segments, got_rates = packed_model.recover(batch)
        assert np.array_equal(got_segments, want_segments)
        assert np.array_equal(got_rates, want_rates)

    def test_registries_share_one_artifact_set(self, artifact_dir):
        artifacts = CityArtifacts.load(artifact_dir, mmap=True)
        first = ModelRegistry(artifacts=artifacts)
        second = ModelRegistry(artifacts=artifacts)
        model_a = first.register_artifact_model("default", activate=True)
        model_b = second.register_artifact_model("default", activate=True)
        # Identity, not equality: one physical copy behind N registries.
        assert first.network is second.network
        assert model_a.encoder.grid is model_b.encoder.grid
        assert model_a._reachability is not None
        state = artifacts.model_state()
        for name, param in model_a.named_parameters():
            assert np.shares_memory(param.data, state[name]), name
        for name, param in model_b.named_parameters():
            assert np.shares_memory(param.data, state[name]), name

    def test_packed_model_is_frozen(self, artifact_dir):
        registry = ModelRegistry(
            artifacts=CityArtifacts.load(artifact_dir, mmap=True))
        packed_model = registry.register_artifact_model("default",
                                                        activate=True)
        param = next(iter(packed_model.parameters()))
        with pytest.raises((ValueError, TypeError)):
            param.data[...] = 0.0

    def test_road_feature_cache_is_adopted(self, artifact_dir):
        artifacts = CityArtifacts.load(artifact_dir, mmap=True)
        registry = ModelRegistry(artifacts=artifacts)
        packed_model = registry.register_artifact_model("default",
                                                        activate=True)
        cache = packed_model.encoder._road_cache
        assert cache is not None
        assert np.shares_memory(cache.data, artifacts.road_features())


# ---------------------------------------------------------------------------
# Shard warm: build-on-first-boot, mmap-load ever after
# ---------------------------------------------------------------------------
class TestShardArtifacts:
    def _spec(self):
        return ShardSpec(name="chengdu", dataset="chengdu", replicas=2)

    def _factory(self, data):
        def factory(spec, network):
            return RNTrajRec(data.network, TINY).eval()
        return factory

    def test_first_warm_builds_then_loads(self, data, tmp_path):
        serve = {"max_batch_size": 4}
        first = Shard(self._spec(), model_factory=self._factory(data),
                      network_factory=lambda spec: data.network,
                      serve_overrides=serve, artifact_dir=str(tmp_path))
        first.warm()
        assert first.artifact_info()["source"] == "built"
        assert CityArtifacts.exists(os.path.join(str(tmp_path), "chengdu"))

        second = Shard(self._spec(), model_factory=self._factory(data),
                       network_factory=lambda spec: data.network,
                       serve_overrides=serve, artifact_dir=str(tmp_path))
        second.warm()
        assert second.artifact_info()["source"] == "loaded"
        assert second.stats()["artifacts"]["source"] == "loaded"

        sample = data.test[0]
        request = RecoveryRequest(sample.raw_low.xy, sample.raw_low.times,
                                  hour=sample.hour, holiday=sample.holiday,
                                  request_id="r")
        built_out = first.submit(request).result(timeout=120.0)
        loaded_out = second.submit(request).result(timeout=120.0)
        assert np.array_equal(built_out.trajectory.segments,
                              loaded_out.trajectory.segments)
        assert np.array_equal(np.asarray(built_out.trajectory.ratios),
                              np.asarray(loaded_out.trajectory.ratios))
        first.close()
        second.close()

    def test_replicas_share_the_loaded_artifact_network(self, data, tmp_path):
        seed = Shard(self._spec(), model_factory=self._factory(data),
                     network_factory=lambda spec: data.network,
                     artifact_dir=str(tmp_path))
        seed.warm()
        seed.close()
        shard = Shard(self._spec(), model_factory=self._factory(data),
                      network_factory=lambda spec: data.network,
                      artifact_dir=str(tmp_path))
        shard.warm()
        # Every replica serves off ONE registry pinning ONE mmap network.
        services = shard._replicas.services
        assert len(services) == 2
        assert services[0].registry is services[1].registry
        assert shard.registry.artifacts is not None
        shard.close()


# ---------------------------------------------------------------------------
# Memory telemetry
# ---------------------------------------------------------------------------
class TestMemoryTelemetry:
    def test_memory_snapshot_sane(self):
        snapshot = profile.memory_snapshot()
        assert snapshot["rss_mb"] > 0
        assert snapshot["peak_rss_mb"] >= snapshot["rss_mb"]

    def test_serving_stats_report_rss(self, data, model):
        service = RecoveryService.from_model(
            model, ServeConfig.for_dataset(data, max_batch_size=4))
        try:
            stats = service.stats()
        finally:
            service.close()
        assert stats["rss_mb"] > 0
        assert stats["peak_rss_mb"] >= stats["rss_mb"]
