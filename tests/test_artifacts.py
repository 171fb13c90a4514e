"""Tests for zero-copy shared-memory city artifacts.

Three layers, mirroring the PR's structure:

* ``repro.nn.serialization`` — the aligned uncompressed archive format and
  its opt-in ``mmap=True`` reader (zero-copy, read-only, 64-byte aligned);
* the ``RoadNetwork`` constructor + the ``preload_*`` hooks — a network
  seeded from externally owned (write-protected) buffers must behave
  bit-identically to its built-in-memory twin, and never grow a derived
  private copy of what the archive already holds;
* ``CityArtifacts`` + serving rewire — a frozen bundle loads back into a
  registry/shard whose models share one network object, hence one
  physical copy of every immutable structure, and recover bit-identically.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.cluster import ShardSpec
from repro.cluster.shard import Shard
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.core.decoder import ReachabilityMask
from repro.datasets import get_spec, load_dataset
from repro.nn.serialization import (
    ALIGNMENT,
    load_archive,
    load_checkpoint,
    save_archive,
    save_checkpoint,
)
from repro import profile
from repro.roadnet import CityArtifacts, generate_city
from repro.roadnet import artifacts as artifacts_module
from repro.roadnet.artifacts import FORMAT_VERSION
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
# Array-built equivalence: network / grid / reachability
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
            for ours, theirs in zip(built.segments_within_arrays(x, y, 150.0),
                                    loaded.segments_within_arrays(x, y, 150.0)):
                assert np.array_equal(ours, theirs)
            assert built.nearest_segment(x, y) == loaded.nearest_segment(x, y)
        a = built.segments_within_batch(points, 120.0)
        b = loaded.segments_within_batch(points, 120.0)
        for row_a, row_b in zip(a, b):
            assert np.array_equal(row_a, row_b)

    def test_network_lazy_views_match(self, data, packed):
        built, loaded = data.network, packed.network()
        assert loaded.out_neighbors == built.out_neighbors
        for ours, theirs in zip(loaded.csr_in_neighbors(), built.csr_in_neighbors()):
            assert np.array_equal(ours, theirs)
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
        hops = model.config.reachability_hops
        built = ReachabilityMask(data.network, hops=hops)
        loaded = ReachabilityMask(packed.network(), hops=hops)
        assert loaded.num_nodes == built.num_nodes
        assert np.array_equal(loaded._indptr, built._indptr)
        assert np.array_equal(loaded._indices, built._indices)
        # The packed closure was preloaded, not recomputed.
        assert np.shares_memory(loaded._indices, packed.arrays["reach.indices"])

    def test_mmap_network_holds_only_views_of_the_archive(self, packed, model):
        """Geometry columns, index columns and the preloaded closure are
        non-owning, write-protected views of the mapped archive — before
        and after the first query, i.e. no derived private copy appears."""
        network = packed.network()
        hops = model.config.reachability_hops

        def shared():
            return {
                "geom_indptr": network._geometry_columns()[0],
                **{f"geom_columns[{k}]": column for k, column
                   in enumerate(network._geometry_columns()[1:])},
                "rtree_order": network.rtree.order,
                **{f"rtree_columns[{k}]": column
                   for k, column in enumerate(network.rtree.columns)},
                "reach.indptr": network.khop_closure(hops)[0],
                "reach.indices": network.khop_closure(hops)[1],
            }

        before = shared()
        for name, view in before.items():
            assert view.flags.owndata is False, name
            assert view.flags.writeable is False, name
            assert view.flags.c_contiguous, name
            source = name.split("[")[0]
            source = source if source.startswith("reach.") else "net." + source
            assert np.shares_memory(view, packed.arrays[source]), name
        x0, y0, x1, y1 = network.bounds()
        points = np.array([[(x0 + x1) / 2, (y0 + y1) / 2], [x0, y0]])
        assert len(network.segments_within_batch(points, 300.0)[1])
        assert len(network.segments_within_arrays(*points[0], 300.0)[0])
        ReachabilityMask(network, hops).combine(None, np.array([0, 3]),
                                                network.num_segments)
        after = shared()
        for name, view in before.items():
            assert after[name].flags.owndata is False, name
            assert np.shares_memory(after[name], view), name


# ---------------------------------------------------------------------------
# CityArtifacts bundle + registry sharing + recovery equivalence
# ---------------------------------------------------------------------------
def _copy_with_manifest(artifact_dir, destination, **changes):
    """A copy of the saved bundle whose manifest has ``changes`` applied."""
    shutil.copytree(artifact_dir, destination)
    path = os.path.join(destination, "manifest.json")
    with open(path) as handle:
        manifest = json.load(handle)
    manifest.update(changes)
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    return str(destination)


class TestCityArtifacts:
    def test_round_trip_with_verification(self, artifact_dir):
        loaded = CityArtifacts.load(artifact_dir, mmap=True, verify=True)
        assert loaded.content_digest
        assert loaded.model_snapshot() is not None
        with open(os.path.join(artifact_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["content_hash"] == loaded.content_digest
        assert manifest["format"] == FORMAT_VERSION == 2

    @pytest.mark.parametrize("other", [1, 3, "2", None])
    def test_any_other_format_is_rejected(self, artifact_dir, tmp_path, other):
        stale = _copy_with_manifest(artifact_dir, tmp_path / "stale", format=other)
        with pytest.raises(ValueError, match="unsupported artifact format"):
            CityArtifacts.load(stale)

    def test_hash_mismatch_raises_under_verify(self, artifact_dir, tmp_path):
        forged = _copy_with_manifest(artifact_dir, tmp_path / "forged",
                                     content_hash="0" * 64)
        CityArtifacts.load(forged)  # unverified loads never hash
        with pytest.raises(ValueError, match="hash mismatch"):
            CityArtifacts.load(forged, verify=True)

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
        # One network object behind N registries, so one physical copy of
        # everything it owns: the closure arrays are the archive's.
        assert first.network is second.network
        assert model_a.encoder.grid == model_b.encoder.grid == artifacts.grid()
        for name in ("_indptr", "_indices"):
            ours = getattr(model_a.reachability, name)
            theirs = getattr(model_b.reachability, name)
            assert np.shares_memory(ours, theirs), name
            assert np.shares_memory(
                ours, artifacts.arrays["reach." + name.lstrip("_")]), name
        state = artifacts.model_snapshot().state
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
        assert np.shares_memory(cache.data, artifacts.arrays["cache.x_road"])


class TestSaveOverAPublishedBundle:
    """``save`` publishes a new pair by renames, never by rewriting the
    published archive under its readers."""

    @pytest.fixture(scope="class")
    def bundles(self):
        # The second bundle's archive is the larger, so a rewrite in place
        # shows as changed bytes under the old mapping, not as SIGBUS.
        return tuple(CityArtifacts.build(generate_city(get_spec(name).city))
                     for name in ("porto", "chengdu"))

    def test_old_mapped_views_keep_their_bytes(self, bundles, tmp_path):
        old, new = bundles
        directory = str(tmp_path / "city")
        old.save(directory)
        mapped = CityArtifacts.load(directory, mmap=True)
        before = {name: np.array(view) for name, view in mapped.arrays.items()}
        new.save(directory)
        for name, view in mapped.arrays.items():
            assert view.tobytes() == before[name].tobytes(), name
        assert CityArtifacts.load(directory, verify=True).content_digest == \
            new.content_digest

    @pytest.mark.parametrize("step", ["write-manifest", "move-manifest"])
    def test_an_interrupted_save_never_pairs_two_builds(self, bundles, tmp_path,
                                                        monkeypatch, step):
        old, new = bundles
        directory = str(tmp_path / "city")
        old.save(directory)

        def interrupt(*args, **kwargs):
            raise OSError("interrupted")

        if step == "write-manifest":
            monkeypatch.setattr(artifacts_module.json, "dump", interrupt)
        else:
            rename = os.replace

            def replace(source, target):
                if target.endswith("manifest.json"):
                    interrupt()
                rename(source, target)
            monkeypatch.setattr(artifacts_module.os, "replace", replace)
        with pytest.raises(OSError, match="interrupted"):
            new.save(directory)
        monkeypatch.undo()
        if CityArtifacts.exists(directory):
            assert CityArtifacts.load(directory, verify=True).content_digest \
                == old.content_digest
        assert os.listdir(tmp_path) == ["city"]  # no staging left behind

    def test_a_load_raced_by_a_save_is_a_cache_miss(self, bundles, tmp_path,
                                                    monkeypatch):
        old, new = bundles
        directory = str(tmp_path / "city")
        old.save(directory)
        load = artifacts_module.load_archive

        def racing(path, mmap):
            new.save(directory)  # lands between manifest and archive reads
            return load(path, mmap=mmap)
        monkeypatch.setattr(artifacts_module, "load_archive", racing)
        with pytest.raises(ValueError, match="replaced while loading"):
            CityArtifacts.load(directory)


# ---------------------------------------------------------------------------
# Shard warm: build-on-first-boot, mmap-load ever after
# ---------------------------------------------------------------------------
class TestShardArtifacts:
    def _spec(self):
        return ShardSpec(name="chengdu", dataset="chengdu")

    def _factory(self, data):
        def factory(spec, network):
            return RNTrajRec(data.network, TINY).eval()
        return factory

    def test_first_warm_builds_then_loads(self, data, tmp_path):
        serve = {"cache_capacity": 4}
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

    @pytest.mark.parametrize("manifest", ['{"format": 1, "num_segments": 3}',
                                          "not json {"])
    def test_stale_or_unreadable_bundle_is_a_cache_miss(self, data, tmp_path,
                                                        caplog, manifest):
        """A directory frozen by another format (or holding a garbled
        manifest) is rebuilt in place, not a boot failure."""
        city_dir = tmp_path / "chengdu"
        city_dir.mkdir()
        (city_dir / "manifest.json").write_text(manifest)
        (city_dir / "city.npz").write_bytes(b"left over from format 1")
        shard = Shard(self._spec(), model_factory=self._factory(data),
                      network_factory=lambda spec: data.network,
                      artifact_dir=str(tmp_path))
        with caplog.at_level("WARNING", logger="repro.roadnet.artifacts"):
            shard.warm()
        shard.close()
        assert shard.artifact_source == "built"
        assert "artifact cache miss" in caplog.text
        reloaded = CityArtifacts.load(str(city_dir), mmap=True, verify=True)
        assert reloaded.manifest["format"] == FORMAT_VERSION
        assert reloaded.model_snapshot() is not None

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
        # The shard's service serves off its registry, which pins the
        # mapped city.
        assert shard.session_service().registry is shard.registry
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
            model, ServeConfig.for_dataset(data))
        try:
            stats = service.stats()
        finally:
            service.close()
        assert stats["rss_mb"] > 0
        assert stats["peak_rss_mb"] >= stats["rss_mb"]
