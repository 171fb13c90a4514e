"""Tests for RNTrajRec components: GridGNN, sub-graphs, GRL, GPSFormer."""

from dataclasses import replace

import numpy as np
import pytest

from repro import nn, profile
from repro.nn.tensor import Tensor
from repro.core import (
    GPSFormer,
    GatedFusion,
    GraphNorm,
    GraphRefinementLayer,
    GridGNN,
    PlainRoadEncoder,
    RNTrajRecConfig,
    SubGraphGenerator,
    build_road_encoder,
    mean_graph_readout,
    weighted_graph_readout,
)
from repro.core.subgraph_gen import GENERATION_BATCHES
from repro.datasets import get_spec
from repro.experiments.harness import small_model_config
from repro.roadnet import CityConfig, generate_city
from repro.trajectory import (
    DatasetConfig,
    SimulationConfig,
    TrajectorySimulator,
    build_samples,
    make_batch,
)

CFG = RNTrajRecConfig(hidden_dim=16, num_heads=2, max_subgraph_nodes=16, receptive_delta=250.0)


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))


@pytest.fixture(scope="module")
def batch(city):
    sim = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=2))
    pairs = sim.simulate(6)
    samples = build_samples(pairs, city, DatasetConfig(keep_every=8))
    return make_batch(samples)


class TestConfig:
    def test_variant_override(self):
        cfg = CFG.variant(hidden_dim=64)
        assert cfg.hidden_dim == 64
        assert CFG.hidden_dim == 16  # frozen original untouched

    def test_named_ablations(self):
        assert not CFG.ablation("grl").use_grl
        assert not CFG.ablation("gf").use_gated_fusion
        assert not CFG.ablation("gat").use_gat_forward
        assert not CFG.ablation("gn").use_graph_norm
        assert not CFG.ablation("gcl").use_graph_loss
        with pytest.raises(ValueError):
            CFG.ablation("nope")


class TestGridGNN:
    def test_output_shape(self, city):
        grid = city.make_grid(CFG.grid_cell_size)
        model = GridGNN(city, grid, CFG)
        out = model()
        assert out.shape == (city.num_segments, CFG.hidden_dim)

    def test_grid_sequences_nonempty_and_valid(self, city):
        """The padded grid-cell sequences GridGNN's GRU reads (Eq. 1)."""
        grid = city.make_grid(CFG.grid_cell_size)
        sequences, mask = city.grid_sequences(grid)
        for sid in range(0, city.num_segments, 17):
            seq = sequences[sid, :int(mask[sid].sum())]
            assert len(seq) >= 1
            assert np.all(seq >= 0) and np.all(seq < grid.num_cells)

    def test_deterministic_with_seed(self, city):
        grid = city.make_grid(CFG.grid_cell_size)
        nn.init.seed_everything(5)
        a = GridGNN(city, grid, CFG)()
        nn.init.seed_everything(5)
        b = GridGNN(city, grid, CFG)()
        assert np.allclose(a.data, b.data)

    def test_gradients_reach_embeddings(self, city):
        grid = city.make_grid(CFG.grid_cell_size)
        model = GridGNN(city, grid, CFG)
        model().sum().backward()
        assert model.grid_embedding.weight.grad is not None
        assert model.road_embedding.weight.grad is not None
        assert np.abs(model.grid_embedding.weight.grad).sum() > 0

    def test_plain_encoders(self, city):
        for kind in ("gcn", "gin", "gat"):
            cfg = CFG.variant(road_encoder=kind)
            enc = build_road_encoder(city, city.make_grid(50.0), cfg)
            assert isinstance(enc, PlainRoadEncoder)
            assert enc().shape == (city.num_segments, CFG.hidden_dim)

    def test_factory_default_is_gridgnn(self, city):
        enc = build_road_encoder(city, city.make_grid(50.0), CFG)
        assert isinstance(enc, GridGNN)


class TestSubGraphGeneration:
    def test_point_subgraph_contents(self, city):
        gen = SubGraphGenerator(city, CFG)
        x, y = 500.0, 500.0
        sub = gen.point_subgraph(x, y)
        assert 1 <= len(sub.segments) <= CFG.max_subgraph_nodes
        # All segments within δ.
        for sid in sub.segments:
            dist, _ = city.project(x, y, int(sid))
            assert dist <= CFG.receptive_delta + 1e-6

    def test_weights_match_distance_kernel(self, city):
        gen = SubGraphGenerator(city, CFG)
        sub = gen.point_subgraph(500.0, 500.0)
        for sid, w in zip(sub.segments, sub.weights):
            dist, _ = city.project(500.0, 500.0, int(sid))
            expected = max(np.exp(-(dist / CFG.influence_gamma) ** 2), 1e-8)
            assert np.isclose(w, expected, rtol=1e-6)

    def test_edges_local_and_valid(self, city):
        gen = SubGraphGenerator(city, CFG)
        sub = gen.point_subgraph(500.0, 500.0)
        v = len(sub.segments)
        assert sub.edges.shape[0] == 2
        assert np.all(sub.edges >= 0) and np.all(sub.edges < v)
        # Self-loops present for every node.
        loops = {(int(a), int(b)) for a, b in sub.edges.T if a == b}
        assert len(loops) == v

    def test_cache_hit(self, city):
        gen = SubGraphGenerator(city, CFG)
        a = gen.point_subgraph(500.0, 500.0)
        b = gen.point_subgraph(500.2, 500.2)  # within 1 m quantization
        assert a is b
        gen.clear_cache()
        assert gen.point_subgraph(500.0, 500.0) is not a

    def test_batch_flattening(self, city, batch):
        gen = SubGraphGenerator(city, CFG)
        graphs = gen.batch(batch.input_xy)
        assert graphs.batch_size == batch.size
        assert graphs.length == batch.input_length
        assert graphs.num_graphs == batch.size * batch.input_length
        assert len(graphs.node_weights) == graphs.num_nodes
        assert graphs.graph_ids.max() == graphs.num_graphs - 1
        # graph_ids are contiguous, grouped blocks.
        assert np.all(np.diff(graphs.graph_ids) >= 0)

    def test_far_point_falls_back_to_nearest(self, city):
        gen = SubGraphGenerator(city, CFG)
        sub = gen.point_subgraph(-10_000.0, -10_000.0)
        assert len(sub.segments) >= 1

    def test_memo_keeps_only_the_recent_batches(self, city):
        """After 3N one-point batches of unique points the memo holds the
        points of the last N to 2N batches and nothing older: an old point
        is rebuilt on its next use, a recent one is not."""
        n = GENERATION_BATCHES
        gen = SubGraphGenerator(city, CFG)
        cells = np.arange(3 * n)
        points = np.stack([100.0 + 20.0 * (cells % 40), 100.0 + 20.0 * (cells // 40)], 1)
        for point in points:
            gen.batch(point[None, None])
        assert counted_builds(lambda: gen.batch(points[-1][None, None]))[1] == 0
        assert counted_builds(lambda: gen.batch(points[0][None, None]))[1] == 1
        held = np.unique(np.concatenate([gen._current.keys, gen._previous.keys]))
        keys = points[:, 0].astype(np.int64) * 2**32 + points[:, 1].astype(np.int64)
        assert np.isin(held, np.append(keys[-2 * n:], keys[0])).all()
        assert np.isin(keys[-n:], held).all()


def counted_builds(step):
    """(what ``step()`` returns, how many sub-graphs it built)."""
    profile.reset()
    profile.enable()
    try:
        return step(), profile.stats()["counters"].get("subgraph.build", 0)
    finally:
        profile.disable()
        profile.reset()


def _cold_queries(network, config, points, monkeypatch):
    """Per cold point: (δ-queries issued, candidates the distance kernel
    saw), counted by spies on the network's two query methods."""
    log = []
    within, distances = network.segments_within_arrays, network.segment_distances

    def spy_within(x, y, radius):
        log[-1][0] += 1
        return within(x, y, radius)

    def spy_distances(x, y, ids):
        log[-1][1] += len(ids)
        return distances(x, y, ids)

    expected = [within(x, y, config.receptive_delta)[0][:config.max_subgraph_nodes]
                for x, y in points]
    monkeypatch.setattr(network, "segments_within_arrays", spy_within)
    monkeypatch.setattr(network, "segment_distances", spy_distances)
    generator = SubGraphGenerator(network, config)
    for (x, y), ids in zip(points, expected):
        log.append([0, 0])
        assert generator.point_subgraph(x, y).segments.tolist() == ids.tolist()
    return np.array(log)


@pytest.fixture(scope="module")
def metro():
    """The chengdu recipe at 40 m blocks: an ~11.9k-segment metro."""
    metro = generate_city(replace(get_spec("chengdu").city, block=40.0))
    assert metro.num_segments >= 10_000
    return metro


def test_subgraph_query_is_bounded(metro, monkeypatch):
    """At city scale the search is as wide as the sub-graph it returns: a
    cold point's distance kernel sees a few hundred candidates, not the
    ~1.6k inside δ = 300 m."""
    config = small_model_config(16)
    rng = np.random.default_rng(3)
    points = np.round(rng.uniform(100.0, 1400.0, size=(40, 2)))
    queries, candidates = _cold_queries(metro, config, points, monkeypatch).T
    assert candidates.max() <= 400 and np.median(candidates) <= 250
    assert queries.max() <= 2
    full = [len(metro.rtree.query_radius(x, y, config.receptive_delta)) for x, y in points]
    assert np.median(full) > 1000  # what the unbounded query would have scanned


@pytest.mark.parametrize("dataset", ["chengdu", "porto", "shanghai"])
def test_small_cities_issue_one_subgraph_query_per_point(dataset, monkeypatch):
    """On the registry's few-hundred-segment cities the density-derived
    first ball already exceeds δ, so a cold point costs exactly the one
    full query it cost before the bounded search existed."""
    network = generate_city(get_spec(dataset).city)
    x0, y0, x1, y1 = network.bounds()
    rng = np.random.default_rng(4)
    points = np.round(rng.uniform([x0, y0], [x1, y1], size=(25, 2)))
    queries, _ = _cold_queries(network, small_model_config(16), points, monkeypatch).T
    assert queries.tolist() == [1] * len(points)


class TestGraphReadouts:
    def test_weighted_readout_weighted_mean(self, city, batch):
        gen = SubGraphGenerator(city, CFG)
        graphs = gen.batch(batch.input_xy[:1])
        d = 4
        feats = Tensor(np.ones((graphs.num_nodes, d)) * np.arange(1, graphs.num_nodes + 1)[:, None])
        out = weighted_graph_readout(feats, graphs).data
        # Per-graph weighted mean of node ids.
        for g in range(graphs.num_graphs):
            mask = graphs.graph_ids == g
            w = graphs.node_weights[mask]
            vals = np.arange(1, graphs.num_nodes + 1)[mask]
            assert np.allclose(out[g, 0], (w * vals).sum() / w.sum())

    def test_mean_readout(self, city, batch):
        gen = SubGraphGenerator(city, CFG)
        graphs = gen.batch(batch.input_xy[:1])
        feats = Tensor(np.ones((graphs.num_nodes, 3)))
        out = mean_graph_readout(feats, graphs).data
        assert np.allclose(out, 1.0)


class TestGraphRefinement:
    def _toy_graphs(self, city, batch):
        gen = SubGraphGenerator(city, CFG)
        return gen.batch(batch.input_xy)

    def test_graph_norm_statistics(self, city, batch):
        graphs = self._toy_graphs(city, batch)
        norm = GraphNorm(8)
        nodes = Tensor(np.random.default_rng(0).normal(size=(graphs.num_nodes, 8)) * 5 + 2)
        out = norm(nodes, graphs).data
        assert abs(out.mean()) < 0.5
        assert np.all(np.isfinite(out))

    def test_graph_norm_eval_running_stats(self, city, batch):
        graphs = self._toy_graphs(city, batch)
        norm = GraphNorm(8, momentum=1.0)
        nodes = Tensor(np.random.default_rng(0).normal(size=(graphs.num_nodes, 8)))
        norm(nodes, graphs)
        norm.eval()
        out = norm(nodes, graphs).data
        assert np.all(np.isfinite(out))

    def test_gated_fusion_blends(self, city, batch):
        graphs = self._toy_graphs(city, batch)
        fusion = GatedFusion(CFG.hidden_dim)
        nodes = Tensor(np.zeros((graphs.num_nodes, CFG.hidden_dim)))
        timesteps = Tensor(np.ones((graphs.num_graphs, CFG.hidden_dim)))
        out = fusion(nodes, timesteps, graphs).data
        # Gate in (0,1): output strictly between node (0) and timestep (1).
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_grl_shapes_full_and_ablated(self, city, batch):
        graphs = self._toy_graphs(city, batch)
        rng = np.random.default_rng(1)
        nodes = Tensor(rng.normal(size=(graphs.num_nodes, CFG.hidden_dim)))
        steps = Tensor(rng.normal(size=(graphs.num_graphs, CFG.hidden_dim)))
        for cfg in (CFG, CFG.ablation("gf"), CFG.ablation("gat"), CFG.ablation("gn")):
            layer = GraphRefinementLayer(cfg)
            out = layer(steps, nodes, graphs)
            assert out.shape == (graphs.num_nodes, CFG.hidden_dim)

    def test_grl_gradients(self, city, batch):
        graphs = self._toy_graphs(city, batch)
        rng = np.random.default_rng(1)
        nodes = Tensor(rng.normal(size=(graphs.num_nodes, CFG.hidden_dim)), requires_grad=True)
        steps = Tensor(rng.normal(size=(graphs.num_graphs, CFG.hidden_dim)), requires_grad=True)
        GraphRefinementLayer(CFG)(steps, nodes, graphs).sum().backward()
        assert np.all(np.isfinite(nodes.grad))
        assert np.all(np.isfinite(steps.grad))


class TestGPSFormer:
    def test_encoder_output_shapes(self, city, batch):
        encoder = GPSFormer(city, CFG)
        out = encoder(batch)
        assert out.point_features.shape == (batch.size, batch.input_length, CFG.hidden_dim)
        assert out.trajectory_feature.shape == (batch.size, CFG.hidden_dim)
        assert out.graphs is not None
        assert out.node_features is not None

    def test_without_grl_still_encodes(self, city, batch):
        encoder = GPSFormer(city, CFG.ablation("grl").ablation("gcl"))
        out = encoder(batch)
        assert out.point_features.shape == (batch.size, batch.input_length, CFG.hidden_dim)

    def test_stack_depth_configurable(self, city, batch):
        encoder = GPSFormer(city, CFG.variant(num_gpsformer_layers=3))
        assert len(encoder.blocks) == 3
        out = encoder(batch)
        assert out.point_features.shape[0] == batch.size

    def test_environment_context_changes_trajectory_feature(self, city, batch):
        encoder = GPSFormer(city, CFG)
        out1 = encoder(batch).trajectory_feature.data.copy()
        batch.hours[:] = (batch.hours + 12) % 24
        out2 = encoder(batch).trajectory_feature.data
        assert not np.allclose(out1, out2)


class TestDeferredPrior:
    """On a network at least ``_SCREEN_WIDTH`` segments wide the decode
    constraint defers its unobserved steps' interpolation prior: every step
    it builds on demand is byte-equal to the eager build, and a decode
    over it — solo, in the engine, or a checkpointed suffix — is the
    decode over the eager constraint."""

    @pytest.fixture(scope="class")
    def samples(self, metro):
        sim = TrajectorySimulator(metro, SimulationConfig(target_points=17, seed=2))
        return build_samples(sim.simulate(3), metro, DatasetConfig(keep_every=8))

    @pytest.fixture(scope="class")
    def model(self, metro):
        from repro.core import RNTrajRec

        return RNTrajRec(metro, small_model_config(16)).eval()

    @staticmethod
    def _eager(monkeypatch, *args):
        """``decode_constraint(*args)`` built as on a narrow network."""
        from repro.core import decoder

        with monkeypatch.context() as patch:
            patch.setattr(decoder, "_SCREEN_WIDTH", 1 << 62)
            constraint = decoder.decode_constraint(*args)
        assert constraint.prior is None
        return constraint

    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize("b", [1, 2])
    def test_rows_equal_the_eager_build(self, metro, samples, model, monkeypatch,
                                        start, b):
        from repro.core.decoder import decode_constraint

        batch = make_batch(samples[:b])
        args = (batch, metro, 150.0, 0.005, start)
        deferred, eager = decode_constraint(*args), self._eager(monkeypatch, *args)
        assert deferred.prior is not None and deferred.prior.free.any()
        assert deferred.log_span == eager.log_span
        reachability = model.reachability
        for j in range(batch.target_length - start):
            for i in range(b):
                got, want = deferred.support(i, j), eager.support(i, j)
                assert [np.asarray(a).tobytes() for a in got] == \
                    [np.asarray(a).tobytes() for a in want], (i, j)
                if deferred.prior.free[i, j]:
                    # The screen's reachable-column weights are the row's.
                    reach = reachability.reachable(int(batch.target_segments[i, j]))
                    weights = deferred.prior.column_weights(i, j, reach)
                    assert weights.tobytes() == eager.row(j)[i, reach].tobytes()
            assert deferred.row(j).tobytes() == eager.row(j).tobytes()

    def test_decode_equals_the_eager_constraint(self, samples, model, monkeypatch):
        """``recover`` over the deferred constraint is the decode over the
        eager one, and most deferred steps are certified unbuilt."""
        batch = make_batch(samples)
        with nn.no_grad():
            encoded = model.encode(batch)
        eager = self._eager(monkeypatch, batch, model.network,
                            model.config.decode_prior_scale,
                            model.config.decode_prior_floor)
        want = model.decoder.decode_greedy(
            encoded.point_features, encoded.trajectory_feature,
            batch.target_length, eager, reachability=model.reachability)
        profile.reset()
        profile.enable()
        try:
            got = model.recover(batch)
            built = profile.stats()["counters"].get("decode.prior_rows", 0)
        finally:
            profile.disable()
            profile.reset()
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        deferred = int(model.decode_constraint(batch).prior.free.sum())
        assert built < deferred // 2

    def test_engine_equals_solo_decode(self, samples, model):
        """Engine ≡ solo decode on the metro: a one-shot request, and a
        streaming suffix resumed from the carry the engine checkpointed."""
        from reference import run_to_completion
        from repro.serve import ContinuousEngine
        from repro.serve.engine import build_job

        sample = samples[0]
        segments, rates = model.recover(make_batch([sample]))
        boundary = 5
        engine = ContinuousEngine(capacity=2)
        oneshot = run_to_completion(
            engine, [build_job(model, sample, "m", checkpoint_at=boundary)])[0]
        assert oneshot.segments.tobytes() == segments[0].tobytes()
        assert oneshot.rates.tobytes() == rates[0].tobytes()
        suffix = run_to_completion(engine, [build_job(
            model, sample, "m", start=boundary, carry=oneshot.checkpoint)])[0]
        assert suffix.segments.tobytes() == segments[0, boundary:].tobytes()
        assert suffix.rates.tobytes() == rates[0, boundary:].tobytes()
        for field in ("state", "prev_embed", "prev_rate", "prev_segments"):
            assert (getattr(suffix.carry, field).tobytes()
                    == getattr(oneshot.carry, field).tobytes()), field
