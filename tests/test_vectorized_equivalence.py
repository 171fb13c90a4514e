"""Equivalence tests: vectorized hot paths vs pre-vectorization references.

Every vectorized implementation introduced by the hot-path sweep must
reproduce its reference twin from ``tests/reference.py`` on
randomized inputs — bitwise wherever the floating-point operations are
order-preserved, and to ulp precision where vectorized SIMD transcendental
kernels may legitimately differ from their scalar counterparts (see the
interpolation-prior test).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from repro import nn
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.core.decoder import (
    ReachabilityMask,
    RecoveryDecoder,
    decode_constraint,
    interpolation_prior,
)
from repro.core.subgraph_gen import SubGraphGenerator
from repro.baselines import LinearHMMRecovery
from repro.datasets import get_spec, load_dataset
from repro.eval.metrics import evaluate_recovery, sr_at_k
from repro.geo import Grid, RTree
from repro.geo.distance import measure_polylines, polyline_length
from repro.nn.graph import ragged_positions, sort_unique
from repro.nn.tensor import Tensor, no_grad, scatter_sum_array
from repro.roadnet import (CityArtifacts, CityConfig, RoadNetwork, ShortestPathEngine,
                           generate_city)
from repro.trajectory import (
    DatasetConfig,
    SimulationConfig,
    TrajectorySimulator,
    build_samples,
    make_batch,
)
from repro.trajectory.dataset import constraint_for_fix

CFG = RNTrajRecConfig(hidden_dim=16, num_heads=2, max_subgraph_nodes=24,
                      receptive_delta=300.0, dropout=0.0)


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1200, height=1200, block=250,
                                    minor_fraction=0.5, seed=9))


@pytest.fixture(scope="module")
def metro():
    network = generate_city(replace(get_spec("chengdu").city, block=40.0))
    assert network.num_segments == 11_880
    return network


@pytest.fixture(scope="module")
def batch(city):
    sim = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=2))
    samples = build_samples(sim.simulate(6), city, DatasetConfig(keep_every=4))
    return make_batch(samples)


def _graphs_equal(a, b):
    for field in ("node_segments", "node_weights", "graph_ids", "edge_index"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert (a.batch_size, a.length) == (b.batch_size, b.length)


class TestScanIndex:
    """``RTree`` lays items out in the order the STR-packed node tree's
    stack walk visits them, computed directly (leaves concatenated in
    reverse) — so hits keep the pruned walk's set *and* order."""

    @staticmethod
    def _boxes(n, seed):
        rng = np.random.default_rng(seed)
        mins = rng.uniform(0, 900, size=(n, 2))
        return np.concatenate([mins, mins + rng.uniform(0, 80, size=(n, 2))], axis=1)

    @pytest.fixture(scope="class")
    def metro_boxes(self, metro):
        return np.asarray([s.bbox() for s in metro.segments])

    # n <= capacity, n = capacity + 1, non-square leaf counts (13, 17, 129).
    @pytest.mark.parametrize("capacity", [2, 8, 16])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16, 17, 200, 257, 2000])
    def test_scan_order_equals_tree_walk(self, n, capacity):
        boxes = self._boxes(n, seed=n)
        assert np.array_equal(RTree(boxes, leaf_capacity=capacity).order,
                              reference.reference_scan_order(boxes, capacity))

    def test_scan_order_equals_tree_walk_on_the_metro(self, metro_boxes):
        assert np.array_equal(RTree(metro_boxes).order,
                              reference.reference_scan_order(metro_boxes))

    def test_batched_rows_keep_the_pruned_walk_hit_order(self, metro_boxes):
        tree = RTree(metro_boxes)
        rng = np.random.default_rng(5)
        points = rng.uniform(metro_boxes[:, :2].min(0) - 50.0,
                             metro_boxes[:, 2:].max(0) + 50.0, size=(12, 2))
        for radius in (100.0, 345.0):
            indptr, ids = tree.query_radius_many(points, radius, block=5)
            for q, (x, y) in enumerate(points):
                rect = (x - radius, y - radius, x + radius, y + radius)
                want = reference.reference_query_rect(metro_boxes, rect)
                assert ids[indptr[q]:indptr[q + 1]].tolist() == want
                assert tree.query_radius(x, y, radius) == want


def _bytes_equal(a, b):
    """Same dtype, shape and bytes (so -0.0 and 0.0 differ)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_COORD = st.floats(-120.0, 620.0, allow_nan=False)
_HALF_CELLS = st.integers(-6, 6).map(lambda k: 25.0 * k)  # the default step
_MOVE = st.one_of(
    st.just((0.0, 0.0)),                   # a repeated vertex: a zero-length piece
    st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
    st.tuples(_HALF_CELLS, st.just(0.0)),  # lengths at exact multiples
    st.tuples(st.just(0.0), _HALF_CELLS),  # of the half-cell step
)
_POLYLINE = st.one_of(
    st.builds(lambda start, moves: np.cumsum([start, *moves], axis=0),
              st.one_of(st.tuples(_COORD, _COORD),
                        st.tuples(_HALF_CELLS, _HALF_CELLS)),
              st.lists(_MOVE, min_size=1, max_size=19)),
    st.builds(lambda vertex, n: np.repeat([vertex], n, axis=0),  # all equal
              st.tuples(_COORD, _COORD), st.integers(2, 20)),
)


class TestGridWalk:
    """``Grid.traverse_polylines`` walks every polyline of a packed table
    at once; each row must be the one-polyline loop's cells exactly, and
    ``grid_sequences`` the padded matrices that loop built."""

    @pytest.mark.parametrize("name", ["chengdu", "porto", "metro"])
    def test_grid_sequences_equal_the_per_segment_loop(self, name, metro):
        network = metro if name == "metro" else generate_city(get_spec(name).city)
        grid = network.make_grid()
        want = reference.reference_grid_sequences(network, grid)
        got = network.grid_sequences(grid)
        assert all(_bytes_equal(g, w) for g, w in zip(got, want))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_POLYLINE, min_size=1, max_size=8))
    def test_packed_walk_equals_the_loop_on_random_polylines(self, polylines):
        grid = Grid(0.0, 0.0, 500.0, 400.0, cell_size=50.0)
        indptr = np.cumsum([0] + [len(p) for p in polylines])
        cells, rows, cols = grid.traverse_polylines(np.concatenate(polylines), indptr)
        for p, polyline in enumerate(polylines):
            want = reference.reference_traverse_polyline(grid, polyline)
            span = slice(cells[p], cells[p + 1])
            assert list(zip(rows[span].tolist(), cols[span].tolist())) == want
            assert grid.traverse_polyline(polyline) == want

    def test_a_mapped_network_walks_a_foreign_grid_without_segments(self, city):
        mapped = CityArtifacts.build(city).network()
        grid = city.make_grid(cell_size=75.0)
        seq, mask = mapped.grid_sequences(grid)
        assert "segments" not in mapped.__dict__
        want = reference.reference_grid_sequences(city, grid)
        assert _bytes_equal(seq, want[0]) and _bytes_equal(mask, want[1])


class TestSegmentBoxes:
    """Boxes, bounds and sub-segment columns come from array passes over
    the packed point table; each must equal its per-segment build."""

    @pytest.mark.parametrize("name", ["chengdu", "metro"])
    def test_bounds_and_scan_index_equal_a_per_segment_bbox_build(self, name, metro):
        network = metro if name == "metro" else generate_city(get_spec(name).city)
        boxes = np.asarray([s.bbox() for s in network.segments])
        want = RTree(boxes)
        assert _bytes_equal(network.rtree.order, want.order)
        assert _bytes_equal(network.rtree.columns, want.columns)
        assert network.bounds() == (float(boxes[:, 0].min()), float(boxes[:, 1].min()),
                                    float(boxes[:, 2].max()), float(boxes[:, 3].max()))

    def test_geometry_columns_equal_the_per_segment_concatenation(self, metro):
        polylines = [s.polyline for s in metro.segments]
        starts = np.concatenate([p[:-1] for p in polylines])
        vectors = np.concatenate([p[1:] for p in polylines]) - starts
        indptr, x0, y0, vx, vy, length2 = metro._geometry_columns()
        assert _bytes_equal(indptr, np.cumsum([0] + [len(p) - 1 for p in polylines]))
        for got, want in zip((x0, y0, vx, vy), (*starts.T, *vectors.T)):
            assert _bytes_equal(got, np.ascontiguousarray(want))
        assert _bytes_equal(length2, np.maximum(vx ** 2 + vy ** 2, 1e-12))

    def test_packed_network_reads_the_exported_table(self, city):
        arrays = city.export_arrays()
        mapped = RoadNetwork(arrays)
        for got, want in zip(mapped._polylines(), (arrays["poly_indptr"],
                                                    arrays["poly_points"])):
            assert np.shares_memory(got, want)


_CHENGDU = get_spec("chengdu").city
_PORTO = get_spec("porto").city
_CITIES = {
    **{name: get_spec(name).city for name in ("chengdu", "porto", "shanghai",
                                              "shanghai_l")},
    "metro": replace(_CHENGDU, block=40.0),
    "metro-125": replace(_CHENGDU, block=125.0),
    "u-turns": replace(_PORTO, allow_u_turn=True),
    "straight": replace(_PORTO, jitter=0.0),
    "no-decks": replace(_PORTO, elevated_rows=()),
    "every-ramp": replace(_PORTO, ramp_every=1),
    # Two decks on one row, a deck on the edge rows, one out of range, a
    # deck offset onto the next arterial row, and ramps at every node.
    "stacked": CityConfig(width=1000, height=800, block=100, minor_fraction=0.9,
                          elevated_rows=(0, 3, 3, 8, 99), ramp_every=1,
                          elevated_offset=100.0, allow_u_turn=True),
}


class TestPackedCity:
    """``generate_city`` builds the network's arrays directly; every array,
    every lazily materialized object view and every trajectory simulated
    on it must equal the object-building generator's
    (``reference.reference_generate_city``), and neither serving nor the
    offline pipeline builds an object view."""

    @pytest.fixture(scope="class")
    def cities(self):
        return {}

    @pytest.fixture(params=sorted(_CITIES))
    def pair(self, request, cities, metro):
        name = request.param
        if name not in cities:
            got = metro if name == "metro" else generate_city(_CITIES[name])
            cities[name] = (got, reference.reference_generate_city(_CITIES[name]))
        return cities[name]

    def test_arrays_equal_the_object_build(self, pair):
        got, want = (network.export_arrays() for network in pair)
        assert sorted(got) == sorted(want)
        for name in want:
            assert _bytes_equal(got[name], want[name]), name

    def test_object_views_equal_the_object_build(self, pair):
        got, want = pair
        assert got.out_neighbors == want.out_neighbors
        assert len(got.segments) == len(want.segments)
        for ours, theirs in zip(got.segments, want.segments):
            assert (ours.segment_id, ours.level, ours.elevated, ours.length) == (
                theirs.segment_id, theirs.level, theirs.elevated, theirs.length)
            assert _bytes_equal(ours.polyline, theirs.polyline)

    def test_simulated_trajectories_equal(self, pair):
        config = SimulationConfig(target_points=9, min_route_segments=4, seed=3)
        runs = [TrajectorySimulator(network, config).simulate(3) for network in pair]
        for (raw, matched), (raw_ref, matched_ref) in zip(*runs):
            for ours, theirs in ((raw.xy, raw_ref.xy), (raw.times, raw_ref.times),
                                 (matched.segments, matched_ref.segments),
                                 (matched.ratios, matched_ref.ratios),
                                 (matched.times, matched_ref.times)):
                assert _bytes_equal(ours, theirs)

    def test_freezing_a_generated_city_builds_no_objects(self):
        network = generate_city(_PORTO)
        CityArtifacts.build(network, RNTrajRec(network, CFG).eval())
        assert not set(RoadNetwork._LAZY_ATTRS) & set(network.__dict__)

    def test_the_offline_pipeline_builds_no_objects(self, monkeypatch):
        """Simulation, samples, an off-road fix's nearest-segment
        fallback, Linear+HMM recovery and every Table III / SR%k metric
        read the arrays alone."""
        monkeypatch.setattr("repro.datasets.registry._NETWORK_CACHE", {})
        data = load_dataset("porto", num_trajectories=20)
        network = data.network
        x1, y1 = network.bounds()[2:]
        ids, _ = constraint_for_fix(network, x1 + 400.0, y1 + 400.0, 15.0, 100.0)
        assert len(ids) == 1
        samples = data.val + data.test
        model = LinearHMMRecovery(network)
        predictions = model.recover_trajectories(make_batch(samples))
        truths = [sample.target for sample in samples]
        assert evaluate_recovery(truths, predictions, model.engine).count == len(samples)
        sr_at_k(truths, predictions, network)
        assert not set(RoadNetwork._LAZY_ATTRS) & set(network.__dict__)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_POLYLINE, min_size=1, max_size=8))
    def test_measured_lengths_equal_each_polyline_length(self, polylines):
        indptr = np.cumsum([0] + [len(p) for p in polylines])
        total = measure_polylines(np.concatenate(polylines), indptr).total
        assert total.tolist() == [polyline_length(p) for p in polylines]


_EDGES = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=40)))


class TestPositionDistance:
    """``position_distance`` takes one minimum over seg_b's in-neighbours;
    it equals the two-loop form it replaced
    (``reference.reference_position_distance``) byte for byte, for every
    ordered pair of segments — ``a == b`` and unreachable pairs included —
    on graphs with repeated edges, self-loops and segments no edge
    enters."""

    @settings(max_examples=100, deadline=None)
    @given(_EDGES, st.integers(0, 2**32 - 1))
    def test_equals_the_per_predecessor_loops(self, graph, seed):
        n, edges = graph
        rng = np.random.default_rng(seed)
        points = rng.uniform(-300.0, 300.0, size=(2 * n, 2))
        short = rng.random(n) < 0.2  # zero-length segments
        points[1::2][short] = points[0::2][short]
        network = RoadNetwork({
            "poly_indptr": 2 * np.arange(n + 1),
            "poly_points": points,
            "levels": np.zeros(n, dtype=np.int64),
            "elevated": np.zeros(n, dtype=bool),
            "edge_index": np.array(edges, dtype=np.int64).reshape(-1, 2).T,
        })
        engine = ShortestPathEngine(network)
        ratios = [0.0, 0.5, 1.0 - 1e-9, *rng.random(2)]
        for a in range(n):
            for b in range(n):
                for ratio_a, ratio_b in zip(ratios, ratios[::-1]):
                    got = engine.position_distance(a, ratio_a, b, ratio_b)
                    want = reference.reference_position_distance(
                        engine, a, ratio_a, b, ratio_b)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestKhopClosure:
    """The sort-deduped multi-source BFS equals the per-node set-union BFS
    on graphs with repeated edges, self-loops and isolated nodes."""

    @settings(max_examples=120, deadline=None)
    @given(_EDGES, st.integers(0, 3))
    def test_closure_equals_the_set_union_bfs(self, graph, hops):
        n, edges = graph
        network = RoadNetwork({
            "poly_indptr": 2 * np.arange(n + 1),
            "poly_points": np.zeros((2 * n, 2)),
            "levels": np.zeros(n, dtype=np.int64),
            "elevated": np.zeros(n, dtype=bool),
            "edge_index": np.array(edges, dtype=np.int64).reshape(-1, 2).T,
        })
        indptr, indices = network.khop_closure(hops)
        want = reference.ReferenceReachability(network.out_neighbors, hops=hops)
        for s in range(n):
            assert indices[indptr[s]:indptr[s + 1]].tolist() == sorted(
                want._sets[s].tolist())


_KEY_VALUES = st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.0, 1e300, -1e-300])
_KEY_ROWS = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(_KEY_VALUES, min_size=k, max_size=k), min_size=1, max_size=24))


class TestSortUnique:
    """``sort_unique`` is ``np.unique``: first occurrences, inverse and the
    distinct values in its order, ``-0.0`` equal to ``0.0``."""

    @staticmethod
    def _check(keys):
        axis = None if keys.ndim == 1 else 0
        values, first, inverse = np.unique(keys, axis=axis, return_index=True,
                                           return_inverse=True)
        got_first, got_inverse = sort_unique(keys, return_index=True)
        assert _bytes_equal(got_first, first)
        assert _bytes_equal(got_inverse, inverse.reshape(-1))
        assert _bytes_equal(keys[got_first], values)

    @settings(max_examples=200, deadline=None)
    @given(_KEY_ROWS)
    def test_rows_equal_np_unique(self, rows):
        self._check(np.array(rows, dtype=np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=30))
    def test_integers_equal_np_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        self._check(keys)
        self._check(np.stack([keys, keys[::-1]], 1))
        assert _bytes_equal(sort_unique(keys), np.unique(keys))

    @pytest.mark.parametrize("keys", [np.array([[-0.0, 1.0]]), np.full((5, 2), 4.0),
                                      np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]]),
                                      np.array([7], dtype=np.int64)])
    def test_edge_shapes(self, keys):
        self._check(keys)


class TestRaggedPositions:
    def test_matches_python_slices(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 6, size=40)
        starts = rng.integers(0, 100, size=40)
        expected = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
        ) if counts.sum() else np.zeros(0, dtype=np.int64)
        assert np.array_equal(ragged_positions(starts, counts), expected)

    def test_empty(self):
        assert len(ragged_positions(np.zeros(0, np.int64), np.zeros(0, np.int64))) == 0


class TestSpatialQueries:
    def test_segments_within_bitwise(self, city):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x, y = rng.uniform(-50, 1250, 2)
            radius = float(rng.uniform(40, 400))
            expected = reference.reference_segments_within(city, x, y, radius)
            ids, dists = city.segments_within_arrays(x, y, radius)
            assert ids.tolist() == [sid for sid, _ in expected]
            assert np.array_equal(dists, np.array([d for _, d in expected]))

    def test_constraint_for_fix_bitwise(self, city):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x, y = rng.uniform(0, 1200, 2)
            ids_ref, w_ref = reference.reference_constraint_for_fix(
                city, x, y, 15.0, 100.0)
            ids_new, w_new = constraint_for_fix(city, x, y, 15.0, 100.0)
            assert np.array_equal(ids_ref, ids_new)
            assert np.array_equal(w_ref, w_new)


class TestReachability:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_closure_sets_match(self, city, hops):
        ref = reference.ReferenceReachability(city.out_neighbors, hops=hops)
        new = ReachabilityMask(city, hops=hops)
        for sid in range(city.num_segments):
            assert set(ref._sets[sid].tolist()) == set(new._sets[sid].tolist())

    def test_combine_bitwise(self, city):
        ref = reference.ReferenceReachability(city.out_neighbors, hops=2)
        new = ReachabilityMask(city, hops=2)
        rng = np.random.default_rng(3)
        previous = rng.integers(0, city.num_segments, size=9)
        mask = rng.random((9, city.num_segments))
        assert np.array_equal(
            ref.combine(mask.copy(), previous, city.num_segments),
            new.combine(mask.copy(), previous, city.num_segments),
        )

    def test_combine_without_mask(self, city):
        ref = reference.ReferenceReachability(city.out_neighbors, hops=1)
        new = ReachabilityMask(city, hops=1)
        previous = np.array([0, 5, 11])
        assert np.array_equal(ref.combine(None, previous, city.num_segments),
                              new.combine(None, previous, city.num_segments))


class TestInterpolationPrior:
    def test_within_ulp_of_reference(self, city, batch):
        ref = reference.reference_interpolation_prior(batch, city, 150.0, 0.005)
        new = reference.dense(interpolation_prior(batch, city, 150.0, 0.005))
        # Vectorized (SIMD) np.exp may differ from the seed's scalar np.exp
        # in the last ulp; everything else is order-preserved.
        np.testing.assert_array_max_ulp(ref, new, maxulp=16)


class TestSubGraphGeneration:
    def test_batch_matches_reference(self, city, batch):
        ref = reference.ReferenceSubGraphGenerator(city, CFG)
        new = SubGraphGenerator(city, CFG)
        _graphs_equal(ref.batch(batch.input_xy), new.batch(batch.input_xy))
        # Warm path (arena gathers) and a second, partially-overlapping grid.
        _graphs_equal(ref.batch(batch.input_xy), new.batch(batch.input_xy))
        shifted = batch.input_xy + 37.0
        _graphs_equal(ref.batch(shifted), new.batch(shifted))
        _graphs_equal(ref.batch(batch.input_xy), new.batch(batch.input_xy))

    def test_point_subgraph_matches_reference(self, city):
        ref = reference.ReferenceSubGraphGenerator(city, CFG)
        new = SubGraphGenerator(city, CFG)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, y = rng.uniform(0, 1200, 2)
            a = ref.point_subgraph(float(x), float(y))
            b = new.point_subgraph(float(x), float(y))
            assert np.array_equal(a.segments, b.segments)
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.edges, b.edges)

    def test_concurrent_generation_is_correct(self, city, batch):
        """Concurrent threads (the serving worker + direct callers share one
        model) must not corrupt each other's sub-graphs through the shared
        scratch buffer or the arena."""
        import threading

        gen = SubGraphGenerator(city, CFG)
        grids = [batch.input_xy + 13.0 * i for i in range(4)]
        results = [None] * len(grids)

        def worker(index):
            for _ in range(3):
                results[index] = gen.batch(grids[index])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(grids))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for grid, result in zip(grids, results):
            expected = reference.ReferenceSubGraphGenerator(city, CFG).batch(grid)
            _graphs_equal(expected, result)

    def test_clear_cache_resets_arena(self, city, batch):
        gen = SubGraphGenerator(city, CFG)
        gen.batch(batch.input_xy)
        gen.clear_cache()
        assert gen._current.num_slots == 0 and len(gen._current.keys) == 0
        assert gen._previous.num_slots == 0
        ref = reference.ReferenceSubGraphGenerator(city, CFG)
        _graphs_equal(ref.batch(batch.input_xy), gen.batch(batch.input_xy))


class TestScatterSum:
    @pytest.mark.parametrize("shape", [(60,), (60, 3), (60, 4, 5), (0, 3)])
    def test_bitwise_vs_add_at(self, shape):
        rng = np.random.default_rng(5)
        values = rng.normal(size=shape)
        ids = rng.integers(0, 11, size=shape[0])
        assert np.array_equal(reference.reference_scatter_sum(values, ids, 11),
                              scatter_sum_array(values, ids, 11))

    def test_tensor_segment_sum_gradient_unchanged(self):
        rng = np.random.default_rng(6)
        values = Tensor(rng.normal(size=(30, 4)), requires_grad=True)
        ids = rng.integers(0, 7, size=30)
        out = nn.segment_sum(values, ids, 7)
        out.sum().backward()
        assert np.array_equal(values.grad, np.ones((30, 4)))


class TestConstraintMasks:
    def test_matrix_and_tensor_bitwise(self, city, batch):
        """The vectorised Eq. 16 build (``decode_constraint`` with the prior
        off) against the per-sample row-buffer loop."""
        num_segments = city.num_segments
        for sample in batch.samples:
            assert np.array_equal(
                reference.reference_constraint_matrix(sample, num_segments),
                reference.dense(decode_constraint(
                    make_batch([sample]), city, 0.0, 0.005))[0],
            )
        for start in (0, batch.target_length // 2):
            assert np.array_equal(
                reference.reference_constraint_tensor(batch, num_segments, start),
                reference.dense(decode_constraint(batch, city, 0.0, 0.005, start)),
            )


class TestDecoderEquivalence:
    def _decoder_inputs(self, city, batch, seed):
        decoder = RecoveryDecoder(city.num_segments, CFG)
        rng = np.random.default_rng(seed)
        enc = Tensor(rng.normal(size=(batch.size, batch.input_length, CFG.hidden_dim)))
        state = Tensor(rng.normal(size=(batch.size, CFG.hidden_dim)))
        return decoder, enc, state

    def test_greedy_bitwise_with_mask_and_reachability(self, city, batch):
        decoder, enc, state = self._decoder_inputs(city, batch, 7)
        constraint = reference.reference_constraint_tensor(batch, city.num_segments)
        reach_ref = reference.ReferenceReachability(city.out_neighbors, hops=2)
        reach_new = ReachabilityMask(city, hops=2)
        seg_ref, rate_ref = reference.reference_decode_greedy(
            decoder, enc, state, batch.target_length, constraint, reach_ref)
        seg_new, rate_new = decoder.decode_greedy(
            enc, state, batch.target_length,
            reference.constraint_from_dense(constraint), reachability=reach_new)
        assert np.array_equal(seg_ref, seg_new)
        assert np.array_equal(rate_ref, rate_new)

    def test_greedy_bitwise_without_mask(self, city, batch):
        decoder, enc, state = self._decoder_inputs(city, batch, 8)
        seg_ref, rate_ref = reference.reference_decode_greedy(
            decoder, enc, state, batch.target_length, None, None)
        seg_new, rate_new = decoder.decode_greedy(
            enc, state, batch.target_length, None)
        assert np.array_equal(seg_ref, seg_new)
        assert np.array_equal(rate_ref, rate_new)


class TestNoGradAndRoadCache:
    def test_no_grad_values_identical(self):
        rng = np.random.default_rng(10)
        w = nn.Parameter(rng.normal(size=(5, 5)))
        x = Tensor(rng.normal(size=(3, 5)))
        with_graph = (x @ w).relu().sum()
        with no_grad():
            without_graph = (x @ w).relu().sum()
            assert not (x @ w).requires_grad
        assert np.array_equal(with_graph.data, without_graph.data)
        assert with_graph.requires_grad  # outside the context grads record

    def test_recover_identical_across_calls_and_cache(self, city, batch):
        model = RNTrajRec(city, CFG)
        model.eval()
        first = model.recover(batch)
        assert model.encoder._road_cache is not None  # memoized under eval
        second = model.recover(batch)  # served from the road cache
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_load_state_dict_invalidates_road_cache(self, city, batch):
        """A checkpoint load into a warm eval-mode model must not serve
        X_road computed from the previous parameters."""
        rng = np.random.default_rng(11)
        donor = RNTrajRec(city, CFG)
        for param in donor.parameters():
            param.data = rng.normal(size=param.data.shape, scale=0.05)
        donor.eval()
        expected = donor.recover(batch)

        model = RNTrajRec(city, CFG)
        model.eval()
        model.recover(batch)  # warm the road cache with the initial weights
        model.load_state_dict(donor.state_dict())
        assert model.encoder._road_cache is None
        loaded = model.recover(batch)
        assert np.array_equal(expected[0], loaded[0])
        assert np.array_equal(expected[1], loaded[1])

    def test_train_clears_road_cache_and_training_still_works(self, city, batch):
        model = RNTrajRec(city, CFG)
        model.eval()
        model.recover(batch)
        model.train()
        assert model.encoder._road_cache is None
        loss = model.compute_loss(batch, teacher_forcing_ratio=1.0)
        loss.total.backward()  # gradients flow: the cache must not be used
        assert any(p.grad is not None for p in model.encoder.road_encoder.parameters())


class TestContinuousEngineEquivalence:
    """The continuous-batching engine pinned against the kept twin of the
    pre-change scheduler path (run-to-completion draining grouped by input
    length), mirroring the PR 2 reference-twin pattern."""

    @pytest.fixture(scope="class")
    def mixed_samples(self, city):
        samples = []
        for points, seed in ((9, 21), (25, 22)):
            sim = TrajectorySimulator(
                city, SimulationConfig(target_points=points, seed=seed))
            samples.extend(build_samples(sim.simulate(4), city,
                                         DatasetConfig(keep_every=4)))
        return samples

    def test_engine_matches_run_to_completion_twin(self, city, mixed_samples):
        from repro.core.decoder import GreedyWeights
        from repro.serve.engine import ContinuousEngine, DecodeJob

        model = RNTrajRec(city, CFG)
        model.eval()
        twin = reference.reference_run_to_completion(model, mixed_samples)

        weights = GreedyWeights.from_decoder(model.decoder)
        jobs = []
        with no_grad():
            for sample in mixed_samples:
                batch = make_batch([sample])
                encoded = model.encode(batch)
                jobs.append(DecodeJob(
                    enc=encoded.point_features.data,
                    carry=model.decoder.initial_carry(
                        encoded.trajectory_feature.data),
                    num_steps=batch.target_length,
                    constraint=model.decode_constraint(batch),
                    weights=weights,
                    reachability=model.reachability,
                ))
        # capacity < job count forces mid-flight splicing — the maximally
        # different execution order from the twin's group-at-a-time drain.
        engine = ContinuousEngine(capacity=3)
        results = reference.run_to_completion(engine, jobs)

        assert len(results) == len(twin)
        for result, (seg_twin, rate_twin) in zip(results, twin):
            # Same contract the padded scheduler already guaranteed vs the
            # per-request path: identical decisions; rates allclose (the
            # twin decodes under batch padding, the engine batch-of-1).
            assert np.array_equal(result.segments, seg_twin)
            assert np.allclose(result.rates, rate_twin, atol=1e-9)

    def test_engine_bitwise_vs_solo_recover(self, city, mixed_samples):
        """Strictly stronger than the twin pin: against the batch-of-1
        one-shot path the engine is bit-identical, rates included."""
        from repro.core.decoder import GreedyWeights
        from repro.serve.engine import ContinuousEngine, DecodeJob

        model = RNTrajRec(city, CFG)
        model.eval()
        weights = GreedyWeights.from_decoder(model.decoder)
        chosen = mixed_samples[:5]
        jobs = []
        with no_grad():
            for sample in chosen:
                batch = make_batch([sample])
                encoded = model.encode(batch)
                jobs.append(DecodeJob(
                    enc=encoded.point_features.data,
                    carry=model.decoder.initial_carry(
                        encoded.trajectory_feature.data),
                    num_steps=batch.target_length,
                    constraint=model.decode_constraint(batch),
                    weights=weights,
                    reachability=model.reachability,
                ))
        results = reference.run_to_completion(ContinuousEngine(capacity=2), jobs)
        for sample, result in zip(chosen, results):
            seg, rate = model.recover(make_batch([sample]))
            assert np.array_equal(result.segments, seg[0])
            assert np.array_equal(result.rates, rate[0])
