"""Tests for the road network model, synthetic generator and shortest paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import reference_network
from repro.roadnet import (
    CityConfig,
    NUM_ROAD_LEVELS,
    RoadSegment,
    ShortestPathEngine,
    generate_city,
)


def tiny_network():
    """0→1→2 chain plus a 2→0 loop closure, unit geometry."""
    segments = [
        RoadSegment(0, np.array([[0.0, 0.0], [100.0, 0.0]]), level=2),
        RoadSegment(1, np.array([[100.0, 0.0], [100.0, 100.0]]), level=2),
        RoadSegment(2, np.array([[100.0, 100.0], [0.0, 0.0]]), level=4),
    ]
    edges = [(0, 1), (1, 2), (2, 0)]
    return reference_network(segments, edges)


class TestRoadSegment:
    def test_length(self):
        seg = RoadSegment(0, np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.isclose(seg.length, 5.0)

    def test_position_at(self):
        seg = RoadSegment(0, np.array([[0.0, 0.0], [100.0, 0.0]]))
        assert np.allclose(seg.position_at(0.25), [25.0, 0.0])

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            RoadSegment(0, np.array([[0.0, 0.0]]))

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            RoadSegment(0, np.array([[0.0, 0.0], [1.0, 0.0]]), level=NUM_ROAD_LEVELS)


class TestRoadNetwork:
    def test_adjacency_lists(self):
        net = tiny_network()
        out_indptr, out_indices, out_degree = net.csr_out_neighbors()
        in_indptr, in_indices = net.csr_in_neighbors()
        assert out_indices[out_indptr[0]:out_indptr[1]].tolist() == [1]
        assert in_indices[in_indptr[0]:in_indptr[1]].tolist() == [2]
        assert out_degree.tolist() == [1, 1, 1]

    def test_per_segment_arrays_are_read_only(self):
        net = tiny_network()
        assert net.levels().tolist() == [2, 2, 4]
        assert net.elevated().tolist() == [False, False, False]
        assert net.lengths().tolist() == [100.0, 100.0, np.hypot(100.0, 100.0)]
        for array in (net.levels(), net.elevated(), net.lengths()):
            assert not array.flags.writeable
        assert net.lengths() is net.lengths()

    def test_static_features_shape_and_content(self):
        net = tiny_network()
        f = net.static_features()
        assert f.shape == (3, 11)
        assert f[0, 2] == 1.0  # level-2 one-hot
        assert f[2, 4] == 1.0
        assert f[0, NUM_ROAD_LEVELS + 2] == 1.0  # one outgoing edge

    def test_nearest_segment(self):
        net = tiny_network()
        sid, dist, ratio = net.nearest_segment(50.0, 5.0)
        assert sid == 0
        assert np.isclose(dist, 5.0)
        assert np.isclose(ratio, 0.5)

    def test_segments_within_sorted(self):
        net = tiny_network()
        ids, dists = net.segments_within_arrays(50.0, 5.0, 500.0)
        assert dists.tolist() == sorted(dists.tolist())
        assert ids[0] == 0

    def test_segments_within_batch_equals_single_point_queries(self, monkeypatch):
        """The multi-point query is Q single-point queries: same id sets,
        bit-equal distances — over multi-vertex polylines, a zero-length
        sub-segment, a point with no hit, and Q = 0 — however many
        distance-kernel blocks the pairs are cut into."""
        segments = [
            RoadSegment(0, np.array([[0.0, 0.0], [40.0, 0.0], [40.0, 30.0],
                                     [90.0, 30.0]])),
            RoadSegment(1, np.array([[90.0, 30.0], [90.0, 30.0], [150.0, 80.0]])),
            RoadSegment(2, np.array([[150.0, 80.0], [0.0, 0.0]])),
            RoadSegment(3, np.array([[-60.0, 120.0], [-20.0, 160.0],
                                     [30.0, 140.0]])),
        ]
        net = reference_network(segments, [(0, 1), (1, 2), (2, 0)])
        rng = np.random.default_rng(5)
        points = np.vstack([rng.uniform(-80.0, 170.0, size=(30, 2)),
                            [[90.0, 30.0], [40.0, 0.0], [5000.0, 5000.0]]])
        for radius, block in ((25.0, 1 << 14), (70.0, 7), (400.0, 1), (400.0, 50)):
            monkeypatch.setattr("repro.roadnet.network._PAIR_BLOCK", block)
            indptr, ids, dists = net.segments_within_batch(points, radius)
            assert indptr[0] == 0 and indptr[-1] == len(ids) == len(dists)
            for q, (x, y) in enumerate(points):
                one_ids, one_dists = net.segments_within_arrays(x, y, radius)
                got = slice(indptr[q], indptr[q + 1])
                order = np.argsort(ids[got])
                expected = np.argsort(one_ids)
                assert np.array_equal(ids[got][order], one_ids[expected])
                assert np.array_equal(dists[got][order], one_dists[expected])
            assert indptr[-1] == indptr[-2]  # the far point hits nothing
        indptr, ids, dists = net.segments_within_batch(np.zeros((0, 2)), 70.0)
        assert indptr.tolist() == [0] and len(ids) == len(dists) == 0

    def test_position_projection_roundtrip(self):
        net = tiny_network()
        xy = net.position(1, 0.4)
        dist, ratio = net.project(xy[0], xy[1], 1)
        assert dist < 1e-9
        assert np.isclose(ratio, 0.4)

    def test_make_grid_covers_bounds(self):
        net = tiny_network()
        grid = net.make_grid(cell_size=50.0)
        x0, y0, x1, y1 = net.bounds()
        assert grid.x0 <= x0 and grid.x1 >= x1


@st.composite
def random_networks(draw, max_subsegments=3):
    """Random polylines in a box whose side sets the density (and so the
    bounded query's first radius), each with a coincident directed twin —
    same vertices, so the pair ties exactly at every distance — plus a few
    reversed ones and zero-length sub-segments."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.sampled_from([30.0, 200.0, 1500.0]))
    polylines = []
    for _ in range(draw(st.integers(1, 60))):
        steps = rng.normal(scale=side / 8, size=(rng.integers(1, max_subsegments + 1), 2))
        steps[rng.random(len(steps)) < 0.15] = 0.0  # zero-length sub-segments
        line = np.cumsum(np.vstack([rng.uniform(0, side, size=2), steps]), axis=0)
        polylines += [line, line.copy(), line[::-1].copy()][:rng.integers(1, 4)]
    return reference_network([RoadSegment(i, line) for i, line in enumerate(polylines)], [])


class TestBoundedQuery:
    """``nearest_within_arrays`` is the first ``limit`` rows of the full
    δ-query, byte for byte, however many balls it searched."""

    @given(random_networks(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_equals_prefix_of_full_query(self, net, data):
        x0, y0, x1, y1 = net.bounds()
        span = max(x1 - x0, y1 - y0, 1.0)
        far = data.draw(st.sampled_from([0.0, 0.0, 0.5, 40.0]))  # off the network
        x = data.draw(st.floats(x0 - far * span, x1 + far * span))
        y = data.draw(st.floats(y0 - far * span, y1 + far * span))
        # below and above the first ball (2·sqrt(k·area / (π·|V|)))
        radius = data.draw(st.sampled_from([1.0, 10.0, 75.0, 300.0, 5000.0]))
        ids, dists = net.segments_within_arrays(x, y, radius)
        for limit in (1, 2, 32, len(ids) + 1):
            got_ids, got_dists = net.nearest_within_arrays(x, y, radius, limit)
            assert got_ids.tobytes() == ids[:limit].tobytes()
            assert got_dists.tobytes() == dists[:limit].tobytes()

    def test_ties_at_the_cut_keep_scan_order(self):
        """Four coincident twins at one distance, limit 2: the cut falls
        inside the tie and must pick the same two as the full query."""
        line = np.array([[0.0, 10.0], [50.0, 10.0]])
        lines = [line + [0.0, 40.0 * i] for i in range(40) for _ in range(4)]
        net = reference_network([RoadSegment(i, l) for i, l in enumerate(lines)], [])
        ids, dists = net.segments_within_arrays(25.0, 0.0, 300.0)
        assert dists[0] == dists[3] < dists[4]
        got_ids, got_dists = net.nearest_within_arrays(25.0, 0.0, 300.0, 2)
        assert got_ids.tolist() == ids[:2].tolist()
        assert got_dists.tolist() == dists[:2].tolist()

    def test_degenerate_bounds_fall_back_to_one_full_query(self):
        """Collinear geometry has a zero-area bbox: no density to derive a
        first ball from, so the query is the full one."""
        net = reference_network(
            [RoadSegment(i, np.array([[10.0 * i, 0.0], [10.0 * i + 10.0, 0.0]]))
             for i in range(8)], [])
        ids, dists = net.segments_within_arrays(35.0, 3.0, 25.0)
        got = net.nearest_within_arrays(35.0, 3.0, 25.0, 3)
        assert got[0].tolist() == ids[:3].tolist() and got[1].tolist() == dists[:3].tolist()


class TestDistanceKernel:
    """The in-place row kernel ≡ the expression-form kernel it replaced
    (``reference.reference_pair_distances``), byte for byte."""

    @given(random_networks(max_subsegments=6), st.data())
    @settings(max_examples=120, deadline=None)
    def test_pair_distances_bytes(self, net, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x0, y0, x1, y1 = net.bounds()
        counts = np.diff(net._geometry_columns()[0])
        pools = [np.arange(net.num_segments), np.flatnonzero(counts == 1),
                 np.flatnonzero(counts > 1)]  # mixed, all-single, all-multi
        for pool in pools:
            if not len(pool):
                continue
            ids = rng.choice(pool, size=rng.integers(1, 40))
            px = rng.uniform(x0 - 50.0, x1 + 50.0, size=len(ids))
            py = rng.uniform(y0 - 50.0, y1 + 50.0, size=len(ids))
            # on a vertex, on whole metres, and anywhere
            px[0], py[0] = net.segments[int(ids[0])].polyline[0]
            px[-1], py[-1] = np.round(px[-1]), np.round(py[-1])
            for qx, qy in ((px, py), (float(px[0]), float(py[0])), (-0.0, 0.0)):
                want = reference.reference_pair_distances(net, qx, qy, ids)
                got = net.segment_distances(qx, qy, ids)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(random_networks(max_subsegments=6), st.data())
    @settings(max_examples=120, deadline=None)
    def test_project_ratios_bytes(self, net, data):
        """The HMM candidates' one-pass ratios ≡ :meth:`project` per
        segment, byte for byte, straight and bent polylines mixed."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x0, y0, x1, y1 = net.bounds()
        ids = rng.integers(0, net.num_segments, size=rng.integers(1, 9))
        vertex = net.segments[int(ids[0])].polyline[-1]
        for x, y in (rng.uniform([x0 - 50.0, y0 - 50.0], [x1 + 50.0, y1 + 50.0]),
                     vertex, np.round(vertex)):
            want = np.array([net.project(x, y, int(sid))[1] for sid in ids])
            assert net.project_ratios(x, y, ids).tobytes() == want.tobytes()

    def test_empty_candidate_list(self):
        net = tiny_network()
        assert net.segment_distances(1.0, 2.0, np.zeros(0, np.int64)).shape == (0,)
        ids, dists = net.segments_within_arrays(1e6, 1e6, 10.0)
        assert ids.dtype == np.int64 and dists.dtype == np.float64
        assert len(ids) == len(dists) == 0


class TestGenerator:
    def test_deterministic(self):
        a = generate_city(CityConfig(width=1000, height=1000, seed=5))
        b = generate_city(CityConfig(width=1000, height=1000, seed=5))
        assert a.num_segments == b.num_segments
        assert np.array_equal(a.edge_index(), b.edge_index())

    def test_two_way_pairs_exist(self):
        net = generate_city(CityConfig(width=1000, height=1000, seed=5))
        # For at least one pair of segments, geometry is reversed.
        found = False
        for i in range(0, min(net.num_segments, 20), 2):
            a, b = net.segments[i], net.segments[i + 1]
            if np.allclose(a.polyline, b.polyline[::-1]):
                found = True
                break
        assert found

    def test_elevated_deck_present_and_marked(self):
        net = generate_city(CityConfig(width=1500, height=1500, elevated_rows=(2,), seed=5))
        levels = set(net.levels()[net.elevated()].tolist())
        assert {0, 1} <= levels  # expressway deck and ramps

    def test_no_elevated_when_disabled(self):
        net = generate_city(CityConfig(width=1000, height=1000, elevated_rows=(), seed=5))
        assert not net.elevated().any()

    def test_no_instant_u_turns(self):
        net = generate_city(CityConfig(width=1000, height=1000, seed=5, allow_u_turn=False))
        for a, b in net.edge_index().T.tolist():
            pa, pb = net.segments[a].polyline, net.segments[b].polyline
            # b must not be exactly a reversed (the opposite twin).
            if pa.shape == pb.shape:
                assert not np.allclose(pa, pb[::-1])

    def test_strong_connectivity_bulk(self):
        net = generate_city(CityConfig(width=1250, height=1250, seed=7))
        engine = ShortestPathEngine(net)
        reachable = np.isfinite(engine.distances_from(0)).mean()
        assert reachable > 0.95

    def test_too_small_city_rejected(self):
        with pytest.raises(ValueError):
            generate_city(CityConfig(width=200, height=200, block=250))


class TestShortestPath:
    def test_chain_distance(self):
        net = tiny_network()
        engine = ShortestPathEngine(net)
        dist = engine.distances_from(0)
        assert np.isclose(dist[0], 0.0)
        assert np.isclose(dist[1], net.lengths()[1])
        assert np.isclose(dist[2], net.lengths()[1] + net.lengths()[2])

    def test_route_recovery(self):
        net = tiny_network()
        engine = ShortestPathEngine(net)
        assert engine.route(0, 2) == [0, 1, 2]
        assert engine.route(1, 1) == [1]

    def test_route_unreachable(self):
        segments = [
            RoadSegment(0, np.array([[0.0, 0.0], [1.0, 0.0]])),
            RoadSegment(1, np.array([[5.0, 5.0], [6.0, 5.0]])),
        ]
        engine = ShortestPathEngine(reference_network(segments, []))
        assert engine.route(0, 1) is None

    def test_matches_networkx_reference(self):
        import networkx as nx

        net = generate_city(CityConfig(width=1000, height=1000, seed=3))
        engine = ShortestPathEngine(net)
        g = nx.DiGraph()
        for a, b in net.edge_index().T.tolist():
            g.add_edge(a, b, weight=net.lengths()[b])
        ref = nx.single_source_dijkstra_path_length(g, 0)
        ours = engine.distances_from(0)
        for node, d in list(ref.items())[:50]:
            assert np.isclose(ours[node], d, atol=1e-6)

    def test_position_distance_same_segment_forward(self):
        net = tiny_network()
        engine = ShortestPathEngine(net)
        d = engine.position_distance(0, 0.2, 0, 0.7)
        assert np.isclose(d, 0.5 * net.lengths()[0])

    def test_position_distance_cross_segment(self):
        net = tiny_network()
        engine = ShortestPathEngine(net)
        d = engine.position_distance(0, 0.5, 1, 0.5)
        expected = 0.5 * net.lengths()[0] + 0.5 * net.lengths()[1]
        assert np.isclose(d, expected)

    def test_position_distance_backward_routes_around_loop(self):
        net = tiny_network()
        engine = ShortestPathEngine(net)
        d = engine.position_distance(0, 0.7, 0, 0.2)
        loop = net.lengths()[1] + net.lengths()[2]
        assert np.isclose(d, 0.3 * net.lengths()[0] + loop + 0.2 * net.lengths()[0])

    def test_symmetric_distance_finite_fallback(self):
        segments = [
            RoadSegment(0, np.array([[0.0, 0.0], [10.0, 0.0]])),
            RoadSegment(1, np.array([[50.0, 0.0], [60.0, 0.0]])),
        ]
        engine = ShortestPathEngine(reference_network(segments, []))
        d = engine.symmetric_position_distance(0, 0.0, 1, 0.0)
        assert np.isclose(d, 50.0)  # straight-line fallback

    def test_cache_hit_same_array(self):
        net = tiny_network()
        engine = ShortestPathEngine(net)
        a = engine.distances_from(0)
        b = engine.distances_from(0)
        assert a is b
