"""Tests for geographic primitives: distances, projections, grid, R-tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo import (
    Grid,
    LocalProjection,
    RTree,
    gaussian_weight,
    haversine,
    point_along_polyline,
    polyline_length,
    project_point_to_polyline,
)

RNG = np.random.default_rng(23)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine(31.2, 121.5, 31.2, 121.5) == 0.0

    def test_known_distance_equator_degree(self):
        # One degree of longitude at the equator ≈ 111.19 km.
        d = haversine(0.0, 0.0, 0.0, 1.0)
        assert abs(d - 111_195) < 200

    def test_symmetry(self):
        a, b = (31.0, 121.0), (31.4, 121.8)
        assert np.isclose(haversine(*a, *b), haversine(*b, *a))

    def test_vectorized(self):
        lats = np.array([0.0, 10.0])
        out = haversine(lats, 0.0, lats, 1.0)
        assert out.shape == (2,)
        assert out[1] < out[0]  # longitude degrees shrink with latitude


class TestLocalProjection:
    def test_roundtrip(self):
        proj = LocalProjection(31.2, 121.5)
        lat, lon = 31.25, 121.56
        x, y = proj.to_xy(lat, lon)
        lat2, lon2 = proj.to_latlon(x, y)
        assert np.isclose(lat, lat2, atol=1e-9)
        assert np.isclose(lon, lon2, atol=1e-9)

    def test_metric_consistency_with_haversine(self):
        proj = LocalProjection(31.2, 121.5)
        x, y = proj.to_xy(31.21, 121.51)
        planar = float(np.hypot(x, y))
        true = float(haversine(31.2, 121.5, 31.21, 121.51))
        assert abs(planar - true) / true < 0.01


class TestProjection:
    STRAIGHT = np.array([[0.0, 0.0], [100.0, 0.0]])

    def test_point_on_line(self):
        dist, ratio, foot = project_point_to_polyline(np.array([50.0, 0.0]), self.STRAIGHT)
        assert np.isclose(dist, 0.0)
        assert np.isclose(ratio, 0.5)
        assert np.allclose(foot, [50.0, 0.0])

    def test_perpendicular_offset(self):
        dist, ratio, _ = project_point_to_polyline(np.array([30.0, 40.0]), self.STRAIGHT)
        assert np.isclose(dist, 40.0)
        assert np.isclose(ratio, 0.3)

    def test_clamped_before_start(self):
        dist, ratio, foot = project_point_to_polyline(np.array([-30.0, 0.0]), self.STRAIGHT)
        assert np.isclose(ratio, 0.0)
        assert np.allclose(foot, [0.0, 0.0])
        assert np.isclose(dist, 30.0)

    def test_multi_vertex_polyline(self):
        poly = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0]])
        dist, ratio, _ = project_point_to_polyline(np.array([100.0, 50.0]), poly)
        assert np.isclose(dist, 0.0)
        assert np.isclose(ratio, 0.75)

    def test_degenerate_polyline_rejected(self):
        with pytest.raises(ValueError):
            project_point_to_polyline(np.zeros(2), np.array([[0.0, 0.0]]))

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_point_along_then_project_recovers_ratio(self, ratio):
        poly = np.array([[0.0, 0.0], [60.0, 0.0], [60.0, 80.0]])
        point = point_along_polyline(poly, ratio)
        dist, recovered, _ = project_point_to_polyline(point, poly)
        assert dist < 1e-9
        assert abs(recovered - ratio) < 1e-9

    def test_polyline_length(self):
        poly = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 14.0]])
        assert np.isclose(polyline_length(poly), 15.0)


class TestGaussianWeight:
    def test_zero_distance_is_one(self):
        assert np.isclose(gaussian_weight(0.0, 30.0), 1.0)

    def test_monotone_decreasing(self):
        d = np.array([0.0, 10.0, 30.0, 100.0])
        w = gaussian_weight(d, 30.0)
        assert np.all(np.diff(w) < 0)

    def test_scale_controls_falloff(self):
        assert gaussian_weight(30.0, 60.0) > gaussian_weight(30.0, 15.0)


class TestGrid:
    def test_dims(self):
        grid = Grid(0.0, 0.0, 1000.0, 500.0, cell_size=50.0)
        assert grid.cols == 20
        assert grid.rows == 10
        assert grid.num_cells == 200

    def test_cell_of_clamps(self):
        grid = Grid(0.0, 0.0, 100.0, 100.0, cell_size=50.0)
        row, col = grid.cell_of(-10.0, 500.0)
        assert row == 1 and col == 0

    def test_cell_of_equals_np_clip_outside_the_grid_on_every_side(self):
        grid = Grid(-30.0, 20.0, 470.0, 370.0, cell_size=50.0)
        xs = np.array([-1e6, -31.0, -30.0, 0.0, 219.9, 469.99, 470.0, 900.0, 1e9])
        ys = np.array([-1e9, 19.0, 20.0, 100.0, 369.99, 370.0, 371.0, 5e3, 1e6])
        x, y = (a.ravel() for a in np.meshgrid(xs, ys))
        row, col = grid.cell_of(x, y)
        want_col = np.clip(((x - grid.x0) // grid.cell_size).astype(np.int64), 0, grid.cols - 1)
        want_row = np.clip(((y - grid.y0) // grid.cell_size).astype(np.int64), 0, grid.rows - 1)
        assert np.array_equal(row, want_row) and np.array_equal(col, want_col)
        assert row.dtype == col.dtype == np.int64
        assert {0, grid.rows - 1} <= set(row.tolist())
        assert {0, grid.cols - 1} <= set(col.tolist())

    def test_flat_index_bijective(self):
        grid = Grid(0.0, 0.0, 200.0, 200.0, cell_size=50.0)
        seen = set()
        for r in range(grid.rows):
            for c in range(grid.cols):
                seen.add(int(grid.flat_index(r, c)))
        assert len(seen) == grid.num_cells

    def test_cell_center_inside_cell(self):
        grid = Grid(0.0, 0.0, 100.0, 100.0, cell_size=50.0)
        cx, cy = grid.cell_center(1, 0)
        row, col = grid.cell_of(cx, cy)
        assert (row, col) == (1, 0)

    def test_traverse_straight_line(self):
        grid = Grid(0.0, 0.0, 500.0, 500.0, cell_size=50.0)
        cells = grid.traverse_polyline(np.array([[25.0, 25.0], [225.0, 25.0]]))
        assert cells == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]

    def test_traverse_cells_are_adjacent(self):
        grid = Grid(0.0, 0.0, 1000.0, 1000.0, cell_size=50.0)
        poly = np.array([[10.0, 10.0], [400.0, 300.0], [800.0, 100.0]])
        cells = grid.traverse_polyline(poly)
        for (r1, c1), (r2, c2) in zip(cells, cells[1:]):
            assert abs(r1 - r2) <= 1 and abs(c1 - c2) <= 1

    def test_traverse_no_consecutive_duplicates(self):
        grid = Grid(0.0, 0.0, 500.0, 500.0, cell_size=50.0)
        cells = grid.traverse_polyline(np.array([[0.0, 0.0], [499.0, 499.0]]))
        for a, b in zip(cells, cells[1:]):
            assert a != b


class TestRTree:
    def _random_boxes(self, n, seed=0):
        rng = np.random.default_rng(seed)
        mins = rng.uniform(0, 900, size=(n, 2))
        sizes = rng.uniform(5, 80, size=(n, 2))
        return np.concatenate([mins, mins + sizes], axis=1)

    def test_query_matches_bruteforce(self):
        boxes = self._random_boxes(200)
        tree = RTree(boxes)
        query = (100.0, 100.0, 300.0, 250.0)
        expected = {
            i
            for i, (x0, y0, x1, y1) in enumerate(boxes)
            if not (x1 < query[0] or query[2] < x0 or y1 < query[1] or query[3] < y0)
        }
        assert set(tree.query_rect(*query)) == expected

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_query_radius_no_false_negatives(self, seed):
        rng = np.random.default_rng(seed)
        boxes = self._random_boxes(60, seed=seed)
        tree = RTree(boxes)
        x, y, r = rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(10, 200)
        hits = set(tree.query_radius(x, y, r))
        for i, (x0, y0, x1, y1) in enumerate(boxes):
            # Box fully inside the radius rectangle must be reported.
            if x0 >= x - r and x1 <= x + r and y0 >= y - r and y1 <= y + r:
                assert i in hits

    def test_query_radius_many_matches_per_point(self):
        """CSR batch queries equal per-point queries id-for-id, for every
        chunking of the query points (including blocks that split them)."""
        boxes = self._random_boxes(150, seed=7)
        tree = RTree(boxes)
        rng = np.random.default_rng(11)
        points = rng.uniform(-50, 1050, size=(23, 2))
        radius = 120.0
        expected = [tree.query_radius(x, y, radius) for x, y in points]
        for block in (None, 1, 4, 23, 1000):
            indptr, ids = tree.query_radius_many(points, radius, block=block)
            assert len(indptr) == len(points) + 1
            for q, hits in enumerate(expected):
                assert ids[indptr[q]:indptr[q + 1]].tolist() == hits, block

    def test_empty_tree(self):
        tree = RTree(np.zeros((0, 4)))
        assert tree.query_rect(0, 0, 1, 1) == []
        assert len(tree) == 0

    def test_single_item(self):
        tree = RTree(np.array([[0.0, 0.0, 10.0, 10.0]]))
        assert tree.query_rect(5, 5, 6, 6) == [0]
        assert tree.query_rect(20, 20, 30, 30) == []

    def test_malformed_boxes_rejected(self):
        with pytest.raises(ValueError):
            RTree(np.array([[10.0, 0.0, 0.0, 10.0]]))
        with pytest.raises(ValueError):
            RTree(np.zeros((3, 3)))

    def test_large_tree_depth(self):
        boxes = self._random_boxes(2000, seed=5)
        tree = RTree(boxes, leaf_capacity=8)
        hits = tree.query_rect(0, 0, 1000, 1000)
        assert len(hits) == 2000
