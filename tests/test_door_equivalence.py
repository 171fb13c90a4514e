"""The door's one-pass helpers against their numpy predecessors.

A cache hit is answered by plain-Python passes over the client's floats:
``ShardRouter.shard_of_points``, ``trace_floats`` (behind
``RecoveryRequest.raw``), ``grid_steps`` / ``grid_alignment``,
``quantize_key`` and the shard's ``request_key``.  The numpy versions they
replaced live in ``tests/reference.py``; here Hypothesis holds each new
helper to its reference: the same shard or the same ``RouteError.reason``,
equal keys (so equal hit/miss decisions), bit-equal grids, and the same
exception type (a ``RequestError`` where numpy raised a plain
``ValueError`` counts, being one).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster.router import RouteError, ShardRouter
from repro.cluster.shard import request_key
from repro.serve import RecoveryRequest, RequestError, ServeConfig, quantize_key
from repro.serve.request import (
    MAX_GRID_STEPS, grid_alignment, grid_steps, trace_floats)

from reference import (
    ReferenceShardRouter,
    reference_grid_alignment,
    reference_quantize_key,
    reference_raw,
    reference_shard_key,
)

# Side by side with a gap, touching at an edge, and a 2 x 2 block with
# negative coordinates — each with a cell size that does and one that does
# not divide the extent.
LAYOUTS = [
    [(0.0, 0.0, 1000.0, 1000.0), (1500.0, 0.0, 2500.0, 1000.0)],
    [(0.0, 0.0, 1000.0, 1000.0), (1000.0, 0.0, 2000.0, 1000.0)],
    [(-1000.0, -1000.0, 0.0, 0.0), (0.0, -1000.0, 1000.0, 0.0),
     (-1000.0, 0.0, 0.0, 1000.0), (0.5, 0.5, 1000.0, 1000.0)],
]
CELLS = [200.0, 300.0, 333.3]


def _edges(boxes):
    return sorted({v for box in boxes for v in box} | {-50000.0, 1250.0})


def _near(value):
    """A value on, just inside and just outside an edge."""
    return st.sampled_from([
        value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf),
        value + 0.05, value - 0.05, value + 1.0, value - 1.0])


@st.composite
def _traces(draw, boxes):
    edges = _edges(boxes)
    coordinate = st.one_of(
        st.sampled_from(edges).flatmap(_near),
        st.floats(-1200.0, 2700.0, allow_nan=False),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    )
    return draw(st.lists(st.tuples(coordinate, coordinate), min_size=1,
                         max_size=6))


def _outcome(route, xy):
    try:
        return route(xy)
    except RouteError as exc:
        return exc.reason, str(exc)


class TestRouter:
    @pytest.mark.parametrize("layout", range(len(LAYOUTS)))
    @pytest.mark.parametrize("cell", CELLS)
    @settings(max_examples=60, deadline=None)
    @given(case=st.data())
    def test_same_shard_or_same_reason(self, layout, cell, case):
        boxes = LAYOUTS[layout]
        xy = case.draw(_traces(boxes))
        new, old = ShardRouter(boxes, cell), ReferenceShardRouter(boxes, cell)
        assert _outcome(new.shard_of_points, xy) == _outcome(old.shard_of_points, xy)
        assert _outcome(new.shard_of_points, np.asarray(xy)) == _outcome(
            old.shard_of_points, xy)
        assert new.coverage() == old.coverage()

    def test_a_trace_on_a_shared_edge_keeps_the_grid_s_answer(self):
        """Touching boxes: the grid's owner wins where containment alone
        would see two shards, exactly as before."""
        boxes = LAYOUTS[1]
        for cell in CELLS:
            xy = [(1000.0, 100.0), (1000.0, 900.0)]
            assert (_outcome(ShardRouter(boxes, cell).shard_of_points, xy)
                    == _outcome(ReferenceShardRouter(boxes, cell).shard_of_points, xy))

    @pytest.mark.parametrize("xy", [
        [], [[1.0, 2.0, 3.0]], [[1.0], [2.0, 3.0]], [1.0, 2.0], 5.0,
        np.zeros((0, 2)), np.zeros((3, 3)), np.zeros(4)])
    def test_wrong_shapes_are_value_errors(self, xy):
        for router in (ShardRouter(LAYOUTS[0]), ReferenceShardRouter(LAYOUTS[0])):
            with pytest.raises(ValueError) as err:
                router.shard_of_points(xy)
            assert not isinstance(err.value, RouteError)


# ----------------------------------------------------------------------
# Validation, grid, key
# ----------------------------------------------------------------------
QUANTUM = 0.1


def _jittered(value):
    """``value`` moved below, onto and past a 0.1 rounding boundary."""
    boundary = (math.floor(value / QUANTUM) + 0.5) * QUANTUM
    return st.sampled_from([
        value, -value, boundary, math.nextafter(boundary, math.inf),
        math.nextafter(boundary, -math.inf), boundary + 1e-9, boundary - 1e-9,
        value + 0.04, value + 0.06])


@st.composite
def _valid_traces(draw):
    n = draw(st.integers(2, 8))
    xy = [(draw(st.floats(-5000.0, 5000.0).flatmap(_jittered)),
           draw(st.floats(-5000.0, 5000.0).flatmap(_jittered))) for _ in range(n)]
    start = draw(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0])))
    gaps = draw(st.lists(st.one_of(
        st.floats(0.01, 400.0), st.sampled_from([6.0, 18.0, 12.0, 0.05, 0.15])),
        min_size=n - 1, max_size=n - 1))
    times = [start]
    for gap in gaps:
        times.append(draw(_jittered(times[-1] + gap)))
    assume(all(b > a for a, b in zip(times, times[1:])))
    return xy, times


def _raises_like(new, old, *args, same=lambda a, b: a == b):
    """Both return the same value, or ``new`` raises what ``old`` raised."""
    try:
        expected = old(*args)
    except Exception as exc:
        with pytest.raises(type(exc)):
            new(*args)
        return None
    got = new(*args)
    assert same(got, expected)
    return got


def _same_raw(a, b):
    return (a.xy.tobytes() == b.xy.tobytes() and a.xy.shape == b.xy.shape
            and a.times.tobytes() == b.times.tobytes())


CONFIG = ServeConfig()


def _new_key(xy, times, origin=(0.0, 0.0), hour=12, holiday=False):
    """``Shard.localize`` then ``request_key``, as ``Shard.submit`` runs them."""
    local = RecoveryRequest(*trace_floats(xy, times, origin), hour, holiday)
    return request_key(local, CONFIG)


def _old_key(xy, times, origin=(0.0, 0.0), hour=12, holiday=False):
    """The numpy key, plus the one intended difference: a trace spanning
    more than ``MAX_GRID_STEPS`` steps is refused (numpy built its grid)."""
    key = reference_shard_key(xy, times, CONFIG.interval, hour, holiday, origin)
    if round((times[-1] - times[0]) / CONFIG.interval) + 1 > MAX_GRID_STEPS:
        raise RequestError("past the grid bound")
    return key


class TestKeys:
    @settings(max_examples=150, deadline=None)
    @given(trace=_valid_traces(), origin=st.sampled_from([(0.0, 0.0), (4500.0, -0.5)]),
           hour=st.integers(-30, 60), holiday=st.booleans())
    def test_equal_keys(self, trace, origin, hour, holiday):
        xy, times = trace
        key = _raises_like(_new_key, _old_key, xy, times, origin, hour, holiday)
        if key is not None:
            assert _new_key(np.asarray(xy), np.asarray(times), origin, hour,
                            holiday) == key
        assert quantize_key(xy, times) == reference_quantize_key(xy, times)
        assert quantize_key(np.asarray(xy), np.asarray(times)) == \
            reference_quantize_key(xy, times)

    @settings(max_examples=150, deadline=None)
    @given(a=_valid_traces(), data=st.data())
    def test_equal_hit_miss_decisions(self, a, data):
        """A jittered, shifted copy of a trace hits under the new key
        exactly when it hit under the old one."""
        xy, times = a
        jittered_xy = [(data.draw(_jittered(x)), data.draw(_jittered(y)))
                       for x, y in xy]
        shift = data.draw(st.sampled_from([0.0, 0.04, 0.05, 0.06, 1.0, 12.5, -7.25]))
        jittered_times = [data.draw(_jittered(t + shift)) for t in times]
        assume(all(b > c for c, b in zip(jittered_times, jittered_times[1:])))
        old = _raises_like(_new_key, _old_key, xy, times)
        old_b = _raises_like(_new_key, _old_key, jittered_xy, jittered_times)
        if old is not None and old_b is not None:
            assert (_new_key(xy, times) == _new_key(jittered_xy, jittered_times)) \
                == (old == old_b)

    @settings(max_examples=150, deadline=None)
    @given(trace=_valid_traces(), interval=st.sampled_from([12.0, 15.0, 0.7, 1e-3]))
    def test_bit_equal_grids(self, trace, interval):
        _, times = trace
        if round((times[-1] - times[0]) / interval) + 1 > MAX_GRID_STEPS:
            with pytest.raises(RequestError):
                grid_alignment(times, interval)
            return
        grid, steps = reference_grid_alignment(times, interval)
        new_grid, new_steps = grid_alignment(times, interval)
        assert new_grid.tobytes() == grid.tobytes()
        assert new_steps.dtype == steps.dtype and np.array_equal(new_steps, steps)
        assert grid_steps(times, interval) == (len(grid), steps.tolist())

    def test_signed_zeros_share_a_key(self):
        xy, times = [(0.0, -0.0), (10.0, 10.0)], [-0.0, 12.0]
        assert _new_key(xy, times) == _new_key([(-0.0, 0.0), (10.0, 10.0)],
                                               [0.0, 12.0]) == _old_key(xy, times)


# ----------------------------------------------------------------------
# Malformed requests: the same exception type
# ----------------------------------------------------------------------
GOOD_XY, GOOD_TIMES = [(100.0, 100.0), (200.0, 150.0), (300.0, 120.0)], [0.0, 12.0, 30.0]
MALFORMED = [
    pytest.param([(100.0, math.nan), (200.0, 1.0)], [0.0, 12.0], id="nan-x"),
    pytest.param([(math.inf, 1.0), (200.0, 1.0)], [0.0, 12.0], id="inf-x"),
    pytest.param(GOOD_XY, [0.0, math.nan, 30.0], id="nan-time"),
    pytest.param(GOOD_XY, [0.0, 12.0, math.inf], id="inf-time"),
    pytest.param(GOOD_XY, [-math.inf, 12.0, 30.0], id="minus-inf-time"),
    pytest.param(GOOD_XY, [0.0, 30.0, 12.0], id="decreasing"),
    pytest.param(GOOD_XY, [0.0, 12.0, 12.0], id="repeated"),
    pytest.param(GOOD_XY, [0.0, 12.0], id="short-times"),
    pytest.param(GOOD_XY, [[0.0], [12.0], [30.0]], id="2d-times"),
    pytest.param(GOOD_XY, 5.0, id="scalar-times"),
    pytest.param([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)], [0.0, 12.0], id="xyz"),
    pytest.param([[1.0], [2.0, 3.0]], [0.0, 12.0], id="ragged"),
    pytest.param([1.0, 2.0], [0.0, 12.0], id="flat-xy"),
    pytest.param([], [], id="empty"),
    pytest.param([(100.0, 100.0)], [0.0], id="one-fix"),
    pytest.param(np.array([[100.0, 100.0]]), np.array([5.0]), id="one-fix-array"),
    pytest.param(np.zeros((0, 2)), np.zeros(0), id="empty-array"),
]


class TestMalformed:
    @pytest.mark.parametrize("xy, times", MALFORMED)
    def test_raw_raises_what_it_raised(self, xy, times):
        _raises_like(lambda a, b: RecoveryRequest(a, b).raw(), reference_raw,
                     xy, times, same=_same_raw)

    @pytest.mark.parametrize("xy, times", MALFORMED)
    def test_the_door_raises_what_it_raised(self, xy, times):
        """Route, then validate and key, as ``RecoveryCluster.submit`` and
        ``Shard.submit`` run them."""
        boxes = [(0.0, 0.0, 1000.0, 1000.0)]

        def door(router, key):
            def run(xy, times):
                router.shard_of_points(xy)
                return key(xy, times)
            return run

        _raises_like(door(ShardRouter(boxes), _new_key),
                     door(ReferenceShardRouter(boxes), _old_key), xy, times)

    def test_raw_arrays_equal_the_reference(self):
        for xy, times in ((GOOD_XY, GOOD_TIMES),
                          ([(1, 2), (3, 4)], [0, 96]),
                          (np.asarray(GOOD_XY, dtype=np.float32), GOOD_TIMES)):
            assert _same_raw(RecoveryRequest(xy, times).raw(),
                             reference_raw(xy, times))


class TestGridBound:
    def test_a_trace_past_the_bound_is_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(RequestError, match="ε_ρ steps"):
                grid_alignment([0.0, 1e12], 12.0)
            with pytest.raises(RequestError):
                _new_key([(1.0, 1.0), (2.0, 2.0)], [0.0, 1e12])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_the_bound_admits_the_longest_trace_the_tree_sends(self):
        count, steps = grid_steps([0.0, (MAX_GRID_STEPS - 1) * 12.0], 12.0)
        assert (count, steps) == (MAX_GRID_STEPS, [0, MAX_GRID_STEPS - 1])
        with pytest.raises(RequestError):
            grid_steps([0.0, MAX_GRID_STEPS * 12.0], 12.0)
        assert grid_steps(np.arange(1025) * 12.0, 12.0)[0] == 1025  # long-trace tests
