"""One module code path, two input types.

Under ``no_grad`` every op of an encoder forward runs on plain arrays (no
``Tensor``, no backward closure) and returns bytes equal to the taped run
of the same module code: pinned here for RNTrajRec's default config, every
Table V ablation, both ``weight_refinement`` variants, the Fig. 7(a) road
encoders and every learned baseline.  Around it: the ``Segments`` index
object against raw ids, the flat-bincount gradients against ``np.add.at``,
the branch-free sigmoid / leaky-ReLU against their ``np.where`` forms,
mixed ndarray / Parameter operands, and the positional table's growth
past 1 024 fixes (requests and streaming sessions).
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from repro import nn
from repro.baselines import BASELINE_NAMES, build_baseline
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.datasets import load_dataset
from repro.nn import functional as F
from repro.nn.tensor import (Tensor, Segments, gather_rows, leaky_relu_array, no_grad,
                             scatter_sum_array, segment_max_array, segment_mean,
                             segment_softmax, segment_sum, sigmoid_array)
from repro.nn.transformer import PositionalEncoding, sinusoidal_positions
from repro.roadnet import CityConfig, generate_city
from repro.serve import RecoveryRequest, RecoveryService, ServeConfig
from repro.stream import StoreConfig, StreamingRecoveryService
from repro.trajectory import (DatasetConfig, SimulationConfig, TrajectorySimulator,
                              build_samples, make_batch)

CFG = RNTrajRecConfig(hidden_dim=16, num_heads=2, max_subgraph_nodes=16,
                      receptive_delta=250.0)

VARIANTS = {
    "default": CFG,
    **{f"wo_{name}": CFG.ablation(name) for name in ("grl", "gf", "gat", "gn", "gcl")},
    "wo_grl_gcl": CFG.variant(use_grl=False, use_graph_loss=False),
    **{f"refine_{kind}": CFG.variant(weight_refinement=kind)
       for kind in ("sigmoid", "softmax")},
    **{f"road_{kind}": CFG.variant(road_encoder=kind) for kind in ("gcn", "gin", "gat")},
}


def _bytes_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))


@pytest.fixture(scope="module")
def batch(city):
    sim = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=2))
    return make_batch(build_samples(sim.simulate(3), city, DatasetConfig(keep_every=4)))


# ---------------------------------------------------------------------------
# Encoders: no_grad on arrays ≡ the tape, bytes
# ---------------------------------------------------------------------------
class TestOnePathEncode:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rntrajrec_encode_no_grad_equals_taped(self, city, batch, variant):
        nn.init.seed_everything(3)
        model = RNTrajRec(city, VARIANTS[variant]).eval()
        taped = model.encode(batch)
        assert taped.point_features.requires_grad  # the tape really ran
        with no_grad():
            plain = model.encode(batch)
        for field in ("point_features", "trajectory_feature", "node_features"):
            recorded, constant = getattr(taped, field), getattr(plain, field)
            assert (recorded is None) == (constant is None), field
            if recorded is not None:
                assert isinstance(constant, Tensor) and not constant.requires_grad
                assert _bytes_equal(recorded.data, constant.data), field

    @pytest.mark.parametrize("name", [n for n in BASELINE_NAMES if n != "linear_hmm"])
    def test_baseline_encode_no_grad_equals_taped(self, city, batch, name):
        nn.init.seed_everything(3)
        model = build_baseline(name, city, CFG).eval()
        encode = (model._decode_coordinates if name == "dhtr_hmm"
                  else lambda b: model._encode(b))
        taped = encode(batch)
        with no_grad():
            plain = encode(batch)
        if name == "dhtr_hmm":
            taped, plain = (taped,), (plain,)
        for recorded, constant in zip(taped, plain):
            assert isinstance(constant, Tensor) and not constant.requires_grad
            assert _bytes_equal(recorded.data, constant.data)

    def test_no_grad_encode_builds_only_its_three_outputs(self, city, batch, monkeypatch):
        model = RNTrajRec(city, CFG).eval()
        built = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        with no_grad():
            model.encode(batch)  # memoizes X_road
            monkeypatch.setattr(Tensor, "__init__", counting)
            model.encode(batch)
        assert len(built) == 3


# ---------------------------------------------------------------------------
# Ops on arrays, mixed operands
# ---------------------------------------------------------------------------
class TestArrayOps:
    UNARY = [(F.exp, ()), (F.log, ()), (F.sqrt, ()), (F.tanh, ()), (F.sigmoid, ()),
             (F.relu, ()), (F.leaky_relu, (0.2,)), (Tensor.clip, (0.3, 0.9))]

    @pytest.mark.parametrize("op,args", UNARY)
    def test_unary_array_path_equals_tensor_path(self, op, args):
        x = np.abs(np.random.default_rng(1).normal(size=(5, 4))) + 0.1
        x[0] = -x[0] if op not in (F.log, F.sqrt) else x[0]
        out = op(x, *args)
        assert isinstance(out, np.ndarray)
        assert _bytes_equal(out, op(Tensor(x), *args).data)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.01, 0.2, 1.0, 3.0, -0.5]))
    @settings(max_examples=100, deadline=None)
    def test_branch_free_forms_bytes_vs_where(self, seed, slope):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=[1.0, 30.0, 1e3][seed % 3], size=(40, 5))
        x.flat[::7], x.flat[::11] = 0.0, -0.0
        x.flat[::13], x.flat[::17] = 5e-324, -5e-324
        x.flat[:4] = [np.inf, -np.inf, 61.0, -61.0]
        assert _bytes_equal(sigmoid_array(x), reference.reference_sigmoid(x))
        assert _bytes_equal(leaky_relu_array(x, slope), reference.reference_leaky_relu(x, slope))

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (-1, True), ((0, 1), False)])
    def test_mean_array_path_is_sum_times_reciprocal(self, axis, keepdims):
        x = np.random.default_rng(2).normal(size=(3, 5, 7))
        out = F.mean(x, axis=axis, keepdims=keepdims)
        assert _bytes_equal(out, F.mean(Tensor(x), axis=axis, keepdims=keepdims).data)
        assert _bytes_equal(out, Tensor(x).mean(axis=axis, keepdims=keepdims).data)

    def test_ndarray_left_of_a_parameter(self):
        rng = np.random.default_rng(4)
        w, b = nn.Parameter(rng.normal(size=(3, 2))), nn.Parameter(rng.normal(size=(2,)))
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(4, 2)) + 3.0
        pairs = [(lambda: x @ w, x @ w.data), (lambda: y + b, y + b.data),
                 (lambda: y - b, y - b.data), (lambda: y * b, y * b.data),
                 (lambda: y / b, y / b.data)]
        with no_grad():
            for build, expected in pairs:
                out = build()
                assert type(out) is np.ndarray and out.dtype == np.float64
                assert _bytes_equal(out, expected)
        for build, expected in pairs:  # with the tape on: a recorded Tensor
            out = build()
            assert isinstance(out, Tensor) and out.requires_grad
            assert _bytes_equal(out.data, expected)
        (x @ w).sum().backward()
        assert np.allclose(w.grad, x.T @ np.ones((4, 2)))

    def test_free_functions_keep_the_input_type(self):
        a, b = np.ones((2, 3)), np.zeros((2, 3))
        assert type(nn.concat([a, b])) is np.ndarray
        assert type(nn.stack([a, b])) is np.ndarray
        assert type(gather_rows(a, [1, 0])) is np.ndarray
        assert isinstance(nn.concat([Tensor(a), b]), Tensor)


# ---------------------------------------------------------------------------
# Segments ≡ raw ids; gradients ≡ np.add.at
# ---------------------------------------------------------------------------
class TestSegments:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40),
           st.sampled_from([(), (1,), (4,), (2, 3)]), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_ops_on_one_index_equal_raw_ids(self, seed, rows, trailing, buckets):
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=30.0, size=(rows,) + trailing)
        values[rng.random(values.shape) < 0.1] = -0.0
        # ids skewed low, so the top buckets are usually empty
        ids = rng.integers(0, max(1, buckets - rng.integers(0, 3)), size=rows)
        scores = values.copy()
        scores[ids == 0] = -np.inf  # a bucket whose every row is −inf
        scores[rng.random(scores.shape) < 0.05] = -np.inf
        index = Segments(ids, buckets)
        for _ in range(2):  # the second pass reads the kept indices
            assert _bytes_equal(scatter_sum_array(values, index),
                                scatter_sum_array(values, ids, buckets))
            assert _bytes_equal(segment_max_array(values, index),
                                segment_max_array(values, ids, buckets))
            for op in (segment_sum, segment_mean):
                assert _bytes_equal(op(Tensor(values), index).data,
                                    op(Tensor(values), ids, buckets).data)
                assert _bytes_equal(op(values, index), op(Tensor(values), ids, buckets).data)
            softmax = segment_softmax(Tensor(scores), ids, buckets).data
            assert _bytes_equal(segment_softmax(Tensor(scores), index).data, softmax)
            assert _bytes_equal(segment_softmax(scores, index), softmax)
            assert _bytes_equal(softmax, reference.reference_segment_softmax(
                scores, ids, buckets))

    def test_out_of_range_ids_rejected_once_at_construction(self):
        with pytest.raises(IndexError):
            Segments(np.array([0, 4]), 4)
        with pytest.raises(IndexError):
            Segments(np.array([-1, 0]), 4)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_gather_and_index_gradients_bytes_vs_add_at(self, seed, n, k):
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=(k, 2, 3))
        grad[rng.random(grad.shape) < 0.1] = -0.0
        ids = rng.integers(0, n, size=(k, 2))
        for indices, upstream in ((ids, grad), (Segments(ids.reshape(-1), n), grad.reshape(-1, 3))):
            table = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
            gather_rows(table, indices).backward(upstream)
            expected = np.zeros((n, 3))
            np.add.at(expected, ids.reshape(-1), grad.reshape(-1, 3))
            assert _bytes_equal(table.grad, expected)

        matrix = Tensor(rng.normal(size=(n, 5)), requires_grad=True)
        rows, cols = rng.integers(0, n, size=k), rng.integers(-5, 5, size=k)
        flat = grad[:, 0, 0]
        matrix[rows, cols].backward(flat)
        expected = np.zeros((n, 5))
        np.add.at(expected, (rows, cols), flat)
        assert _bytes_equal(matrix.grad, expected)


# ---------------------------------------------------------------------------
# Positional table growth: traces past 1 024 fixes
# ---------------------------------------------------------------------------
class TestLongTraces:
    @pytest.mark.parametrize("dim", [8, 32, 64])
    def test_positional_rows_do_not_depend_on_table_length(self, dim):
        base = sinusoidal_positions(1024, dim)
        for length in (1025, 2048, 5000):
            assert _bytes_equal(sinusoidal_positions(length, dim)[:1024], base)

    def test_positional_encoding_grows_past_its_table(self):
        pe = PositionalEncoding(8)
        x = np.random.default_rng(5).normal(size=(2, 1500, 8))
        with no_grad():
            grown = pe(x)
        assert _bytes_equal(grown, x + sinusoidal_positions(1500, 8)[None])
        assert _bytes_equal(pe(Tensor(x)).data, grown)

    def test_concurrent_growth_never_tears_the_table(self):
        """Replicas share one model: forwards of mixed lengths racing the
        table's growth each see a whole table."""
        pe, errors = PositionalEncoding(4), []
        lengths = np.random.default_rng(6).integers(1, 4000, size=(6, 20))

        def run(row):
            for length in row:
                x = np.zeros((1, int(length), 4))
                with no_grad():
                    if not _bytes_equal(pe(x)[0], sinusoidal_positions(int(length), 4)):
                        errors.append(int(length))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(row,)) for row in lengths]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    @pytest.fixture(scope="class")
    def long_setup(self):
        data = load_dataset("chengdu", num_trajectories=12)
        model = RNTrajRec(data.network, CFG.variant(dropout=0.0)).eval()
        config = ServeConfig.for_spec(data.spec)
        positions = np.concatenate([s.target.positions(data.network) for s in data.train])
        xy = np.resize(positions, (1025, 2))  # wraps round when short
        request = RecoveryRequest(xy, np.arange(1025) * config.ingest().interval)
        return model, config, request

    def test_a_1025_fix_request_recovers_1025_steps(self, long_setup):
        model, config, request = long_setup
        with RecoveryService.from_model(model, config) as service:
            path = service.recover(request).trajectory
        assert len(path.segments) == len(path.ratios) == 1025

    def test_a_1025_fix_session_finalizes_equal_to_oneshot(self, long_setup):
        model, config, request = long_setup
        oneshot = RecoveryService.from_model(model, config)
        try:
            expected = oneshot.recover(request).trajectory
            streaming = StreamingRecoveryService(oneshot, 8, StoreConfig(),
                                                 clock=time.monotonic)
            session = streaming.open()
            streaming.append(session, request.xy, request.times)
            got = streaming.finalize(session).trajectory
        finally:
            oneshot.close()
        for field in ("segments", "ratios", "times"):
            assert _bytes_equal(getattr(got, field), getattr(expected, field))
