"""Unit + property tests for the autograd engine (repro.nn.tensor)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from repro.nn.tensor import (
    Tensor,
    concat,
    gather_rows,
    no_grad,
    scatter_sum_array,
    segment_mean,
    segment_softmax,
    segment_sum,
    stack,
    unbroadcast,
    where,
)

RNG = np.random.default_rng(42)


def numeric_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn() with respect to array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        x[idx] += eps
        up = fn()
        x[idx] -= 2 * eps
        down = fn()
        x[idx] += eps
        grad[idx] = (up - down) / (2 * eps)
    return grad


def check_gradient(build, param_array, tolerance=1e-6):
    """Compare autograd and numeric gradients for scalar output builder."""
    out = build()
    out.backward()
    analytic = param_array.grad.copy()
    numeric = numeric_gradient(lambda: build().item(), param_array.data)
    assert np.allclose(analytic, numeric, atol=tolerance), (
        f"grad mismatch: max err {np.abs(analytic - numeric).max()}"
    )


class TestArithmetic:
    def test_add_broadcast_gradient(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_sub_gradient_sign(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        (a - b).sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, -1.0)

    def test_mul_gradcheck(self):
        a = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 3)))
        check_gradient(lambda: (a * b * a).sum(), a)

    def test_div_gradcheck(self):
        a = Tensor(RNG.normal(size=(2, 3)) + 5.0, requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 3)) + 5.0, requires_grad=True)
        check_gradient(lambda: (a / b).sum(), a)

    def test_pow_gradient(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        (a**3).sum().backward()
        assert np.allclose(a.grad, 3 * np.array([4.0, 9.0]))

    def test_neg(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        (-a).sum().backward()
        assert np.allclose(a.grad, -1.0)

    def test_rsub_rdiv(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        assert np.allclose((1.0 - a).data, -1.0)
        assert np.allclose((4.0 / a).data, 2.0)

    def test_scalar_coercion(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = (2.0 * a + 1.0).sum()
        out.backward()
        assert np.allclose(a.grad, 2.0)


class TestMatmul:
    def test_matmul_2d_gradcheck(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 2)))
        check_gradient(lambda: (a @ b).sum(), a)

    def test_matmul_batched_gradcheck(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 4, 5)), requires_grad=True)
        check_gradient(lambda: (a @ b).sum(), a)
        a.zero_grad(), b.zero_grad()
        check_gradient(lambda: (a @ b).sum(), b)

    def test_matmul_broadcast_weight(self):
        # (batch, n, k) @ (k, m): weight grad must collapse the batch axis.
        a = Tensor(RNG.normal(size=(2, 3, 4)))
        w = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        check_gradient(lambda: (a @ w).sum(), w)

    def test_matvec(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(RNG.normal(size=(4,)))
        check_gradient(lambda: (a @ v).sum(), a)


class TestShapes:
    def test_reshape_roundtrip_grad(self):
        a = Tensor(RNG.normal(size=(2, 6)), requires_grad=True)
        a.reshape(3, 4).sum().backward()
        assert a.grad.shape == (2, 6)
        assert np.allclose(a.grad, 1.0)

    def test_transpose_gradient(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 4, 3)))
        check_gradient(lambda: (a.transpose(0, 2, 1) * b).sum(), a)

    def test_default_transpose_reverses(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.T.shape == (4, 3, 2)

    def test_getitem_slice_gradient(self):
        a = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        a[1:3].sum().backward()
        expected = np.zeros((4, 5))
        expected[1:3] = 1.0
        assert np.allclose(a.grad, expected)

    def test_getitem_fancy_duplicate_indices_accumulate(self):
        a = Tensor(np.zeros((3, 2)), requires_grad=True)
        idx = np.array([1, 1, 2])
        a[idx].sum().backward()
        assert np.allclose(a.grad[:, 0], [0.0, 2.0, 1.0])

    def test_negative_step_slice(self):
        a = Tensor(RNG.normal(size=(1, 4, 2)), requires_grad=True)
        a[:, ::-1, :].sum().backward()
        assert np.allclose(a.grad, 1.0)


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_mean_gradient_scaling(self):
        a = Tensor(RNG.normal(size=(5,)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, 0.2)

    def test_max_gradient_goes_to_argmax(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_split_evenly(self):
        a = Tensor(np.array([3.0, 3.0]), requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0.5, 0.5])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid"])
    def test_elementwise_gradcheck(self, op):
        base = RNG.uniform(0.5, 2.0, size=(3, 3))
        a = Tensor(base.copy(), requires_grad=True)
        check_gradient(lambda: getattr(a, op)().sum(), a)

    def test_relu_zero_region(self):
        a = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        a.relu().sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0])

    def test_leaky_relu_slope(self):
        a = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        a.leaky_relu(0.1).sum().backward()
        assert np.allclose(a.grad, [0.1, 1.0])

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor(np.array([-1000.0, 1000.0]))
        out = a.sigmoid().data
        assert np.all(np.isfinite(out))
        assert out[0] < 1e-10 and out[1] > 1 - 1e-10

    def test_clip_gradient_masks_out_of_range(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])


class TestCombinators:
    def test_concat_gradient_routing(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        concat([a, b], axis=1).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (2, 2)

    def test_stack_gradient(self):
        tensors = [Tensor(RNG.normal(size=(3,)), requires_grad=True) for _ in range(4)]
        stack(tensors, axis=0).sum().backward()
        for t in tensors:
            assert np.allclose(t.grad, 1.0)

    def test_where_selects_and_routes(self):
        cond = np.array([True, False])
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0]), requires_grad=True)
        out = where(cond, a, b)
        assert np.allclose(out.data, [1.0, 20.0])
        out.sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])

    def test_gather_rows_gradient_scatter(self):
        table = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([[0, 1], [1, 4]])
        out = gather_rows(table, idx)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        assert np.allclose(table.grad[1], 2.0)  # row 1 gathered twice
        assert np.allclose(table.grad[2], 0.0)


class TestSegmentOps:
    def test_segment_sum_values(self):
        values = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = segment_sum(values, np.array([0, 0, 1]), 2)
        assert np.allclose(out.data, [[3.0], [3.0]])

    def test_segment_sum_gradient_is_gather(self):
        values = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        seg = np.array([0, 1, 1, 0])
        (segment_sum(values, seg, 2) * Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))).sum().backward()
        assert np.allclose(values.grad[0], [1.0, 2.0])
        assert np.allclose(values.grad[1], [3.0, 4.0])

    def test_segment_mean_empty_segment_zero(self):
        values = Tensor(np.ones((2, 3)))
        out = segment_mean(values, np.array([0, 0]), 3)
        assert np.allclose(out.data[0], 1.0)
        assert np.allclose(out.data[1:], 0.0)

    def test_segment_softmax_normalizes_per_segment(self):
        scores = Tensor(RNG.normal(size=(6,)))
        seg = np.array([0, 0, 0, 1, 1, 2])
        out = segment_softmax(scores, seg, 3).data
        for s in range(3):
            assert np.isclose(out[seg == s].sum(), 1.0)

    def test_segment_softmax_large_scores_stable(self):
        scores = Tensor(np.array([1000.0, 1000.0, -1000.0]))
        out = segment_softmax(scores, np.array([0, 0, 0]), 1).data
        assert np.all(np.isfinite(out))
        assert np.isclose(out.sum(), 1.0)


def _bytes_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFlatScatter:
    """The flat-bincount scatter and the sort + ``reduceat`` softmax shift
    ≡ the ``np.add.at`` / ``np.maximum.at`` kernels they replaced, bytes."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 40),
           st.sampled_from([(), (1,), (5,), (4, 8), (2, 3, 2)]),
           st.integers(1, 12), st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=150, deadline=None)
    def test_scatter_sum_bytes_vs_add_at(self, seed, rows, trailing, buckets, dtype):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows,) + trailing).astype(dtype)
        values[rng.random(values.shape) < 0.1] = -0.0
        values[rng.random(values.shape) < 0.05] = np.nan
        # ids skewed low, so the top buckets are usually empty
        ids = rng.integers(0, max(1, buckets - rng.integers(0, 3)), size=rows)
        assert _bytes_equal(scatter_sum_array(values, ids, buckets),
                            reference.reference_scatter_sum(values, ids, buckets))

    @pytest.mark.parametrize("shape", [(6,), (6, 5), (6, 4, 8)])
    def test_out_of_range_id_raises_index_error(self, shape):
        ids = np.array([0, 1, 7, 2, 3, 1])  # 7 in the middle, 4 buckets
        for dtype in (np.float64, np.float32):
            with pytest.raises(IndexError):
                scatter_sum_array(np.ones(shape, dtype=dtype), ids, 4)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 40),
           st.sampled_from([(), (4,)]), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_segment_softmax_bytes_vs_maximum_at(self, seed, rows, trailing, buckets):
        rng = np.random.default_rng(seed)
        scores = rng.normal(scale=30.0, size=(rows,) + trailing)
        ids = rng.integers(0, max(1, buckets - rng.integers(0, 3)), size=rows)
        scores[ids == 0] = -np.inf  # a bucket whose every row is −inf
        scores[rng.random(scores.shape) < 0.05] = -np.inf
        assert _bytes_equal(
            segment_softmax(Tensor(scores), ids, buckets).data,
            reference.reference_segment_softmax(scores, ids, buckets))


class TestBackwardMechanics:
    def test_no_grad_result_is_a_constant_with_the_same_bytes(self):
        """``_make`` tests the thread-local switch before it looks at the
        parents: under ``no_grad`` an op records nothing and computes the
        same value; with grad on, the graph is built as ever."""
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)))
        recorded = ((a * b).tanh() @ a.T).sum(axis=0)
        with no_grad():
            constant = ((a * b).tanh() @ a.T).sum(axis=0)
        assert recorded.requires_grad and recorded._parents and recorded._backward
        assert not constant.requires_grad
        assert constant._parents == () and constant._backward is None
        assert _bytes_equal(constant.data, recorded.data)
        assert not (b + b).requires_grad  # no parent requires grad: constant

    def test_backward_requires_grad_flag(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_backward_shape_check(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            a.backward(np.ones(4))

    def test_diamond_graph_accumulates_once_per_path(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3.0
        c = a * 4.0
        (b + c).sum().backward()
        assert np.allclose(a.grad, 7.0)

    def test_reused_tensor_in_two_losses_needs_zero_grad(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (a * 2.0).sum().backward()
        first = a.grad.copy()
        a.zero_grad()
        (a * 2.0).sum().backward()
        assert np.allclose(first, a.grad)


class TestUnbroadcast:
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, rows, cols):
        original = np.ones((1, cols))
        broadcast = np.broadcast_to(original, (rows, cols)).copy()
        collapsed = unbroadcast(broadcast, original.shape)
        assert collapsed.shape == original.shape
        assert np.allclose(collapsed, rows * original)

    def test_unbroadcast_extra_leading_dims(self):
        grad = np.ones((5, 3, 2))
        out = unbroadcast(grad, (3, 2))
        assert out.shape == (3, 2)
        assert np.allclose(out, 5.0)


@given(
    data=st.lists(st.floats(-10, 10), min_size=2, max_size=20),
)
@settings(max_examples=30, deadline=None)
def test_softmax_like_chain_property(data):
    """exp/log/sum chains stay finite and differentiable for modest inputs."""
    x = Tensor(np.array(data), requires_grad=True)
    shifted = x - Tensor(np.max(data))
    out = (shifted.exp().sum() + 1e-9).log()
    out.backward()
    assert np.all(np.isfinite(x.grad))
