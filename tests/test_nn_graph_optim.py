"""Tests for GNN layers and optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(17)

CHAIN = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])  # 0→1→2→3→4


class TestGATLayer:
    def test_output_shape(self):
        gat = nn.GATLayer(4, 8, num_heads=2)
        x = Tensor(RNG.normal(size=(5, 4)))
        out = gat(x, nn.add_self_loops(CHAIN, 5))
        assert out.shape == (5, 8)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            nn.GATLayer(4, 6, num_heads=4)

    def test_invalid_edges_rejected(self):
        gat = nn.GATLayer(4, 4, num_heads=1)
        x = Tensor(RNG.normal(size=(3, 4)))
        with pytest.raises(IndexError):
            gat(x, np.array([[0], [5]]))
        with pytest.raises(ValueError):
            gat(x, np.array([0, 1, 2]))

    def test_message_passing_locality(self):
        """One layer: node output depends on in-neighbors, not far nodes."""
        gat = nn.GATLayer(3, 4, num_heads=1)
        x = RNG.normal(size=(5, 3))
        edges = nn.add_self_loops(CHAIN, 5)
        base = gat(Tensor(x.copy()), edges).data[1].copy()  # node 1: sees {0, 1}
        x2 = x.copy()
        x2[4] += 10.0  # node 4 is not an in-neighbor of node 1
        after = gat(Tensor(x2), edges).data[1]
        assert np.allclose(base, after)

    def test_disconnected_batch_independence(self):
        """Two disjoint sub-graphs in one call don't mix features."""
        gat = nn.GATLayer(3, 4, num_heads=1)
        x = RNG.normal(size=(4, 3))
        edges = nn.add_self_loops(np.array([[0], [1]]), 4)  # 0→1; 2,3 isolated
        base = gat(Tensor(x.copy()), edges).data[:2].copy()
        x2 = x.copy()
        x2[2:] += 5.0
        after = gat(Tensor(x2), edges).data[:2]
        assert np.allclose(base, after)


class TestGCNAndGIN:
    def test_gcn_shape(self):
        gcn = nn.GCNLayer(4, 6)
        out = gcn(Tensor(RNG.normal(size=(5, 4))), nn.add_self_loops(CHAIN, 5))
        assert out.shape == (5, 6)

    def test_gin_shape_and_eps_learnable(self):
        gin = nn.GINLayer(4, 4)
        out = gin(Tensor(RNG.normal(size=(5, 4))), nn.add_self_loops(CHAIN, 5))
        assert out.shape == (5, 4)
        out.sum().backward()
        assert gin.eps.grad is not None

    def test_graph_stack_kinds(self):
        for kind in ("gat", "gcn", "gin"):
            stack = nn.GraphStack(kind, 8, 2)
            out = stack(Tensor(RNG.normal(size=(5, 8))), nn.add_self_loops(CHAIN, 5))
            assert out.shape == (5, 8)

    def test_graph_stack_unknown_kind(self):
        with pytest.raises(ValueError):
            nn.GraphStack("sage", 8, 2)


class TestGraphPooling:
    def test_mean_pool_per_graph(self):
        x = Tensor(np.array([[2.0], [4.0], [6.0]]))
        out = nn.segment_mean(x, np.array([0, 0, 1]), 2)
        assert np.allclose(out.data, [[3.0], [6.0]])


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        param = nn.Parameter(np.zeros(2))

        def loss_fn():
            diff = param - Tensor(target)
            return (diff * diff).sum()

        return param, loss_fn, target

    def test_sgd_converges(self):
        param, loss_fn, target = self._quadratic_problem()
        opt = nn.SGD([param], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss_fn().backward()
            opt.step()
        assert np.allclose(param.data, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        param, loss_fn, target = self._quadratic_problem()
        opt = nn.SGD([param], lr=0.02, momentum=0.9)
        for _ in range(300):
            opt.zero_grad()
            loss_fn().backward()
            opt.step()
        assert np.allclose(param.data, target, atol=1e-2)

    def test_adam_converges(self):
        param, loss_fn, target = self._quadratic_problem()
        opt = nn.Adam([param], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss_fn().backward()
            opt.step()
        assert np.allclose(param.data, target, atol=1e-2)

    def test_adam_weight_decay_shrinks(self):
        param = nn.Parameter(np.full(3, 10.0))
        opt = nn.Adam([param], lr=0.1, weight_decay=0.5)
        for _ in range(50):
            opt.zero_grad()
            (param * 0.0).sum().backward()  # zero task gradient
            opt.step()
        assert np.all(np.abs(param.data) < 10.0)

    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_clip_grad_norm(self):
        param = nn.Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        before = np.linalg.norm(param.grad)
        returned = nn.clip_grad_norm([param], max_norm=1.0)
        assert np.isclose(returned, before)
        assert np.isclose(np.linalg.norm(param.grad), 1.0)

    def test_clip_noop_below_threshold(self):
        param = nn.Parameter(np.zeros(4))
        param.grad = np.full(4, 0.01)
        nn.clip_grad_norm([param], max_norm=1.0)
        assert np.allclose(param.grad, 0.01)


@given(st.integers(2, 30), st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_segment_softmax_gat_attention_property(num_nodes, fan_in):
    """GAT attention weights over in-edges of any node sum to 1."""
    from repro.nn.tensor import segment_softmax

    edges = min(num_nodes * fan_in, 60)
    rng = np.random.default_rng(num_nodes * 31 + fan_in)
    dst = rng.integers(0, num_nodes, size=edges)
    scores = Tensor(rng.normal(size=(edges,)))
    weights = segment_softmax(scores, dst, num_nodes).data
    for node in range(num_nodes):
        mask = dst == node
        if mask.any():
            assert np.isclose(weights[mask].sum(), 1.0, atol=1e-9)
