"""Tests for attention modules and the transformer encoder."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor
from repro.nn.transformer import sinusoidal_positions

RNG = np.random.default_rng(13)


class TestMultiHeadAttention:
    def test_output_shape(self):
        mha = nn.MultiHeadAttention(8, 2)
        x = Tensor(RNG.normal(size=(2, 5, 8)))
        assert mha(x, x, x).shape == (2, 5, 8)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(7, 2)

    def test_key_mask_blocks_positions(self):
        """Masked keys must not influence the output."""
        mha = nn.MultiHeadAttention(4, 1)
        x = RNG.normal(size=(1, 4, 4))
        mask = np.array([[1, 1, 1, 0]])
        base = mha(Tensor(x.copy()), Tensor(x.copy()), Tensor(x.copy()), key_mask=mask).data
        x2 = x.copy()
        x2[0, 3] += 100.0  # perturb only the masked key/value
        # Query rows 0-2 outputs must be unchanged (their Q unchanged, and
        # position 3 is masked out of K/V).
        perturbed = mha(Tensor(x[:, :, :].copy()), Tensor(x2), Tensor(x2), key_mask=mask).data
        assert np.allclose(base[0, :3], perturbed[0, :3], atol=1e-8)

    def test_gradient_flows_through_attention(self):
        mha = nn.MultiHeadAttention(8, 4)
        x = Tensor(RNG.normal(size=(2, 3, 8)), requires_grad=True)
        mha(x, x, x).sum().backward()
        assert np.all(np.isfinite(x.grad))


class TestAdditiveAttention:
    def test_context_shape(self):
        attn = nn.AdditiveAttention(6)
        state = Tensor(RNG.normal(size=(3, 6)))
        enc = Tensor(RNG.normal(size=(3, 7, 6)))
        assert attn(state, enc).shape == (3, 6)

    def test_context_is_convex_combination(self):
        """With identical encoder rows, context equals that row."""
        attn = nn.AdditiveAttention(4)
        row = RNG.normal(size=(4,))
        enc = Tensor(np.tile(row, (2, 5, 1)))
        state = Tensor(RNG.normal(size=(2, 4)))
        out = attn(state, enc).data
        assert np.allclose(out, row, atol=1e-8)

    def test_key_mask_excludes(self):
        attn = nn.AdditiveAttention(4)
        enc = RNG.normal(size=(1, 3, 4))
        mask = np.array([[1, 1, 0]])
        base = attn(Tensor(np.zeros((1, 4))), Tensor(enc.copy()), key_mask=mask).data
        enc2 = enc.copy()
        enc2[0, 2] += 50.0
        # Masked position perturbations must not leak into the context...
        # except through the w_h projection of position 2 scores — which the
        # mask suppresses entirely.
        out = attn(Tensor(np.zeros((1, 4))), Tensor(enc2), key_mask=mask).data
        assert np.allclose(base, out, atol=1e-6)


class TestPositionalEncoding:
    def test_table_shape_and_range(self):
        table = sinusoidal_positions(50, 16)
        assert table.shape == (50, 16)
        assert np.all(np.abs(table) <= 1.0)

    def test_first_row_is_sin_zero_cos_one(self):
        table = sinusoidal_positions(4, 8)
        assert np.allclose(table[0, 0::2], 0.0)
        assert np.allclose(table[0, 1::2], 1.0)

    def test_rows_distinct(self):
        table = sinusoidal_positions(32, 16)
        assert not np.allclose(table[3], table[17])

    def test_module_adds_positions(self):
        pe = nn.PositionalEncoding(8)
        x = Tensor(np.zeros((2, 5, 8)))
        out = pe(x).data
        assert np.allclose(out[0], sinusoidal_positions(16, 8)[:5])


class TestTransformerEncoder:
    def test_layer_preserves_shape(self):
        layer = nn.TransformerEncoderLayer(8, 2)
        x = Tensor(RNG.normal(size=(2, 6, 8)))
        assert layer(x).shape == (2, 6, 8)

    def test_stack_runs_and_differs_from_input(self):
        enc = nn.TransformerEncoder(8, 2, num_layers=2)
        x = Tensor(RNG.normal(size=(2, 4, 8)))
        out = enc(x)
        assert out.shape == (2, 4, 8)
        assert not np.allclose(out.data, x.data)

    def test_permutation_sensitivity_via_positions(self):
        """Position encoding makes outputs order-dependent."""
        enc = nn.TransformerEncoder(8, 2, num_layers=1)
        x = RNG.normal(size=(1, 4, 8))
        out1 = enc(Tensor(x.copy())).data
        out2 = enc(Tensor(x[:, ::-1, :].copy())).data[:, ::-1, :]
        assert not np.allclose(out1, out2)

    def test_gradients_reach_input(self):
        # Note: sum(LayerNorm(x)) is constant (normalized rows sum to 0),
        # so a plain .sum() loss would legitimately yield zero gradients.
        # Use a quadratic loss to probe connectivity instead.
        enc = nn.TransformerEncoder(8, 2, num_layers=2)
        x = Tensor(RNG.normal(size=(1, 5, 8)), requires_grad=True)
        out = enc(x)
        (out * out).sum().backward()
        assert np.all(np.isfinite(x.grad))
        assert np.abs(x.grad).sum() > 0
