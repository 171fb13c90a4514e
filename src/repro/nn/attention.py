"""Attention modules: scaled dot-product / multi-head (Eq. 10) and the
additive (Bahdanau) attention used by the MTrajRec-style decoder (Eq. 14).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import init
from .functional import softmax, tanh
from .module import Module, Parameter
from .layers import Linear
from .tensor import Tensor


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product attention over ``(batch, len, dim)``.

    Implements Eq. 10: per-head projections of Q/K/V, softmax over scaled
    scores, concatenation, and an output projection.  ``key_mask`` (shape
    ``(batch, len)``; 1 = valid) excludes padded timesteps.
    """

    def __init__(self, dim: int, num_heads: int) -> None:
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.w_q = Linear(dim, dim, bias=False)
        self.w_k = Linear(dim, dim, bias=False)
        self.w_v = Linear(dim, dim, bias=False)
        self.w_o = Linear(dim, dim, bias=False)

    def _split(self, x: Tensor) -> Tensor:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        key_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        batch, q_len, _ = query.shape
        q = self._split(self.w_q(query))
        k = self._split(self.w_k(key))
        v = self._split(self.w_v(value))

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if key_mask is not None:
            bias = np.where(np.asarray(key_mask, dtype=bool), 0.0, -1e9)
            scores = scores + bias[:, None, None, :]
        weights = softmax(scores, axis=-1)
        context = weights @ v
        merged = context.transpose(0, 2, 1, 3).reshape(batch, q_len, self.dim)
        return self.w_o(merged)


class AdditiveAttention(Module):
    """Bahdanau-style attention of Eq. 14.

    score_i = v^T tanh(W_g h_dec + W_h enc_i); the context is the
    softmax-weighted sum of encoder states.
    """

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.w_g = Linear(dim, dim, bias=False)
        self.w_h = Linear(dim, dim, bias=False)
        self.v = Parameter(init.xavier_uniform(dim, 1), name="attn.v")

    def project_keys(self, encoder_outputs: Tensor) -> Tensor:
        """W_h · enc — constant across decode steps, so step loops compute
        it once and pass it back via ``projected_keys``."""
        return self.w_h(encoder_outputs)

    def forward(
        self,
        decoder_state: Tensor,
        encoder_outputs: Tensor,
        key_mask: Optional[np.ndarray] = None,
        projected_keys: Optional[Tensor] = None,
    ) -> Tensor:
        """``decoder_state``: (batch, dim); ``encoder_outputs``: (batch, len, dim)."""
        projected_query = self.w_g(decoder_state)  # (batch, dim)
        if projected_keys is None:
            projected_keys = self.project_keys(encoder_outputs)  # (batch, len, dim)
        batch, dim = projected_query.shape
        expanded = projected_query.reshape(batch, 1, dim)
        energy = tanh(expanded + projected_keys) @ self.v  # (batch, len, 1)
        scores = energy.reshape(batch, encoder_outputs.shape[1])
        if key_mask is not None:
            bias = np.where(np.asarray(key_mask, dtype=bool), 0.0, -1e9)
            scores = scores + bias
        weights = softmax(scores, axis=-1)  # (batch, len)
        context = weights.reshape(batch, 1, -1) @ encoder_outputs  # (batch, 1, dim)
        return context.reshape(batch, dim)
