"""Transformer encoder layer (§IV-E) and sinusoidal positional encoding.

The paper's GPSFormer interleaves this standard encoder layer (temporal
modeling) with the Graph Refinement Layer (spatial modeling); baselines
``Transformer + Decoder`` reuse it directly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .attention import MultiHeadAttention
from .layers import Dropout, FeedForward, LayerNorm
from .module import Module, ModuleList
from .tensor import Tensor


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Classic sin/cos positional table of shape ``(length, dim)``."""
    positions = np.arange(length, dtype=np.float64)[:, None]
    inv_freq = np.exp(-np.log(10000.0) * (np.arange(0, dim, 2, dtype=np.float64) / dim))
    angles = positions * inv_freq[None, :]
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dim // 2])
    return table


class PositionalEncoding(Module):
    """Adds sinusoidal position embeddings (Eq. 12) at any length: the
    table grows on demand, and a row does not depend on the table's length."""

    def __init__(self, dim: int, dropout: float = 0.0, seed: int = 0) -> None:
        super().__init__()
        self.dim = dim
        self.table = sinusoidal_positions(1024, dim)
        self.drop = Dropout(dropout, seed=seed)

    def forward(self, x: Tensor) -> Tensor:
        length = x.shape[1]
        # One read of the shared table; a growth builds the new table first
        # and then publishes it, so concurrent forwards never see a torn one.
        table = self.table
        if len(table) < length:
            table = self.table = sinusoidal_positions(max(length, 2 * len(table)), self.dim)
        return self.drop(x + table[None, :length, :])


class TransformerEncoderLayer(Module):
    """Post-norm transformer encoder layer: MHA + FFN with residuals.

    The output of each sub-layer is ``LayerNorm(x + SubLayer(x))`` exactly
    as in §IV-E.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ffn_dim: Optional[int] = None,
        dropout: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.attention = MultiHeadAttention(dim, num_heads)
        self.ffn = FeedForward(dim, ffn_dim or 2 * dim, dropout=dropout, seed=seed)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.drop1 = Dropout(dropout, seed=seed + 1)
        self.drop2 = Dropout(dropout, seed=seed + 2)

    def forward(self, x: Tensor, key_mask: Optional[np.ndarray] = None) -> Tensor:
        attended = self.attention(x, x, x, key_mask=key_mask)
        x = self.norm1(x + self.drop1(attended))
        x = self.norm2(x + self.drop2(self.ffn(x)))
        return x


class TransformerEncoder(Module):
    """A stack of encoder layers with shared input positional encoding."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        num_layers: int,
        ffn_dim: Optional[int] = None,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.positional = PositionalEncoding(dim, dropout=dropout)
        self.layers = ModuleList(
            TransformerEncoderLayer(dim, num_heads, ffn_dim, dropout, seed=i)
            for i in range(num_layers)
        )

    def forward(self, x: Tensor, key_mask: Optional[np.ndarray] = None) -> Tensor:
        x = self.positional(x)
        for layer in self.layers:
            x = layer(x, key_mask=key_mask)
        return x
