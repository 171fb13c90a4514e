"""Core feed-forward layers: Linear, Embedding, Dropout, LayerNorm, BatchNorm.

BatchNorm here is the 1-D variant used as the inner statistic engine of the
paper's GraphNorm (Eq. 9): normalize over everything except the feature
axis, with running statistics for inference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F, init
from .module import Module, Parameter
from .tensor import Tensor, array_of, gather_rows, is_grad_enabled


class Linear(Module):
    """Affine map ``y = x W + b`` over the last axis (arrays in, arrays out)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(in_features, out_features), name="linear.weight")
        self.bias = Parameter(init.zeros((out_features,)), name="linear.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, std: float = 0.02) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), std=std), name="embedding.weight")

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"got min={indices.min()} max={indices.max()}"
            )
        # Ids carry no tensor type, so the grad mode picks the table's form:
        # under no_grad the lookup, and the forward it starts, is on arrays.
        return gather_rows(self.weight if is_grad_enabled() else self.weight.data, indices)


class Dropout(Module):
    """Inverted dropout with a per-layer RNG stream."""

    def __init__(self, p: float = 0.1, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, self.training)


class LayerNorm(Module):
    """Layer normalization over the last axis (Vaswani et al.)."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.ones((dim,)), name="layernorm.gamma")
        self.beta = Parameter(init.zeros((dim,)), name="layernorm.beta")

    def forward(self, x: Tensor) -> Tensor:
        centered = x - F.mean(x, axis=-1, keepdims=True)
        var = F.mean(centered * centered, axis=-1, keepdims=True)
        normalized = centered / F.sqrt(var + self.eps)
        return normalized * self.gamma + self.beta


class BatchNorm(Module):
    """Batch normalization over all axes except the trailing feature axis.

    Running estimates make inference deterministic and independent of batch
    composition, matching the batch-norm semantics inside the paper's graph
    normalization (Eq. 9).
    """

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(init.ones((dim,)), name="batchnorm.gamma")
        self.beta = Parameter(init.zeros((dim,)), name="batchnorm.beta")
        self.register_buffer("running_mean", np.zeros((dim,), dtype=np.float64))
        self.register_buffer("running_var", np.ones((dim,), dtype=np.float64))

    def forward(self, x: Tensor) -> Tensor:
        axes = tuple(range(x.ndim - 1))
        if self.training:
            batch_mean = array_of(x).mean(axis=axes)
            batch_var = array_of(x).var(axis=axes)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * batch_var
            centered = x - F.mean(x, axis=axes, keepdims=True)
            var = F.mean(centered * centered, axis=axes, keepdims=True)
            normalized = centered / F.sqrt(var + self.eps)
        else:
            normalized = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
        return normalized * self.gamma + self.beta


class FeedForward(Module):
    """Position-wise feed-forward network, Eq. 11: ReLU(x W1 + b1) W2 + b2."""

    def __init__(self, dim: int, hidden_dim: Optional[int] = None, dropout: float = 0.0, seed: int = 0) -> None:
        super().__init__()
        hidden_dim = hidden_dim or 4 * dim
        self.fc1 = Linear(dim, hidden_dim)
        self.fc2 = Linear(hidden_dim, dim)
        self.drop = Dropout(dropout, seed=seed)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.drop(F.relu(self.fc1(x))))
