"""Functional interface over :class:`repro.nn.tensor.Tensor`.

These helpers mirror ``torch.nn.functional`` for the operations RNTrajRec
uses: activations, softmax (optionally masked, as required by the
constraint-mask decoder of Eq. 16), dropout, and the two loss primitives
(negative log likelihood, mean squared error).  Each takes a Tensor or a
plain array and returns the input's type.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import (Tensor, array_of, concat, gather_rows, segment_mean, segment_softmax,
                     segment_sum, stack, where)

__all__ = [
    "exp",
    "log",
    "sqrt",
    "mean",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "masked_log_softmax",
    "dropout",
    "nll_loss",
    "mse_loss",
    "concat",
    "stack",
    "where",
    "gather_rows",
    "segment_sum",
    "segment_mean",
    "segment_softmax",
]


# The elementwise ops and ``mean`` are Tensor's own, which take a Tensor or
# a plain array and return the input's type.
exp, log, sqrt, tanh = Tensor.exp, Tensor.log, Tensor.sqrt, Tensor.tanh
sigmoid, relu, leaky_relu, mean = Tensor.sigmoid, Tensor.relu, Tensor.leaky_relu, Tensor.mean


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x - array_of(x).max(axis=axis, keepdims=True)
    e = exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - array_of(x).max(axis=axis, keepdims=True)
    return shifted - log(exp(shifted).sum(axis=axis, keepdims=True))


def masked_log_softmax(
    logits: Tensor, mask: np.ndarray, axis: int = -1, floor: float = 1e-12
) -> Tensor:
    """``log softmax(exp(logits) * mask)`` computed stably.

    ``mask`` holds non-negative weights (the constraint mask ``c`` of
    Eq. 16; a hard mask is the 0/1 special case).  Entries with zero weight
    receive probability exactly zero (log-probability ``-inf`` is avoided
    by flooring at ``log(floor)``).
    """
    mask = np.asarray(mask, dtype=logits.dtype)
    log_mask = np.log(np.maximum(mask, floor))
    return log_softmax(logits + log_mask, axis=axis)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * mask


def nll_loss(log_probs: Tensor, targets: np.ndarray, sample_weight: Optional[np.ndarray] = None) -> Tensor:
    """Negative log likelihood of integer ``targets`` under ``log_probs``.

    ``log_probs`` has shape ``(n, classes)``; ``targets`` shape ``(n,)``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    if sample_weight is not None:
        weight = np.asarray(sample_weight, dtype=log_probs.dtype)
        total = max(float(weight.sum()), 1e-12)
        return -(picked * weight).sum() * (1.0 / total)
    return -mean(picked)


def mse_loss(prediction: Tensor, target: np.ndarray, sample_weight: Optional[np.ndarray] = None) -> Tensor:
    """Mean squared error against a constant target array."""
    diff = prediction - np.asarray(target, dtype=prediction.dtype)
    sq = diff * diff
    if sample_weight is not None:
        weight = np.asarray(sample_weight, dtype=prediction.dtype)
        total = max(float(weight.sum()), 1e-12)
        return (sq * weight).sum() * (1.0 / total)
    return mean(sq)
