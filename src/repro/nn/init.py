"""Weight initialization schemes (Glorot/Xavier, embeddings).

A module-level seeded generator keeps model construction deterministic:
call :func:`seed_everything` before building a model to make experiments
reproducible end to end.
"""

from __future__ import annotations

import numpy as np

_GENERATOR = np.random.default_rng(0)


def seed_everything(seed: int) -> np.random.Generator:
    """Reset the global initializer RNG; returns the generator."""
    global _GENERATOR
    _GENERATOR = np.random.default_rng(seed)
    return _GENERATOR


def generator() -> np.random.Generator:
    return _GENERATOR


def xavier_uniform(fan_in: int, fan_out: int, shape=None, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    if shape is None:
        shape = (fan_in, fan_out)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return _GENERATOR.uniform(-bound, bound, size=shape)


def normal(shape, std: float = 0.02) -> np.ndarray:
    """Small-variance normal init (used for embedding tables)."""
    return _GENERATOR.normal(0.0, std, size=shape)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)
