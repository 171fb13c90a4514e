"""Optimizers (SGD, Adam) and gradient clipping.

The paper trains everything with Adam (lr 1e-3); SGD is kept for tests and
ablation sanity checks.  Both optimizers expose ``state_dict()`` /
``load_state_dict()`` so :mod:`repro.train` can bundle the full update
state (Adam moments, bias-correction step count, momentum velocities) into
a resumable :class:`~repro.train.TrainState` archive — resuming then
continues the exact update sequence a straight-through run would produce.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .module import Parameter


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm (useful for divergence diagnostics).
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serialization (flat name -> array, suitable for one .npz archive)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Everything needed to continue the update sequence exactly."""
        return {"lr": np.asarray(self.lr)}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.lr = float(state["lr"])

    def _load_slots(self, state: Dict[str, np.ndarray], prefix: str,
                    slots: List[np.ndarray]) -> None:
        """Restore one per-parameter array list saved as ``prefix.<i>``."""
        for i, slot in enumerate(slots):
            key = f"{prefix}.{i}"
            if key not in state:
                raise KeyError(f"optimizer state missing {key!r}")
            value = np.asarray(state[key])
            if value.shape != slot.shape:
                raise ValueError(
                    f"optimizer state shape mismatch for {key}: "
                    f"saved {value.shape}, current {slot.shape}"
                )
            slot[...] = value


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters, lr: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            if self.momentum > 0.0:
                v *= self.momentum
                v += p.grad
                p.data = p.data - self.lr * v
            else:
                p.data = p.data - self.lr * p.grad

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = super().state_dict()
        state["momentum"] = np.asarray(self.momentum)
        for i, v in enumerate(self._velocity):
            state[f"velocity.{i}"] = v.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self.momentum = float(state["momentum"])
        self._load_slots(state, "velocity", self._velocity)


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction and optional weight decay."""

    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = super().state_dict()
        state["step"] = np.asarray(self._step)
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m.{i}"] = m.copy()
            state[f"v.{i}"] = v.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._step = int(state["step"])
        self._load_slots(state, "m", self._m)
        self._load_slots(state, "v", self._v)
