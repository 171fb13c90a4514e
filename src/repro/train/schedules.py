"""Learning-rate schedules layered on :mod:`repro.nn.optim`.

Every schedule is a *pure function of the epoch index* — ``lr_at(e)``
reads no mutable state — which is what makes exact resume trivial: a
trainer restored at epoch k applies the same LR sequence for epochs
k..N−1 that a straight-through run would, with nothing to replay.

The paper trains RNTrajRec with Adam plus decay; ``warmup`` and
``cosine`` are the two standard transformer recipes layered on top.
"""

from __future__ import annotations

import math

from .config import TrainConfig


class LRSchedule:
    """Base: constant LR with an optional linear warmup prefix."""

    def __init__(self, base_lr: float, warmup_epochs: int = 0) -> None:
        if base_lr <= 0.0:
            raise ValueError("base_lr must be positive")
        self.base_lr = float(base_lr)
        self.warmup_epochs = max(0, int(warmup_epochs))

    def lr_at(self, epoch: int) -> float:
        """The LR to apply for ``epoch`` (0-based)."""
        if epoch < self.warmup_epochs:
            # Ramp 1/(w+1) .. w/(w+1) of base over the warmup epochs.
            return self.base_lr * (epoch + 1) / (self.warmup_epochs + 1)
        return self._after_warmup(epoch - self.warmup_epochs)

    def _after_warmup(self, epoch: int) -> float:
        return self.base_lr

    def __call__(self, epoch: int) -> float:
        return self.lr_at(epoch)


class ConstantLR(LRSchedule):
    """Flat LR (optionally after warmup) — the seed trainer's behavior."""


class StepDecayLR(LRSchedule):
    """Multiply by ``gamma`` every ``step_size`` post-warmup epochs."""

    def __init__(self, base_lr: float, step_size: int, gamma: float = 0.5,
                 warmup_epochs: int = 0) -> None:
        super().__init__(base_lr, warmup_epochs)
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        self.step_size = int(step_size)
        self.gamma = float(gamma)

    def _after_warmup(self, epoch: int) -> float:
        return self.base_lr * self.gamma ** (epoch // self.step_size)


class CosineLR(LRSchedule):
    """Cosine anneal from base to ``min_lr`` over the post-warmup epochs."""

    def __init__(self, base_lr: float, total_epochs: int, min_lr: float = 0.0,
                 warmup_epochs: int = 0) -> None:
        super().__init__(base_lr, warmup_epochs)
        self.min_lr = float(min_lr)
        self.span = max(1, int(total_epochs) - self.warmup_epochs)

    def _after_warmup(self, epoch: int) -> float:
        # Epochs 0..span-1 sweep [0, (span-1)/span] of the half-cosine, so
        # the final epoch still trains near (not at) the floor.
        progress = min(epoch, self.span) / self.span
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (
            1.0 + math.cos(math.pi * progress))


def build_schedule(config: TrainConfig) -> LRSchedule:
    """The schedule a :class:`TrainConfig` describes."""
    if config.schedule == "constant":
        # warmup_epochs composes with every schedule, this one included.
        return ConstantLR(config.learning_rate,
                          warmup_epochs=config.warmup_epochs)
    if config.schedule == "warmup":
        # Bare "warmup" means ramp then flat; default to one ramp epoch so
        # `--schedule warmup` alone does something visible.
        return ConstantLR(config.learning_rate,
                          warmup_epochs=config.warmup_epochs or 1)
    if config.schedule == "step":
        return StepDecayLR(config.learning_rate, config.lr_step_size,
                           config.lr_gamma, config.warmup_epochs)
    if config.schedule == "cosine":
        return CosineLR(config.learning_rate, config.epochs, config.min_lr,
                        config.warmup_epochs)
    raise ValueError(f"unknown schedule {config.schedule!r}")
