"""``repro.train`` — the production training subsystem.

* :class:`Trainer` — Adam + teacher forcing in one loop that does its
  own side effects: quiet-by-default logging to the ``repro.train``
  logger, a ``progress=`` function per epoch, and a ``checkpoint=``
  archive it resumes from and rewrites after every epoch;
* :class:`TrainState` — exact-resume checkpointing: model params+buffers,
  optimizer moments/step, RNG streams and counters in one ``.npz``
  archive, with a bit-for-bit determinism guarantee (train N ≡ train k →
  resume → train N−k);
* :mod:`~repro.train.schedules` — ``warmup`` / ``step`` / ``cosine`` LR
  schedules as pure functions of the epoch, plus gradient accumulation;
* :func:`fit_and_bundle` / :func:`register_bundle` — the train→deploy
  bridge into :mod:`repro.serve` bundles and the cluster's hot-deploy
  endpoints.

See ``docs/training.md`` for the operator guide.
"""

from __future__ import annotations

import logging

from .config import SCHEDULE_NAMES, EpochStats, TrainConfig, TrainResult
from .pipeline import (
    BundleReport,
    fit_and_bundle,
    model_version,
    register_bundle,
)
from .schedules import (
    ConstantLR,
    CosineLR,
    LRSchedule,
    StepDecayLR,
    build_schedule,
)
from .state import TrainState
from .trainer import RecoveryModel, Trainer, quick_accuracy

__all__ = [
    "BundleReport",
    "ConstantLR",
    "CosineLR",
    "EpochStats",
    "LRSchedule",
    "RecoveryModel",
    "SCHEDULE_NAMES",
    "StepDecayLR",
    "TrainConfig",
    "TrainResult",
    "TrainState",
    "Trainer",
    "build_schedule",
    "enable_console_logging",
    "fit_and_bundle",
    "model_version",
    "quick_accuracy",
    "register_bundle",
]


def enable_console_logging(level: int = logging.INFO) -> logging.Logger:
    """Attach a stderr handler to the ``repro.train`` logger (idempotent).

    The trainer is quiet by default; CLIs call this to surface epoch/step
    records without configuring application-wide logging.
    """
    logger = logging.getLogger("repro.train")
    logger.setLevel(level)
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("[%(name)s] %(message)s"))
        logger.addHandler(handler)
    return logger
