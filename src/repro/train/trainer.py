"""The trainer: one loop with its logging, progress hook and checkpoints.

Training semantics:

* batch schedule — :func:`repro.trajectory.dataset.iterate_batch_indices`
  with ``seed + epoch``, so the schedule is a pure function of the epoch;
* scheduled sampling — each batch gets a fresh generator seeded by a draw
  from the trainer's master RNG; the master state is part of
  :class:`~repro.train.TrainState`, so a resumed run continues the exact
  stream;
* learning rate — ``schedule.lr_at(epoch)`` applied at epoch start;
* gradient accumulation — gradients sum over ``accumulate_steps``
  micro-batches and are averaged before clip + optimizer step.

``fit`` does its side effects in place.  It is quiet by default: step
records go to the ``repro.train`` logger at DEBUG (at INFO every
``log_every`` steps) and epoch summaries at INFO, so nothing reaches the
console unless the host configures logging
(:func:`repro.train.enable_console_logging` is the one-liner for CLIs).
After each epoch it calls ``progress(stats)`` and, with ``checkpoint=``,
rewrites the :class:`~repro.train.TrainState` archive.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .. import nn, profile
from ..trajectory.dataset import (
    Batch,
    RecoverySample,
    iterate_batch_indices,
    make_batch,
    make_padded_batch,
)
from .config import EpochStats, TrainConfig, TrainResult
from .schedules import build_schedule
from .state import TrainState

logger = logging.getLogger("repro.train")


class RecoveryModel(Protocol):
    """Structural interface the trainer requires."""

    def compute_loss(self, batch: Batch): ...
    def recover(self, batch: Batch) -> Tuple[np.ndarray, np.ndarray]: ...
    def parameters(self) -> list: ...
    def train(self, mode: bool = True): ...
    def eval(self): ...
    def zero_grad(self) -> None: ...


def quick_accuracy(model: RecoveryModel, samples: Sequence[RecoverySample],
                   batch_size: int = 16, limit: Optional[int] = None) -> float:
    """Mean per-point segment accuracy of greedy recovery.

    Samples sharing an input length are coalesced into target-padded
    batches (:func:`make_padded_batch`), and **only each sample's true
    target positions are scored** — padded tail steps carry segment 0 and
    would otherwise count any model that happens to emit 0 there as
    correct, inflating validation accuracy.
    """
    was_training = bool(getattr(model, "training", False))
    model.eval()
    subset = list(samples[:limit]) if limit else list(samples)
    if not subset:
        if was_training:
            model.train()
        return float("nan")

    by_input_length: dict = {}
    for sample in subset:
        by_input_length.setdefault(sample.input_length, []).append(sample)

    correct = 0
    total = 0
    for group in by_input_length.values():
        for start in range(0, len(group), batch_size):
            batch, lengths = make_padded_batch(group[start:start + batch_size])
            segments, _ = model.recover(batch)
            for i, length in enumerate(lengths):
                row = segments[i, :length] == batch.target_segments[i, :length]
                correct += int(row.sum())
                total += int(length)
    if was_training:
        model.train()
    return correct / max(total, 1)


class Trainer:
    """Adam trainer with teacher forcing, LR schedules and exact resume."""

    def __init__(self, model: RecoveryModel, config: Optional[TrainConfig] = None) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.optimizer = nn.Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.schedule = build_schedule(self.config)
        self.history: List[EpochStats] = []
        self._epoch = 0
        self._global_step = 0
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    # Resumable state
    # ------------------------------------------------------------------
    @property
    def epochs_completed(self) -> int:
        return self._epoch

    def save_state(self, path: str) -> str:
        """Snapshot model + optimizer + RNG streams + counters to one
        ``.npz`` archive; returns the path written."""
        return TrainState.capture(self).save(path)

    def load_state(self, path: str) -> TrainState:
        """Restore a :meth:`save_state` archive into this trainer."""
        state = TrainState.load(path)
        state.restore(self)
        return state

    # ------------------------------------------------------------------
    def fit(
        self,
        train_samples: Sequence[RecoverySample],
        val_samples: Sequence[RecoverySample] = (),
        progress: Optional[Callable[[EpochStats], None]] = None,
        checkpoint: Optional[str] = None,
        until_epoch: Optional[int] = None,
    ) -> TrainResult:
        """Train to ``config.epochs``, resuming from ``checkpoint`` if the
        archive already exists and rewriting it after every epoch.

        ``until_epoch`` stops early at an epoch boundary *without*
        touching the config — schedules like ``cosine`` depend on
        ``config.epochs``, so a partial run that will later be resumed
        must keep the full-horizon config and bound this call instead.
        """
        cfg = self.config
        stop_at = cfg.epochs if until_epoch is None else min(cfg.epochs, until_epoch)
        if checkpoint is not None:
            normalized = checkpoint if checkpoint.endswith(".npz") else checkpoint + ".npz"
            if os.path.exists(normalized):
                self.load_state(normalized)
        if self._epoch >= stop_at:
            return TrainResult(history=list(self.history))

        self.model.train()
        while self._epoch < stop_at:
            stats = self._run_epoch(train_samples, val_samples)
            self.history.append(stats)
            # Bumped before the checkpoint, so the archive records "this
            # epoch completed, resume at the next one".
            self._epoch += 1
            val = ("" if stats.val_accuracy is None
                   else f" val_acc {stats.val_accuracy:.4f}")
            logger.info("epoch %d: loss %.4f (id %.4f rate %.4f graph %.4f)%s "
                        "lr %.2e %.1fs", stats.epoch, stats.loss, stats.id_loss,
                        stats.rate_loss, stats.graph_loss, val, stats.lr,
                        stats.seconds)
            if progress is not None:
                progress(stats)
            if checkpoint is not None:
                written = self.save_state(checkpoint)
                logger.debug("checkpointed epoch %d to %s", stats.epoch, written)
        self.model.eval()
        return TrainResult(history=list(self.history))

    # ------------------------------------------------------------------
    def _run_epoch(self, train_samples, val_samples) -> EpochStats:
        cfg = self.config
        epoch = self._epoch
        start = time.perf_counter()
        lr = self.schedule.lr_at(epoch)
        self.optimizer.lr = lr

        losses: List[float] = []
        id_losses: List[float] = []
        rate_losses: List[float] = []
        graph_losses: List[float] = []
        grad_norm = 0.0

        index_batches = list(iterate_batch_indices(
            train_samples, cfg.batch_size, shuffle=True, seed=cfg.seed + epoch))
        self.model.zero_grad()
        step = 0
        with profile.section("train.epoch"):
            for group_start in range(0, len(index_batches), cfg.accumulate_steps):
                group = index_batches[group_start:group_start + cfg.accumulate_steps]
                for indices in group:
                    # One seed per batch, drawn from the master stream: the
                    # scheduled-sampling decisions are identical for an
                    # uninterrupted run and a resumed one.
                    seed = int(self._rng.integers(0, np.iinfo(np.int64).max))
                    loss, id_loss, rate_loss_, graph_loss = self._batch_gradients(
                        train_samples, indices, seed)
                    losses.append(loss)
                    id_losses.append(id_loss)
                    rate_losses.append(rate_loss_)
                    graph_losses.append(graph_loss)
                    self._global_step += 1
                    step += 1
                    if cfg.log_every and step % cfg.log_every == 0:
                        logger.info("epoch %d step %d: loss %.4f lr %.2e",
                                    epoch, step, loss, lr)
                    else:
                        logger.debug("epoch %d step %d: loss %.4f", epoch, step, loss)
                if len(group) > 1:
                    scale = 1.0 / len(group)
                    for p in self.optimizer.parameters:
                        if p.grad is not None:
                            p.grad = p.grad * scale
                with profile.section("train.step"):
                    grad_norm = nn.clip_grad_norm(self.optimizer.parameters,
                                                  cfg.clip_norm)
                    self.optimizer.step()
                    self.model.zero_grad()

        val_acc = None
        if cfg.validate and len(val_samples):
            with profile.section("train.validate"):
                val_acc = quick_accuracy(self.model, val_samples, cfg.batch_size)

        return EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            id_loss=float(np.mean(id_losses)) if id_losses else float("nan"),
            rate_loss=float(np.mean(rate_losses)) if rate_losses else float("nan"),
            graph_loss=float(np.mean(graph_losses)) if graph_losses else float("nan"),
            val_accuracy=val_acc,
            seconds=time.perf_counter() - start,
            lr=lr,
            grad_norm=float(grad_norm),
        )

    # ------------------------------------------------------------------
    def _batch_gradients(self, samples, indices, seed: int
                         ) -> Tuple[float, float, float, float]:
        """Accumulate one batch's gradients into the parameters' ``grad``
        slots; returns (total, id, rate, graph) loss values."""
        with profile.section("train.batch"):
            batch = make_batch([samples[i] for i in indices])
            breakdown = self.model.compute_loss(
                batch, teacher_forcing_ratio=self.config.teacher_forcing_ratio,
                rng=np.random.default_rng(seed))
            breakdown.total.backward()
        return (breakdown.total.item(), breakdown.id_loss,
                breakdown.rate_loss, breakdown.graph_loss)
