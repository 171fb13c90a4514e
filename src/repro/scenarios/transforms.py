"""Composable, seeded trace degraders.

The paper evaluates recovery only at fixed keep-every-k sampling regimes
(Table 2/3); real GPS feeds degrade in structured ways those regimes never
exercise.  Each :class:`TraceTransform` rewrites the *observation pattern*
of one dense simulator trace — which ε_ρ steps are observed, and with what
coordinates — while the ground-truth target stays the full dense matched
trajectory.  Transforms compose left-to-right inside a :class:`Scenario`,
and every random decision comes from a per-trace generator seeded by
``(scenario.seed, trace_index)``, so a scenario is a pure function of its
inputs: the same pairs always degrade the same way.

The taxonomy (see ``docs/scenarios.md``):

* :class:`FixedRate` — the paper's keep-every-k regime (the baseline);
* :class:`VariableRate` — per-trace *mixed* sampling: each inter-fix
  stride is drawn independently, modeling devices that change report
  rates mid-trip;
* :class:`Outage` — contiguous observation gaps (tunnels, urban canyons,
  radio dead zones): whole windows of fixes vanish, which is structurally
  different from uniform sparsity because the unobserved span carries no
  constraint anchor at all;
* :class:`NoiseBurst` — a contiguous window of fixes whose coordinates
  get extra Gaussian error (multipath in street canyons), degrading the
  Eq. 16 constraint masks rather than removing them.

The **identity law**: a scenario with no transforms reproduces
:func:`repro.trajectory.dataset.build_samples` bit-for-bit (asserted by
``tests/test_scenarios.py``), because both paths
build samples through the shared
:func:`~repro.trajectory.dataset.sample_from_fixes` constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..roadnet.network import RoadNetwork
from ..trajectory.dataset import DatasetConfig, RecoverySample, sample_from_fixes
from ..trajectory.resample import downsample_indices
from ..trajectory.trajectory import MatchedTrajectory, RawTrajectory


@dataclass(frozen=True)
class DegradedTrace:
    """Working state of one trace while transforms degrade it.

    ``keep`` indexes the dense trace (dense index i *is* ε_ρ grid step i,
    since the simulator emits one matched point per grid step); ``xy``
    is the working copy of the dense raw positions that coordinate
    transforms perturb.  Only positions at kept indices ever reach a
    sample.
    """

    raw: RawTrajectory
    matched: MatchedTrajectory
    keep: np.ndarray
    xy: np.ndarray

    @property
    def dense_length(self) -> int:
        return len(self.raw)


class TraceTransform:
    """Base class: rewrite a :class:`DegradedTrace` deterministically."""

    def apply(self, trace: DegradedTrace,
              rng: np.random.Generator) -> DegradedTrace:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedRate(TraceTransform):
    """The paper's keep-every-k regime (always keeps first and last)."""

    keep_every: int = 8

    def apply(self, trace: DegradedTrace,
              rng: np.random.Generator) -> DegradedTrace:
        return replace(trace, keep=downsample_indices(trace.dense_length,
                                                      self.keep_every))


@dataclass(frozen=True)
class VariableRate(TraceTransform):
    """Per-trace mixed sampling: every stride drawn from ``choices``.

    Starts at the first fix and walks forward with independent strides, so
    one trace interleaves dense and sparse stretches; the final fix is
    always kept (recovery stays interpolation, matching
    :func:`~repro.trajectory.resample.downsample_indices`).
    """

    choices: Tuple[int, ...] = (4, 8, 16)

    def __post_init__(self) -> None:
        if not self.choices or any(c < 1 for c in self.choices):
            raise ValueError("stride choices must be positive integers")

    def apply(self, trace: DegradedTrace,
              rng: np.random.Generator) -> DegradedTrace:
        last = trace.dense_length - 1
        keep = [0]
        while keep[-1] < last:
            stride = int(rng.choice(self.choices))
            keep.append(min(keep[-1] + stride, last))
        return replace(trace, keep=np.asarray(keep, dtype=np.int64))


@dataclass(frozen=True)
class Outage(TraceTransform):
    """Contiguous GPS outages: drop every kept fix inside random windows.

    Each of ``gaps`` windows spans ``min_span``..``max_span`` dense steps
    placed uniformly over the trace interior.  The first and last fixes
    are never dropped (the ε_ρ output grid must stay anchored at both
    ends), so a sample always retains at least two fixes.
    """

    gaps: int = 1
    min_span: int = 4
    max_span: int = 10

    def __post_init__(self) -> None:
        if self.gaps < 1:
            raise ValueError("an outage needs at least one gap")
        if not 1 <= self.min_span <= self.max_span:
            raise ValueError("need 1 <= min_span <= max_span")

    def apply(self, trace: DegradedTrace,
              rng: np.random.Generator) -> DegradedTrace:
        last = trace.dense_length - 1
        drop = np.zeros(trace.dense_length, dtype=bool)
        for _ in range(self.gaps):
            span = int(rng.integers(self.min_span, self.max_span + 1))
            span = min(span, max(last - 1, 1))
            start = int(rng.integers(1, max(last - span, 1) + 1))
            drop[start:start + span] = True
        drop[0] = drop[last] = False
        keep = trace.keep[~drop[trace.keep]]
        return replace(trace, keep=keep)


@dataclass(frozen=True)
class NoiseBurst(TraceTransform):
    """A window of extra coordinate noise (urban-canyon multipath).

    Adds zero-mean Gaussian error with ``std`` meters to the working
    positions inside one contiguous window of ``span`` dense steps.  The
    degraded positions feed the Eq. 16 constraint masks, so the model
    sees anchors that actively point at the wrong segments.
    """

    std: float = 60.0
    span: int = 8

    def __post_init__(self) -> None:
        if self.std <= 0 or self.span < 1:
            raise ValueError("noise burst needs std > 0 and span >= 1")

    def apply(self, trace: DegradedTrace,
              rng: np.random.Generator) -> DegradedTrace:
        length = trace.dense_length
        span = min(self.span, length)
        start = int(rng.integers(0, length - span + 1))
        xy = trace.xy.copy()
        xy[start:start + span] += rng.normal(0.0, self.std, size=(span, 2))
        return replace(trace, xy=xy)


@dataclass(frozen=True)
class Scenario:
    """A named, seeded composition of trace transforms plus its gate.

    ``accuracy_floor`` is the scenario's declared degradation floor: the
    benchmark asserts mean segment accuracy under this scenario stays at
    or above it (scaled by the smoke-budget relaxation factor).  Floors
    encode "how much degradation is acceptable" per scenario, making
    robustness regressions fail CI the way perf regressions already do.
    """

    name: str
    transforms: Tuple[TraceTransform, ...] = ()
    seed: int = 0
    accuracy_floor: float = 0.0
    description: str = ""

    def degrade(self, raw: RawTrajectory, matched: MatchedTrajectory,
                index: int, keep_every: int) -> DegradedTrace:
        """Apply all transforms to one dense pair (``index`` seeds it)."""
        trace = DegradedTrace(
            raw=raw, matched=matched,
            keep=downsample_indices(len(raw), keep_every),
            xy=raw.xy.copy(),
        )
        rng = np.random.default_rng([self.seed, index])
        for transform in self.transforms:
            trace = transform.apply(trace, rng)
        return trace


def build_scenario_samples(
    pairs: Sequence[Tuple[RawTrajectory, MatchedTrajectory]],
    network: RoadNetwork,
    scenario: Scenario,
    config: Optional[DatasetConfig] = None,
) -> List[RecoverySample]:
    """Degrade ``pairs`` under ``scenario`` and build recovery samples.

    Mirrors :func:`~repro.trajectory.dataset.build_samples` exactly —
    same hour/holiday RNG stream, same constraint construction via
    :func:`~repro.trajectory.dataset.sample_from_fixes` — so a scenario
    with no transforms returns bit-identical samples (the identity gate).
    Targets stay the full dense matched trajectories; only the observed
    fix pattern and coordinates degrade.
    """
    config = config or DatasetConfig()
    rng = np.random.default_rng(config.seed)
    samples: List[RecoverySample] = []
    for index, (raw, matched) in enumerate(pairs):
        if len(raw) != len(matched):
            raise ValueError("raw and matched trajectories must align 1:1")
        trace = scenario.degrade(raw, matched, index, config.keep_every)
        low = RawTrajectory(trace.xy[trace.keep], raw.times[trace.keep])
        samples.append(
            sample_from_fixes(
                network, low, matched, trace.keep, config,
                hour=int(rng.integers(0, 24)),
                holiday=bool(rng.random() < 0.1),
            )
        )
    return samples


def standard_scenarios(keep_every: int = 8, seed: int = 0) -> List[Scenario]:
    """The default scenario rows (identity first).

    Floors are calibrated against the deterministic ``bench_scenarios``
    default budget (160 trajectories / 15 epochs on the Chengdu recipe,
    where measured accuracies run 0.06–0.11) with ~35% headroom; they
    are relative quality bars for this small-CPU reproduction, not paper
    numbers.
    """
    return [
        Scenario(
            name="identity",
            transforms=(),
            seed=seed,
            accuracy_floor=0.07,
            description=f"clean keep-every-{keep_every} pipeline "
                        "(bit-identical to build_samples)",
        ),
        Scenario(
            name="variable_rate",
            transforms=(VariableRate(choices=(keep_every // 2, keep_every,
                                              keep_every * 2)),),
            seed=seed + 1,
            accuracy_floor=0.055,
            description="per-trace mixed sampling strides",
        ),
        Scenario(
            name="sparse_x2",
            transforms=(FixedRate(keep_every * 2),),
            seed=seed + 2,
            accuracy_floor=0.05,
            description=f"uniform keep-every-{keep_every * 2} "
                        "(the held-out degraded regime)",
        ),
        Scenario(
            name="outage",
            transforms=(Outage(gaps=2, min_span=4, max_span=10),),
            seed=seed + 3,
            accuracy_floor=0.04,
            description="two contiguous observation gaps (tunnels)",
        ),
        Scenario(
            name="noise_burst",
            transforms=(NoiseBurst(std=60.0, span=8),),
            seed=seed + 4,
            accuracy_floor=0.05,
            description="one 60 m multipath burst over 8 grid steps",
        ),
        Scenario(
            name="outage_noise",
            transforms=(Outage(gaps=1, min_span=4, max_span=8),
                        NoiseBurst(std=45.0, span=6)),
            seed=seed + 5,
            accuracy_floor=0.045,
            description="compound: an outage plus a noise burst",
        ),
    ]
