"""``repro.scenarios`` — the robustness scenario suite.

The paper evaluates recovery on fixed keep-every-k regimes; deployed
services see variable rates, GPS outages and noise bursts.  This package
makes those regimes first-class:

* :mod:`~repro.scenarios.transforms` — composable seeded trace degraders
  (:class:`FixedRate`, :class:`VariableRate`, :class:`Outage`,
  :class:`NoiseBurst`) composed into named :class:`Scenario` rows, with
  the identity law: no transforms → bit-identical to ``build_samples``;
* :mod:`~repro.scenarios.curriculum` — sampling-rate curriculum training
  over the trainer (phased ``fit(until_epoch=...)``, cumulative
  easy→hard stride mixtures).

``benchmarks/bench_scenarios.py`` scores a fixed-rate and a curriculum
model under every :func:`standard_scenarios` row into the
``BENCH_scenarios.json`` gate artifact; see ``docs/scenarios.md``.
"""

from .curriculum import CurriculumPhase, RateCurriculum, fit_rate_curriculum
from .transforms import (
    DegradedTrace,
    FixedRate,
    NoiseBurst,
    Outage,
    Scenario,
    TraceTransform,
    VariableRate,
    build_scenario_samples,
    standard_scenarios,
)

__all__ = [
    "CurriculumPhase",
    "DegradedTrace",
    "FixedRate",
    "NoiseBurst",
    "Outage",
    "RateCurriculum",
    "Scenario",
    "TraceTransform",
    "VariableRate",
    "build_scenario_samples",
    "fit_rate_curriculum",
    "standard_scenarios",
]
