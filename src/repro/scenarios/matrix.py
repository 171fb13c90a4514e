"""The scenario × metric evaluation matrix.

One :class:`ScenarioCell` per scenario, combining the two ways degraded
input can hurt a deployed recovery service:

* **batch quality** — Table-III metrics from :mod:`repro.eval` over
  samples degraded by the scenario (one-shot recovery accuracy);
* **streaming behavior** — the same degraded fixes replayed one append at
  a time through :class:`~repro.stream.StreamingRecoveryService`, which
  exercises the commit-horizon machinery under gaps and bursts and
  surfaces *revision rate*: the fraction of appends that rewrote an
  already-streamed suffix step.  Sparse or discontinuous input shifts
  each new fix further past the committed frontier, so revisions are the
  session-level signature of degradation that one-shot metrics miss.

The replay also checks exactness: `finalize` must equal the one-shot
`model.recover` over the identical degraded sample, for every scenario —
the PR 6 streaming guarantee must survive degraded observation patterns,
not just clean ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..eval.evaluate import evaluate_model
from ..roadnet.network import RoadNetwork
from ..roadnet.shortest_path import ShortestPathEngine
from ..serve.service import RecoveryService, ServeConfig
from ..stream.service import StreamingRecoveryService
from ..trajectory.dataset import DatasetConfig, RecoverySample, make_batch
from ..trajectory.trajectory import MatchedTrajectory, RawTrajectory
from .transforms import Scenario, build_scenario_samples


@dataclass
class StreamingReplay:
    """Session-level telemetry from replaying samples fix-by-fix."""

    sessions: int = 0
    appends: int = 0
    revised_appends: int = 0
    decoded_steps: int = 0
    skipped_steps: int = 0
    exact_finalizes: int = 0

    @property
    def revision_rate(self) -> float:
        return self.revised_appends / max(self.appends, 1)

    def as_dict(self) -> Dict[str, float]:
        return {
            "sessions": self.sessions,
            "appends": self.appends,
            "revision_rate": round(self.revision_rate, 4),
            "mean_decoded_steps": round(
                self.decoded_steps / max(self.appends, 1), 3),
            "mean_skipped_steps": round(
                self.skipped_steps / max(self.appends, 1), 3),
            "exact_finalizes": self.exact_finalizes,
        }


@dataclass
class ScenarioCell:
    """One row of the matrix: a scenario evaluated on every metric."""

    scenario: str
    description: str
    accuracy_floor: float
    metrics: Dict[str, float]
    mean_input_fixes: float
    streaming: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "description": self.description,
            "accuracy_floor": self.accuracy_floor,
            "metrics": self.metrics,
            "mean_input_fixes": self.mean_input_fixes,
            "streaming": self.streaming,
        }


def replay_streaming(
    model,
    samples: Sequence[RecoverySample],
    config: ServeConfig,
    limit: Optional[int] = None,
) -> StreamingReplay:
    """Feed each sample's degraded fixes through ``append`` one at a time,
    on a one-shot service over ``model`` with ``config``'s ingest grid.

    Every session is finalized and the finalize output compared
    bit-for-bit against one-shot ``model.recover`` on the same sample
    (same hour/holiday, same observed fixes) — ``exact_finalizes`` counts
    the sessions that matched, and callers gate on it equalling
    ``sessions``.
    """
    replay = StreamingReplay()
    subset = list(samples[:limit]) if limit else list(samples)
    with RecoveryService.from_model(model, config) as oneshot:
        service = StreamingRecoveryService(oneshot)
        for sample in subset:
            low = sample.raw_low
            session = service.open(hour=sample.hour, holiday=sample.holiday)
            for i in range(len(low)):
                update = service.append(session, low.xy[i:i + 1],
                                        low.times[i:i + 1])
                replay.appends += 1
                if update.revised_from >= 0:
                    replay.revised_appends += 1
                replay.decoded_steps += update.decoded_steps
                replay.skipped_steps += update.skipped_steps
            response = service.finalize(session)
            replay.sessions += 1
            segments, rates = model.recover(make_batch([sample]))
            if (np.array_equal(response.trajectory.segments, segments[0])
                    and np.array_equal(response.trajectory.ratios, rates[0])):
                replay.exact_finalizes += 1
    return replay


def evaluate_matrix(
    model,
    pairs: Sequence[Tuple[RawTrajectory, MatchedTrajectory]],
    network: RoadNetwork,
    scenarios: Sequence[Scenario],
    config: Optional[DatasetConfig] = None,
    engine: Optional[ShortestPathEngine] = None,
    serve_config: Optional[ServeConfig] = None,
    batch_size: int = 16,
    stream_limit: Optional[int] = 8,
) -> List[ScenarioCell]:
    """Evaluate ``model`` under every scenario; one cell per scenario.

    ``stream_limit`` bounds how many sessions the per-fix streaming
    replay runs per scenario (each append is a suffix re-decode, so a
    full replay of every sample would dominate the benchmark); ``None``
    replays them all.  ``serve_config`` (the replay's ingest grid)
    defaults to each scenario's own samples' grid spacing and ``config``'s
    Eq. 16 kernel, so streaming constraints match the batch samples and
    the finalize-exactness check is meaningful.
    """
    config = config or DatasetConfig()
    engine = engine or ShortestPathEngine(network)
    cells: List[ScenarioCell] = []
    for scenario in scenarios:
        samples = build_scenario_samples(pairs, network, scenario, config)
        report = evaluate_model(model, samples, engine, batch_size=batch_size)
        mean_fixes = float(np.mean([s.input_length for s in samples]))
        streaming = replay_streaming(
            model, samples, serve_config or _grid_config(samples, config),
            limit=stream_limit)
        cells.append(ScenarioCell(
            scenario=scenario.name,
            description=scenario.description,
            accuracy_floor=scenario.accuracy_floor,
            metrics={k: round(v, 4) for k, v in report.metrics.as_row().items()},
            mean_input_fixes=round(mean_fixes, 2),
            streaming=streaming.as_dict(),
        ))
    return cells


def _grid_config(samples: Sequence[RecoverySample],
                 config: DatasetConfig) -> ServeConfig:
    """Ingest on the samples' own ε_ρ grid spacing, ``config``'s kernel."""
    target = samples[0].target
    span = target.times[-1] - target.times[0]
    return ServeConfig(interval=float(span / max(len(target) - 1, 1)),
                       beta=config.beta, max_gps_error=config.max_gps_error)
