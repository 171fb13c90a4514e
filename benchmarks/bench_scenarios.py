"""Scenario benchmark: recovery accuracy under degraded traces.

Trains two small models on Chengdu — a fixed-rate baseline (the paper's
keep-every-8 regime) and a sampling-rate curriculum model
(:func:`repro.scenarios.fit_rate_curriculum`) — then evaluates both under
every :func:`repro.scenarios.standard_scenarios` row on held-out traces:
per scenario, :func:`repro.scenarios.build_scenario_samples` degrades the
traces and :func:`repro.eval.evaluate_model` scores each model on them.

Gates:

* **floors** — every scenario's segment accuracy must stay at or above
  its declared ``accuracy_floor`` × ``REPRO_BENCH_SCEN_FLOOR_SCALE``
  (default 1.0; CI smoke relaxes the scale, not the floors);
* **curriculum** — the curriculum model's mean accuracy over the held-out
  degraded regimes (``variable_rate``, ``sparse_x2``) must meet or beat
  the fixed-rate baseline's (margin env-tunable for smoke budgets).

Tier-1 tests pin the rest: the identity scenario rebuilds
``build_samples`` bit for bit (``tests/test_scenarios.py``), and every
scenario's streamed sessions finalize equal to one-shot recovery
(``tests/test_stream.py``).

Writes ``BENCH_scenarios.json`` into ``REPRO_CACHE_DIR`` (default: the
repository's ``benchmarks/_cache``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -q -s

Budget knobs: ``REPRO_BENCH_SCEN_TRAJECTORIES`` (default 160),
``REPRO_BENCH_SCEN_EPOCHS`` (default 15, split over curriculum phases),
``REPRO_BENCH_SCEN_FLOOR_SCALE``, ``REPRO_BENCH_SCEN_MARGIN``,
``REPRO_BENCH_HIDDEN`` (shared with the other benchmarks).
"""

import json
import os

import numpy as np

from repro import nn
from repro.core import RNTrajRec
from repro.datasets import get_spec
from repro.eval import evaluate_model
from repro.experiments import (
    bench_budget,
    bench_environment,
    quick_train_config,
    small_model_config,
)
from repro.experiments.harness import DEFAULT_CACHE_DIR
from repro.roadnet import generate_city
from repro.roadnet.shortest_path import ShortestPathEngine
from repro.scenarios import (
    RateCurriculum,
    build_scenario_samples,
    fit_rate_curriculum,
    standard_scenarios,
)
from repro.train import Trainer
from repro.trajectory import build_samples
from repro.trajectory.simulate import TrajectorySimulator

ARTIFACT_NAME = "BENCH_scenarios.json"

# The held-out degraded regimes of the curriculum gate: the baseline
# trains at fixed keep-every-8 and never sees these observation patterns.
CURRICULUM_GATE_REGIMES = ("variable_rate", "sparse_x2")


def _scen_budget() -> dict:
    return {
        "trajectories": int(os.environ.get("REPRO_BENCH_SCEN_TRAJECTORIES", 160)),
        "epochs": int(os.environ.get("REPRO_BENCH_SCEN_EPOCHS", 15)),
        "hidden": bench_budget()["hidden"],
        # Degradation floors scale with this (CI smoke trains tiny models
        # whose absolute accuracy is meaningless).
        "floor_scale": float(os.environ.get("REPRO_BENCH_SCEN_FLOOR_SCALE", 1.0)),
        # Slack on the curriculum-beats-baseline gate, again for smoke
        # budgets where two 1-epoch models are statistically tied.
        "margin": float(os.environ.get("REPRO_BENCH_SCEN_MARGIN", 0.0)),
    }


def _train_baseline(network, train_pairs, spec, hidden: int, epochs: int):
    """Fixed-rate model: the paper's keep-every-k regime, nothing else."""
    nn.init.seed_everything(0)
    model = RNTrajRec(network, small_model_config(hidden))
    samples = build_samples(train_pairs, network, spec.dataset)
    Trainer(model, quick_train_config(epochs)).fit(samples)
    return model


def _train_curriculum(network, train_pairs, spec, hidden: int, epochs: int):
    """Curriculum model: same seed, same budget, phased rate mixtures."""
    nn.init.seed_everything(0)
    model = RNTrajRec(network, small_model_config(hidden))
    curriculum = RateCurriculum.standard(
        keep_every=spec.dataset.keep_every, total_epochs=epochs)
    fit_rate_curriculum(model, train_pairs, network, curriculum,
                        dataset_config=spec.dataset,
                        train_config=quick_train_config(epochs))
    return model, curriculum


def run_scenarios_bench(trajectories: int = 160, epochs: int = 15,
                        hidden: int = 32) -> dict:
    spec = get_spec("chengdu")
    network = generate_city(spec.city)
    simulator = TrajectorySimulator(network, spec.simulation)
    pairs = simulator.simulate(trajectories)
    split = max(2, int(len(pairs) * 0.75))
    train_pairs, eval_pairs = pairs[:split], pairs[split:]

    baseline = _train_baseline(network, train_pairs, spec, hidden, epochs)
    curriculum_model, curriculum = _train_curriculum(
        network, train_pairs, spec, hidden, epochs)
    models = {"baseline": baseline, "curriculum": curriculum_model}

    engine = ShortestPathEngine(network)
    matrices = {tag: [] for tag in models}
    for scenario in standard_scenarios(spec.dataset.keep_every):
        samples = build_scenario_samples(eval_pairs, network, scenario,
                                         spec.dataset)
        mean_fixes = float(np.mean([s.input_length for s in samples]))
        for tag, model in models.items():
            report = evaluate_model(model, samples, engine)
            matrices[tag].append({
                "scenario": scenario.name,
                "description": scenario.description,
                "accuracy_floor": scenario.accuracy_floor,
                "metrics": {k: round(v, 4)
                            for k, v in report.metrics.as_row().items()},
                "mean_input_fixes": round(mean_fixes, 2),
            })

    def _mean_gate_accuracy(matrix):
        return float(np.mean([
            cell["metrics"]["Accuracy"] for cell in matrix
            if cell["scenario"] in CURRICULUM_GATE_REGIMES]))

    return {
        "benchmark": "scenarios",
        "env": bench_environment(),
        "dataset": "chengdu",
        "budget": {"trajectories": trajectories, "epochs": epochs,
                   "hidden": hidden},
        "num_segments": int(network.num_segments),
        "curriculum_phases": [
            {"epochs": p.epochs, "rates": list(p.rates)}
            for p in curriculum.phases],
        "matrix": matrices,
        "curriculum_gate": {
            "regimes": list(CURRICULUM_GATE_REGIMES),
            "baseline_accuracy": round(_mean_gate_accuracy(matrices["baseline"]), 4),
            "curriculum_accuracy": round(_mean_gate_accuracy(matrices["curriculum"]), 4),
        },
    }


def print_artifact(artifact: dict) -> None:
    print(f"\nScenarios — recovery under degraded traces "
          f"(|V| = {artifact['num_segments']})")
    print(f"  {'scenario':<14}{'model':<12}{'Acc':>7}{'F1':>7}{'RMSE':>8}"
          f"{'fixes':>7}")
    for tag, matrix in artifact["matrix"].items():
        for cell in matrix:
            print(f"  {cell['scenario']:<14}{tag:<12}"
                  f"{cell['metrics']['Accuracy']:>7.3f}"
                  f"{cell['metrics']['F1 Score']:>7.3f}"
                  f"{cell['metrics']['RMSE']:>8.2f}"
                  f"{cell['mean_input_fixes']:>7.2f}")
    gate = artifact["curriculum_gate"]
    print(f"  curriculum gate ({'+'.join(gate['regimes'])}): "
          f"curriculum {gate['curriculum_accuracy']:.4f} vs "
          f"baseline {gate['baseline_accuracy']:.4f}")


def test_scenario_matrix():
    budget = _scen_budget()
    artifact = run_scenarios_bench(
        trajectories=budget["trajectories"], epochs=budget["epochs"],
        hidden=budget["hidden"])
    artifact["floor_scale"] = budget["floor_scale"]
    print_artifact(artifact)

    DEFAULT_CACHE_DIR.mkdir(parents=True, exist_ok=True)
    with open(DEFAULT_CACHE_DIR / ARTIFACT_NAME, "w") as handle:
        json.dump(artifact, handle, indent=1)
    print(f"wrote {DEFAULT_CACHE_DIR / ARTIFACT_NAME}")

    # Env-scaled gates: degradation floors and the curriculum advantage.
    for cell in artifact["matrix"]["curriculum"]:
        floor = cell["accuracy_floor"] * budget["floor_scale"]
        assert cell["metrics"]["Accuracy"] >= floor, (
            cell["scenario"], cell["metrics"]["Accuracy"], floor)
    gate = artifact["curriculum_gate"]
    assert (gate["curriculum_accuracy"]
            >= gate["baseline_accuracy"] - budget["margin"]), gate


if __name__ == "__main__":
    test_scenario_matrix()
