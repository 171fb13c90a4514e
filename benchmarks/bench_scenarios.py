"""Scenario-matrix benchmark: recovery robustness under degraded traces.

Trains two small models on Chengdu — a fixed-rate baseline (the paper's
keep-every-8 regime) and a sampling-rate curriculum model
(:func:`repro.scenarios.fit_rate_curriculum`) — then evaluates both over
the full :func:`repro.scenarios.standard_scenarios` matrix on held-out
traces: batch Table-III metrics per scenario plus a per-fix streaming
replay through :class:`repro.stream.StreamingRecoveryService` (revision
rates, finalize exactness).  A cross-city row transfers the baseline onto
the Porto network (name+shape state transfer) and fine-tunes against a
from-scratch control at equal budget.

Gates:

* **identity** — the no-transform scenario must rebuild the clean
  pipeline's samples *bit-for-bit* (positions, times, observed steps,
  hour/holiday, sparse constraint masks), and its matrix row must carry
  exactly the clean evaluation's metrics (hard assert at every budget);
* **floors** — every scenario's segment accuracy must stay at or above
  its declared ``accuracy_floor`` × ``REPRO_BENCH_SCEN_FLOOR_SCALE``
  (default 1.0; CI smoke relaxes the scale, not the floors);
* **streaming exactness** — every replayed session's ``finalize`` must
  equal one-shot recovery of the same degraded sample (hard);
* **curriculum** — the curriculum model's mean accuracy over the held-out
  degraded regimes (``variable_rate``, ``sparse_x2``) must meet or beat
  the fixed-rate baseline's (margin env-tunable for smoke budgets);
* **transfer** — the warm start must move more than half the tensors
  (structural: encoder/GRU/rate-head are city-agnostic).

Writes ``BENCH_scenarios.json`` into ``REPRO_CACHE_DIR`` (default
``benchmarks/_cache``) next to the other artifacts.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -q -s

Budget knobs: ``REPRO_BENCH_SCEN_TRAJECTORIES`` (default 160),
``REPRO_BENCH_SCEN_EPOCHS`` (default 15, split over curriculum phases),
``REPRO_BENCH_SCEN_STREAM_SESSIONS`` (default 4 replays per scenario),
``REPRO_BENCH_SCEN_FLOOR_SCALE``, ``REPRO_BENCH_SCEN_MARGIN``,
``REPRO_BENCH_HIDDEN`` (shared with the other benchmarks).
"""

import json
import os
from pathlib import Path

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
from repro.roadnet import generate_city
from repro.roadnet.shortest_path import ShortestPathEngine
from repro.scenarios import (
    RateCurriculum,
    Scenario,
    build_scenario_samples,
    evaluate_matrix,
    fit_rate_curriculum,
    standard_scenarios,
    transfer_model,
)
from repro.serve import ServeConfig
from repro.train import Trainer, quick_accuracy
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
        "stream_sessions": int(os.environ.get("REPRO_BENCH_SCEN_STREAM_SESSIONS", 4)),
        # Degradation floors scale with this (CI smoke trains tiny models
        # whose absolute accuracy is meaningless; the identity/exactness
        # gates stay hard there).
        "floor_scale": float(os.environ.get("REPRO_BENCH_SCEN_FLOOR_SCALE", 1.0)),
        # Slack on the curriculum-beats-baseline gate, again for smoke
        # budgets where two 1-epoch models are statistically tied.
        "margin": float(os.environ.get("REPRO_BENCH_SCEN_MARGIN", 0.0)),
    }


def _check_identity_bit_exact(pairs, network, config) -> bool:
    """The identity scenario must reproduce ``build_samples`` bit-for-bit."""
    clean = build_samples(pairs, network, config)
    ident = build_scenario_samples(pairs, network,
                                   Scenario(name="identity"), config)
    if len(clean) != len(ident):
        return False
    for a, b in zip(clean, ident):
        if not (np.array_equal(a.raw_low.xy, b.raw_low.xy)
                and np.array_equal(a.raw_low.times, b.raw_low.times)
                and np.array_equal(a.observed_steps, b.observed_steps)
                and a.hour == b.hour and a.holiday == b.holiday
                and len(a.constraints) == len(b.constraints)):
            return False
        for ca, cb in zip(a.constraints, b.constraints):
            if (ca is None) != (cb is None):
                return False
            if ca is not None and not all(
                    np.array_equal(np.asarray(x), np.asarray(y))
                    for x, y in zip(ca, cb)):
                return False
    return True


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


def _run_transfer(source_model, spec_b, hidden: int, epochs: int,
                  trajectories: int) -> dict:
    """Cross-city row: warm-start on city B vs from-scratch, equal budget."""
    network_b = generate_city(spec_b.city)
    simulator = TrajectorySimulator(network_b, spec_b.simulation)
    pairs_b = simulator.simulate(trajectories)
    split = max(2, int(len(pairs_b) * 0.75))
    train_b = build_samples(pairs_b[:split], network_b, spec_b.dataset)
    eval_b = build_samples(pairs_b[split:], network_b, spec_b.dataset)

    nn.init.seed_everything(1)
    transferred, report = transfer_model(source_model, network_b)
    Trainer(transferred, quick_train_config(epochs)).fit(train_b)

    nn.init.seed_everything(1)
    scratch = RNTrajRec(network_b, small_model_config(hidden))
    Trainer(scratch, quick_train_config(epochs)).fit(train_b)

    return {
        "target_dataset": spec_b.name,
        "finetune_epochs": epochs,
        "eval_trajectories": len(eval_b),
        **report.as_dict(),
        "transfer_accuracy": round(quick_accuracy(transferred, eval_b), 4),
        "scratch_accuracy": round(quick_accuracy(scratch, eval_b), 4),
    }


def run_scenarios_bench(trajectories: int = 160, epochs: int = 15,
                        hidden: int = 32, stream_sessions: int = 4) -> dict:
    spec = get_spec("chengdu")
    network = generate_city(spec.city)
    simulator = TrajectorySimulator(network, spec.simulation)
    pairs = simulator.simulate(trajectories)
    split = max(2, int(len(pairs) * 0.75))
    train_pairs, eval_pairs = pairs[:split], pairs[split:]

    identity_exact = _check_identity_bit_exact(eval_pairs, network, spec.dataset)

    baseline = _train_baseline(network, train_pairs, spec, hidden, epochs)
    curriculum_model, curriculum = _train_curriculum(
        network, train_pairs, spec, hidden, epochs)

    engine = ShortestPathEngine(network)
    scenarios = standard_scenarios(spec.dataset.keep_every)
    serve_config = ServeConfig.for_spec(spec)
    matrices = {}
    for tag, model in (("baseline", baseline),
                       ("curriculum", curriculum_model)):
        cells = evaluate_matrix(
            model, eval_pairs, network, scenarios, config=spec.dataset,
            engine=engine, serve_config=serve_config,
            stream_limit=stream_sessions)
        matrices[tag] = [cell.as_dict() for cell in cells]

    # The identity row must carry exactly the clean pipeline's metrics.
    clean_samples = build_samples(eval_pairs, network, spec.dataset)
    clean_report = evaluate_model(baseline, clean_samples, engine)
    clean_metrics = {k: round(v, 4)
                     for k, v in clean_report.metrics.as_row().items()}

    def _mean_gate_accuracy(matrix):
        return float(np.mean([
            cell["metrics"]["Accuracy"] for cell in matrix
            if cell["scenario"] in CURRICULUM_GATE_REGIMES]))

    transfer = _run_transfer(baseline, get_spec("porto"), hidden,
                             max(1, epochs // 3),
                             max(16, trajectories // 3))

    return {
        "benchmark": "scenarios",
        "env": bench_environment(),
        "dataset": "chengdu",
        "budget": {"trajectories": trajectories, "epochs": epochs,
                   "hidden": hidden, "stream_sessions": stream_sessions},
        "num_segments": int(network.num_segments),
        "curriculum_phases": [
            {"epochs": p.epochs, "rates": list(p.rates)}
            for p in curriculum.phases],
        "identity_bit_exact": bool(identity_exact),
        "clean_metrics": clean_metrics,
        "matrix": matrices,
        "curriculum_gate": {
            "regimes": list(CURRICULUM_GATE_REGIMES),
            "baseline_accuracy": round(_mean_gate_accuracy(matrices["baseline"]), 4),
            "curriculum_accuracy": round(_mean_gate_accuracy(matrices["curriculum"]), 4),
        },
        "transfer": transfer,
    }


def print_artifact(artifact: dict) -> None:
    print(f"\nScenario matrix — robustness under degraded traces "
          f"(|V| = {artifact['num_segments']})")
    print(f"  identity bit-exact: {artifact['identity_bit_exact']}")
    header = f"  {'scenario':<14}{'model':<12}{'Acc':>7}{'F1':>7}{'RMSE':>8}" \
             f"{'fixes':>7}{'rev%':>7}{'exact':>7}"
    print(header)
    for tag, matrix in artifact["matrix"].items():
        for cell in matrix:
            s = cell["streaming"]
            print(f"  {cell['scenario']:<14}{tag:<12}"
                  f"{cell['metrics']['Accuracy']:>7.3f}"
                  f"{cell['metrics']['F1 Score']:>7.3f}"
                  f"{cell['metrics']['RMSE']:>8.2f}"
                  f"{cell['mean_input_fixes']:>7.2f}"
                  f"{100.0 * s['revision_rate']:>6.1f}%"
                  f"{s['exact_finalizes']:>4d}/{s['sessions']}")
    gate = artifact["curriculum_gate"]
    print(f"  curriculum gate ({'+'.join(gate['regimes'])}): "
          f"curriculum {gate['curriculum_accuracy']:.4f} vs "
          f"baseline {gate['baseline_accuracy']:.4f}")
    t = artifact["transfer"]
    print(f"  transfer → {t['target_dataset']}: {t['copied']} tensors copied "
          f"({100.0 * t['copied_fraction']:.1f}%), accuracy "
          f"{t['transfer_accuracy']:.4f} vs scratch {t['scratch_accuracy']:.4f}")


def test_scenario_matrix():
    budget = _scen_budget()
    artifact = run_scenarios_bench(
        trajectories=budget["trajectories"], epochs=budget["epochs"],
        hidden=budget["hidden"], stream_sessions=budget["stream_sessions"])
    artifact["floor_scale"] = budget["floor_scale"]
    print_artifact(artifact)

    cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", "benchmarks/_cache"))
    cache_dir.mkdir(parents=True, exist_ok=True)
    with open(cache_dir / ARTIFACT_NAME, "w") as handle:
        json.dump(artifact, handle, indent=1)
    print(f"wrote {cache_dir / ARTIFACT_NAME}")

    # Hard gates at every budget: construction identity, metric identity,
    # streaming finalize exactness, structural transfer.
    assert artifact["identity_bit_exact"]
    identity_cell = artifact["matrix"]["baseline"][0]
    assert identity_cell["scenario"] == "identity"
    assert identity_cell["metrics"] == artifact["clean_metrics"], (
        identity_cell["metrics"], artifact["clean_metrics"])
    for matrix in artifact["matrix"].values():
        for cell in matrix:
            streaming = cell["streaming"]
            assert streaming["exact_finalizes"] == streaming["sessions"], cell
    assert artifact["transfer"]["copied_fraction"] > 0.5, artifact["transfer"]

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
