"""Fig. 6 — efficiency study on Chengdu ×8.

The paper plots accuracy vs inference time per trajectory, annotated with
parameter counts, for every baseline plus RNTrajRec at N ∈ {1, 2} with and
without GRL.  Inference times and parameter counts come from the plan's
``fig6`` runs — Table III's cached baselines plus dedicated RNTrajRec
variants; the pytest benchmark times each model family's forward
inference directly.
"""

import pytest

from repro.experiments import build_method, experiment_plan, get_dataset, run_experiment
from repro.trajectory import make_batch


def _time_inference(benchmark, run, method, model_config):
    """Greedy inference of an untrained ``method`` on 8 of ``run``'s test
    trajectories."""
    data = get_dataset(run["dataset"], run["trajectories"], run["keep_every"])
    model = build_method(method, data, model_config)
    model.eval()
    batch = make_batch(data.test[:8])
    benchmark(lambda: model.recover(batch))


def test_fig6_efficiency_table(benchmark, budget):
    runs = experiment_plan(budget)["fig6"]
    rows = []
    for label, run in runs.items():
        result = run_experiment(**run)
        rows.append((label, result.metrics["Accuracy"],
                     result.inference_ms_per_trajectory, result.num_parameters))

    print("\nFig. 6 — efficiency study, Chengdu (ε_τ = ε_ρ × 8)")
    print(f"{'Method':<22}{'ACC':>8}{'ms/traj':>10}{'#Params':>10}")
    print("-" * 50)
    for name, acc, ms, params in rows:
        print(f"{name:<22}{acc:>8.3f}{ms:>10.1f}{params:>10}")

    by_name = dict((r[0], r) for r in rows)
    # Deeper GPSFormer has more parameters (paper: N=2 > N=1).
    assert by_name["rntrajrec (N=2)"][3] > by_name["rntrajrec (N=1)"][3]
    # GRL adds parameters over the plain-transformer variant.
    assert by_name["rntrajrec (N=2)"][3] > by_name["rntrajrec* (N=2)"][3]
    # Linear+HMM has zero learnable parameters.
    assert by_name["linear_hmm"][3] == 0

    # Benchmark: RNTrajRec (N=2) on the baselines' full-budget test split.
    _time_inference(benchmark, runs["transformer"], "rntrajrec",
                    runs["rntrajrec (N=2)"]["model_config"])


@pytest.mark.parametrize("method", ["mtrajrec", "transformer", "gts"])
def test_fig6_baseline_inference_speed(method, benchmark, budget):
    """Per-method inference timing (the x-axis of Fig. 6)."""
    run = experiment_plan(budget)["fig6"][method]
    _time_inference(benchmark, run, method, run["model_config"])
