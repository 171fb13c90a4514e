"""Table III — main performance comparison.

Reproduces the paper's headline table: all nine methods on Chengdu (ε_τ =
8×ε_ρ and 16×ε_ρ), Porto (8×) and Shanghai-L (16×), reporting Recall /
Precision / F1 / Accuracy / MAE / RMSE.  The runs are the ``table3/*``
sections of ``repro.experiments.experiment_plan``.

Shape expectations (not absolute numbers: these models train at d=32 on a
few hundred simulated trajectories on CPU, far below the paper's scale):
* RNTrajRec is the best end-to-end method on F1;
* end-to-end learned methods beat the naive Transformer baseline;
* Linear+HMM degrades from ×8 to ×16 sampling.

The heavy training is cached under benchmarks/_cache; the pytest
benchmark times RNTrajRec inference per batch.
"""

import pytest

from repro.experiments import (
    build_method, experiment_plan, format_table, get_dataset, run_experiment)
from repro.trajectory import iterate_batches

SECTIONS = [name for name in experiment_plan() if name.startswith("table3/")]


@pytest.mark.parametrize("section", SECTIONS, ids=[s.split("/")[1] for s in SECTIONS])
def test_table3_rows(section, benchmark, budget):
    runs = experiment_plan(budget)[section]
    results = [run_experiment(**run) for run in runs.values()]
    rn = runs["rntrajrec"]
    print("\n" + format_table(results, f"Table III — {rn['dataset']} "
                                       f"(ε_τ = ε_ρ × {rn['keep_every']})"))

    by_name = {r.method: r for r in results}
    # RNTrajRec is competitive with the strongest encoders on F1.  The
    # paper's margins are 3-5 F1 points after 30 epochs × 105k
    # trajectories; at this CPU budget we check the ordering holds within
    # single-seed noise.  The strict Chengdu ×8 win below fails at the
    # default budget; ROADMAP item 3 (a committed Table III) owns it.
    assert by_name["rntrajrec"].metrics["F1 Score"] >= by_name["transformer"].metrics["F1 Score"] - 0.03
    assert by_name["rntrajrec"].metrics["F1 Score"] >= by_name["mtrajrec"].metrics["F1 Score"] - 0.06
    if section == "table3/chengdu_x8":
        best_baseline = max(
            r.metrics["F1 Score"] for r in results if r.method != "rntrajrec"
        )
        assert by_name["rntrajrec"].metrics["F1 Score"] >= best_baseline
    # Everything produces sane values.
    for result in results:
        assert 0.0 <= result.metrics["Accuracy"] <= 1.0
        assert result.metrics["RMSE"] >= result.metrics["MAE"]

    # Benchmark: RNTrajRec inference on one test batch (cached model state
    # is not persisted, so time the untrained forward pass — the
    # architecture cost is identical).
    data = get_dataset(rn["dataset"], rn["trajectories"], rn["keep_every"])
    model = build_method("rntrajrec", data, rn["model_config"])
    model.eval()
    batch = next(iterate_batches(data.test, 8))
    benchmark(lambda: model.recover(batch))


def test_table3_cross_interval_degradation(benchmark, budget):
    """Linear+HMM degrades sharply from ×8 to ×16 (paper §VI-B)."""
    plan = experiment_plan(budget)
    x8 = run_experiment(**plan["table3/chengdu_x8"]["linear_hmm"])
    x16 = run_experiment(**plan["table3/chengdu_x16"]["linear_hmm"])
    print(f"\nLinear+HMM accuracy: x8={x8.metrics['Accuracy']:.4f} "
          f"x16={x16.metrics['Accuracy']:.4f}")
    assert x16.metrics["Accuracy"] < x8.metrics["Accuracy"]
    assert x16.metrics["MAE"] > x8.metrics["MAE"]
    benchmark(lambda: format_table([x8, x16], "Linear+HMM degradation"))
