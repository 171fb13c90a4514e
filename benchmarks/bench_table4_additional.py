"""Table IV — additional datasets: Shanghai and Chengdu-Few.

Shanghai probes a different data distribution; Chengdu-Few (20 % of the
Chengdu corpus, same network/area) probes low-data robustness.  Paper
finding: RNTrajRec still wins both, but its margin over the best baseline
shrinks on Chengdu-Few because transformers are data-hungry (§VI-C).  The
runs are the ``table4/*`` sections of ``repro.experiments.experiment_plan``.
"""

import pytest

from repro.experiments import experiment_plan, format_table, run_experiment


@pytest.mark.parametrize("dataset", ["shanghai", "chengdu_few"])
def test_table4_rows(dataset, benchmark, budget):
    results = [run_experiment(**run)
               for run in experiment_plan(budget)[f"table4/{dataset}_x8"].values()]
    print("\n" + format_table(results, f"Table IV — {dataset} (ε_τ = ε_ρ × 8)"))

    by_name = {r.method: r for r in results}
    assert by_name["rntrajrec"].metrics["F1 Score"] >= by_name["transformer"].metrics["F1 Score"]
    for result in results:
        assert result.metrics["RMSE"] >= result.metrics["MAE"]

    benchmark(lambda: format_table(results, "Table IV"))


def test_table4_few_shot_margin_shrinks(benchmark, budget):
    """RNTrajRec's margin over MTrajRec is smaller with 20% of the data."""
    plan = experiment_plan(budget)
    full, few = plan["table3/chengdu_x8"], plan["table4/chengdu_few_x8"]
    full_rn, full_mt, few_rn, few_mt = (
        run_experiment(**runs[method])
        for runs in (full, few) for method in ("rntrajrec", "mtrajrec"))
    full_margin = full_rn.metrics["F1 Score"] - full_mt.metrics["F1 Score"]
    few_margin = few_rn.metrics["F1 Score"] - few_mt.metrics["F1 Score"]
    print(f"\nF1 margin over MTrajRec: full-data {full_margin:+.4f}, few-shot {few_margin:+.4f}")
    # Soft shape check: the few-shot margin should not be dramatically
    # larger than the full-data margin (transformers are data-hungry).
    assert few_margin <= full_margin + 0.10
    benchmark(lambda: (full_margin, few_margin))
