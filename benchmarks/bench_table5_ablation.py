"""Table V — ablation studies on Chengdu and Porto.

Variants (§VI-G): w/o GRL (plain transformer blocks), w/o GF (concat+FFN
fusion), w/o GAT (feed-forward graph update), w/o GN (layer norm), w/o GCL
(no graph classification loss).  Paper finding: the full model wins on F1;
removing GRL costs the most.  The runs are the ``table5/*`` sections of
``repro.experiments.experiment_plan``, at a reduced budget: relative
ordering is the target.
"""

import pytest

from repro.experiments import experiment_plan, format_table, run_experiment


@pytest.mark.parametrize("dataset", ["chengdu", "porto"])
def test_table5_ablations(dataset, benchmark, budget):
    results = [run_experiment(**run)
               for run in experiment_plan(budget)[f"table5/{dataset}_x8"].values()]
    print("\n" + format_table(results, f"Table V — ablations on {dataset} (ε_τ = ε_ρ × 8)"))

    full = results[0]
    # Full model should be at or near the top on F1 (small budgets are
    # noisy; allow a modest tolerance, as the paper's differences are
    # fractions of a point).
    best_f1 = max(r.metrics["F1 Score"] for r in results)
    assert full.metrics["F1 Score"] >= best_f1 - 0.05

    benchmark(lambda: format_table(results, "Table V"))
