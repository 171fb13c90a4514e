"""Fig. 7 — parameter analysis on Chengdu ×8.

(a) road-network encoder: GridGNN vs GCN / GIN / GAT;
(b) number of GPSFormer blocks N ∈ {1, 2, 3};
(c) receptive field δ ∈ {100, 300, 600} m;
(d) influence scale γ ∈ {10, 30, 50} m.

Paper findings mirrored as soft shape checks: GridGNN is the best road
encoder; performance is insensitive to γ; larger δ helps up to a point.
The sweeps are the plan's ``fig7a``–``fig7d`` sections, at a reduced
budget — the relative ordering is the target.
"""

from repro.experiments import experiment_plan, run_experiment


def _sweep(section, budget, title):
    results = {tag: run_experiment(**run)
               for tag, run in experiment_plan(budget)[section].items()}
    print(f"\n{title}")
    for tag, result in results.items():
        print(f"  {tag:<14} F1={result.metrics['F1 Score']:.4f} "
              f"ACC={result.metrics['Accuracy']:.4f}")
    return {tag: result.metrics["F1 Score"] for tag, result in results.items()}


def test_fig7a_road_encoders(benchmark, budget):
    f1 = _sweep("fig7a", budget, "Fig. 7(a) — road network representation")
    # GridGNN should be at or near the best (small-budget noise tolerance).
    assert f1["enc=gridgnn"] >= max(f1.values()) - 0.04
    benchmark(lambda: dict(f1))


def test_fig7b_gpsformer_depth(benchmark, budget):
    f1 = _sweep("fig7b", budget, "Fig. 7(b) — number of GPSFormer blocks")
    assert all(value > 0.0 for value in f1.values())
    benchmark(lambda: dict(f1))


def test_fig7c_receptive_field(benchmark, budget):
    f1 = _sweep("fig7c", budget, "Fig. 7(c) — receptive field δ")
    # A tiny receptive field throws away context: δ=300 should not be
    # dramatically worse than δ=100.
    assert f1["delta=300"] >= f1["delta=100"] - 0.05
    benchmark(lambda: dict(f1))


def test_fig7d_gamma_insensitivity(benchmark, budget):
    f1 = _sweep("fig7d", budget, "Fig. 7(d) — influence scale γ")
    # Paper: performance varies little with γ (GPSFormer reweights nodes
    # dynamically).  Check the spread is modest.
    assert max(f1.values()) - min(f1.values()) < 0.12
    benchmark(lambda: dict(f1))
