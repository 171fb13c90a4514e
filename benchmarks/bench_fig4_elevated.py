"""Fig. 4 — elevated-road robustness (SR%k) on Chengdu ×8.

SR%k is the fraction of elevated-road sub-trajectories whose F1 exceeds k.
The harness already computes SR%k for every experiment, so this figure
reuses Table III's cached runs (the plan's ``fig4`` section).  Paper
finding: RNTrajRec dominates every baseline across thresholds, and
learning-based methods beat HMM two-stage methods.
"""

from repro.experiments import SR_THRESHOLDS, experiment_plan, run_experiment


def test_fig4_sr_curves(benchmark, budget):
    results = {method: run_experiment(**run)
               for method, run in experiment_plan(budget)["fig4"].items()}

    header = f"{'Method':<22}" + "".join(f"{f'SR%{k}':>10}" for k in SR_THRESHOLDS)
    print("\nFig. 4 — elevated road recovery, Chengdu (ε_τ = ε_ρ × 8)")
    print(header)
    print("-" * len(header))
    for method, result in results.items():
        row = f"{method:<22}"
        for k in SR_THRESHOLDS:
            row += f"{result.sr_at_k[str(float(k))]:>10.3f}"
        print(row)

    # Shape: SR%k is non-increasing in k for every method.
    for method, result in results.items():
        values = [result.sr_at_k[str(float(k))] for k in SR_THRESHOLDS]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:])), method

    # RNTrajRec should be at or near the top at the lowest threshold.
    rn = results["rntrajrec"].sr_at_k[str(float(SR_THRESHOLDS[0]))]
    tr = results["transformer"].sr_at_k[str(float(SR_THRESHOLDS[0]))]
    assert rn >= tr - 0.05

    benchmark(lambda: {m: r.sr_at_k for m, r in results.items()})
