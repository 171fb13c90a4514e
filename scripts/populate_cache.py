"""Populate the benchmark result cache for a subset of experiments.

    python scripts/populate_cache.py <job>

Jobs partition the runs of ``repro.experiments.experiment_plan`` so
several workers can run in parallel (results land in the shared disk cache
keyed by experiment fingerprint, ``REPRO_CACHE_DIR``, default
``benchmarks/_cache``):

  t3a   Table III rows for chengdu x8
  t3b   Table III rows for chengdu x16
  t3c   Table III rows for porto x8
  t3d   Table III rows for shanghai_l x16
  t4    Table IV (shanghai x8, chengdu_few x8)
  t5    Table V ablations (chengdu + porto, half budget)
  f6    Fig. 6 RNTrajRec variants
  f7    Fig. 7 parameter sweeps
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments import experiment_plan, run_experiment  # noqa: E402


def _sections(*names):
    return lambda plan: [run for name in names for run in plan[name].values()]


JOBS = {
    "t3a": _sections("table3/chengdu_x8"),
    "t3b": _sections("table3/chengdu_x16"),
    "t3c": _sections("table3/porto_x8"),
    "t3d": _sections("table3/shanghai_l_x16"),
    "t4": _sections("table4/shanghai_x8", "table4/chengdu_few_x8"),
    "t5": _sections("table5/chengdu_x8", "table5/porto_x8"),
    # Fig. 6's baselines are t3a's runs.
    "f6": lambda plan: [run for run in plan["fig6"].values() if run["variant_tag"]],
    "f7": _sections("fig7a", "fig7b", "fig7c", "fig7d"),
}


if __name__ == "__main__":
    job = sys.argv[1]
    for run in JOBS[job](experiment_plan()):
        result = run_experiment(**run)
        print(f"[{job}] {result.dataset} {result.method}: "
              f"F1={result.metrics['F1 Score']:.4f} ACC={result.metrics['Accuracy']:.4f}",
              flush=True)
    print(f"JOB {job} COMPLETE", flush=True)
