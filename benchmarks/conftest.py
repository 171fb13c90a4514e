"""Shared fixtures for the per-table/figure benchmarks.

Heavy work (training every method on every dataset) goes through
``repro.experiments.run_experiment`` which caches results on disk under
``benchmarks/_cache``; re-running a benchmark is then instant.  The
``benchmark`` fixture times a *representative hot path* for each
experiment (inference, a training step, HMM matching) so
``pytest benchmarks/ --benchmark-only`` produces meaningful timing tables
alongside the printed paper tables.
"""

import pytest


@pytest.fixture(scope="session")
def budget():
    from repro.experiments import bench_budget

    return bench_budget()
