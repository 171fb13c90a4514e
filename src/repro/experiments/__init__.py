"""Experiment harness and the paper's experiment plan, read by the
per-table/figure benchmarks and the cache and report scripts."""

from .harness import (
    METHOD_NAMES,
    SR_THRESHOLDS,
    ExperimentResult,
    bench_budget,
    bench_environment,
    build_method,
    experiment_key,
    format_table,
    get_dataset,
    get_engine,
    quick_train_config,
    run_experiment,
    small_model_config,
)
from .plan import experiment_plan

__all__ = [
    "METHOD_NAMES",
    "SR_THRESHOLDS",
    "ExperimentResult",
    "bench_budget",
    "bench_environment",
    "build_method",
    "experiment_key",
    "experiment_plan",
    "format_table",
    "get_dataset",
    "get_engine",
    "quick_train_config",
    "run_experiment",
    "small_model_config",
]
