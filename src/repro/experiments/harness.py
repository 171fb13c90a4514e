"""Experiment harness: train-and-evaluate with a JSON result cache.

Every benchmark (one per paper table/figure) funnels through
:func:`run_experiment`, which trains the named method on the named dataset
and returns Table-III style metrics plus SR%k, inference timing and
parameter counts.  Results are cached on disk keyed by the full
experiment fingerprint, so figures that reuse Table III's models (Fig. 4
robustness, Fig. 6 efficiency) do not retrain, and re-running a benchmark
is instant.  The fingerprint includes :func:`code_identity`, a digest of
the ``repro`` source, so a cell computed before a code change is a miss.
A cell is a pure function of its arguments: the model's initial weights
are drawn from ``train_config.seed``, whatever ran earlier in the process.

Budget knobs come from the environment:

* ``REPRO_BENCH_TRAJECTORIES`` — trajectories per dataset (default 320);
* ``REPRO_BENCH_EPOCHS`` — training epochs (default 25);
* ``REPRO_BENCH_HIDDEN`` — hidden size (default 32).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from ..baselines import BASELINE_NAMES, build_baseline
from ..core.config import RNTrajRecConfig
from ..core.model import RNTrajRec
from ..datasets.registry import LoadedDataset, load_dataset
from ..nn.init import seed_everything
from ..train import TrainConfig, Trainer
from ..eval.evaluate import evaluate_model, evaluate_sr_at_k
from ..roadnet.shortest_path import ShortestPathEngine

METHOD_NAMES = BASELINE_NAMES + ("rntrajrec",)

#: ``REPRO_CACHE_DIR``, else the repository's ``benchmarks/_cache`` wherever
#: the process runs from: the benches, the cache jobs and the renderer all
#: read and write the one cache.
DEFAULT_CACHE_DIR = Path(os.environ.get(
    "REPRO_CACHE_DIR",
    Path(__file__).resolve().parents[3] / "benchmarks" / "_cache"))

SR_THRESHOLDS = (0.4, 0.5, 0.6, 0.7, 0.8)


def bench_budget() -> Dict[str, int]:
    """Benchmark budget from the environment (see module docstring)."""
    return {
        "trajectories": int(os.environ.get("REPRO_BENCH_TRAJECTORIES", 320)),
        "epochs": int(os.environ.get("REPRO_BENCH_EPOCHS", 25)),
        "hidden": int(os.environ.get("REPRO_BENCH_HIDDEN", 32)),
    }


def bench_environment(**extra) -> Dict[str, object]:
    """The self-describing header stamped into every ``BENCH_*.json``.

    Perf artifacts travel between runner shapes (a 1-core dev box, 2-4
    vCPU CI runners, a wide local machine), and numbers like a QPS
    scaling ratio are uninterpretable without knowing the shape that
    produced them — the process-backend gate literally changes with
    ``cpu_count``.  Each artifact therefore records its environment, plus
    benchmark-specific fields via ``extra`` (e.g. ``backend=\"process\"``).
    """
    import platform

    env: Dict[str, object] = {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "backend": "inproc",
    }
    env.update(extra)
    return env


def small_model_config(hidden: int = 32, **overrides) -> RNTrajRecConfig:
    """The repo's standard small-CPU model configuration, shared by the
    harness, serving CLI, examples and benchmarks."""
    params = dict(hidden_dim=hidden, num_heads=4, dropout=0.0,
                  receptive_delta=300.0, max_subgraph_nodes=32)
    params.update(overrides)
    return RNTrajRecConfig(**params)


def quick_train_config(epochs: int, **overrides) -> TrainConfig:
    """The matching standard training recipe."""
    params = dict(epochs=epochs, batch_size=16, learning_rate=5e-3,
                  clip_norm=10.0, teacher_forcing_ratio=0.2, validate=False)
    params.update(overrides)
    return TrainConfig(**params)


@dataclass
class ExperimentResult:
    """One (dataset, method) cell of a results table."""

    dataset: str
    method: str
    metrics: Dict[str, float]
    sr_at_k: Dict[str, float]
    inference_ms_per_trajectory: float
    num_parameters: int
    train_seconds: float
    config: Dict

    def row(self) -> Dict[str, float]:
        return dict(self.metrics)


@functools.lru_cache(maxsize=None)
def code_identity() -> str:
    """sha256 over every ``src/repro/**/*.py`` (relative path + bytes, in
    sorted path order), computed once per process."""
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for name, path in sorted((path.relative_to(package).as_posix(), path)
                             for path in package.rglob("*.py")):
        digest.update(name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _fingerprint(payload: Dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def load_cached(cache_dir: Path, key: str) -> Optional[ExperimentResult]:
    path = _cache_path(cache_dir, key)
    if not path.exists():
        return None
    with open(path) as handle:
        raw = json.load(handle)
    return ExperimentResult(**raw)


def store_cached(cache_dir: Path, key: str, result: ExperimentResult) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    with open(_cache_path(cache_dir, key), "w") as handle:
        json.dump(asdict(result), handle, indent=1)


_DATASET_CACHE: Dict[Tuple, LoadedDataset] = {}


def get_dataset(name: str, trajectories: int, keep_every: Optional[int] = None) -> LoadedDataset:
    key = (name, trajectories, keep_every)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_dataset(name, num_trajectories=trajectories, keep_every=keep_every)
    return _DATASET_CACHE[key]


_ENGINE_CACHE: Dict[int, ShortestPathEngine] = {}


def get_engine(data: LoadedDataset) -> ShortestPathEngine:
    key = id(data.network)
    if key not in _ENGINE_CACHE:
        _ENGINE_CACHE[key] = ShortestPathEngine(data.network)
    return _ENGINE_CACHE[key]


def build_method(name: str, data: LoadedDataset, model_config: RNTrajRecConfig):
    """Instantiate any of the nine methods on a dataset's network."""
    if name == "rntrajrec":
        return RNTrajRec(data.network, model_config)
    return build_baseline(name, data.network, model_config)


def _resolve(trajectories, model_config, train_config):
    """An unset run argument's :func:`bench_budget` default."""
    budget = bench_budget()
    return (trajectories or budget["trajectories"],
            model_config or small_model_config(budget["hidden"]),
            train_config or quick_train_config(budget["epochs"]))


def experiment_key(
    dataset: str,
    method: str,
    keep_every: Optional[int] = None,
    model_config: Optional[RNTrajRecConfig] = None,
    train_config: Optional[TrainConfig] = None,
    trajectories: Optional[int] = None,
    variant_tag: str = "",
) -> str:
    """The cache key :func:`run_experiment` files these arguments' result
    under: every argument, resolved, and :func:`code_identity`.  Computing
    it trains nothing."""
    trajectories, model_config, train_config = _resolve(
        trajectories, model_config, train_config)
    return _fingerprint(
        {
            "dataset": dataset,
            "method": method,
            "keep_every": keep_every,
            "trajectories": trajectories,
            "variant": variant_tag,
            "model": asdict(model_config) if hasattr(model_config, "__dataclass_fields__") else vars(model_config),
            "train": vars(train_config),
            "code": code_identity(),
        }
    )


def run_experiment(
    dataset: str,
    method: str,
    keep_every: Optional[int] = None,
    model_config: Optional[RNTrajRecConfig] = None,
    train_config: Optional[TrainConfig] = None,
    trajectories: Optional[int] = None,
    variant_tag: str = "",
    cache_dir: Path = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
) -> ExperimentResult:
    """Train ``method`` on ``dataset`` and evaluate on its test split.

    ``use_cache=False`` computes the row afresh and leaves ``cache_dir``
    untouched: it neither reads nor writes the cell."""
    trajectories, model_config, train_config = _resolve(
        trajectories, model_config, train_config)
    key = experiment_key(dataset, method, keep_every, model_config, train_config,
                         trajectories, variant_tag)
    if use_cache:
        cached = load_cached(cache_dir, key)
        if cached is not None:
            return cached

    data = get_dataset(dataset, trajectories, keep_every)
    engine = get_engine(data)
    # The seed rides in ``train_config``, so the fingerprint covers it.
    seed_everything(train_config.seed)
    model = build_method(method, data, model_config)

    train_seconds = 0.0
    if hasattr(model, "parameters"):  # learned methods
        start = time.perf_counter()
        Trainer(model, train_config).fit(data.train, data.val)
        train_seconds = time.perf_counter() - start

    report = evaluate_model(model, data.test, engine)
    sr = evaluate_sr_at_k(report, data.network, SR_THRESHOLDS)

    result = ExperimentResult(
        dataset=f"{dataset}" + (f"_x{keep_every}" if keep_every else ""),
        method=method + (f"[{variant_tag}]" if variant_tag else ""),
        metrics={k: round(v, 4) for k, v in report.metrics.as_row().items()},
        sr_at_k={str(k): round(v, 4) for k, v in sr.items()},
        inference_ms_per_trajectory=round(report.inference_seconds_per_trajectory * 1000.0, 3),
        num_parameters=int(model.num_parameters()) if hasattr(model, "num_parameters") else 0,
        train_seconds=round(train_seconds, 4),
        config={"trajectories": trajectories, "keep_every": keep_every,
                "epochs": train_config.epochs, "hidden": model_config.hidden_dim},
    )
    if use_cache:
        store_cached(cache_dir, key, result)
    return result


def format_table(results: Sequence[ExperimentResult], title: str,
                 columns: Sequence[str] = ("Recall", "Precision", "F1 Score", "Accuracy", "MAE", "RMSE")) -> str:
    """Render results in the paper's table layout."""
    lines = [title, "=" * len(title)]
    header = f"{'Method':<22}" + "".join(f"{c:>12}" for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for result in results:
        row = f"{result.method:<22}"
        for column in columns:
            value = result.metrics.get(column, float("nan"))
            row += f"{value:>12.4f}" if column not in ("MAE", "RMSE") else f"{value:>12.2f}"
        lines.append(row)
    return "\n".join(lines)
