"""Serving benchmark: the request-level cache's hot path.

``test_serving_cache_hot_path`` — a repeated trace answers from the
request-level cache — writes ``BENCH_serving.json`` under
``REPRO_CACHE_DIR`` (default ``benchmarks/_cache``).  End-to-end latency
under open-loop mixed traffic, and bit-identity against solo decodes, are
measured by the perf ledger (``benchmarks/ledger``) and asserted by
``tests/test_engine.py``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_throughput.py -q -s

Budget knobs: ``REPRO_BENCH_SERVE_TRAJECTORIES`` (default 160) and
``REPRO_BENCH_SERVE_EPOCHS`` (default 2).
"""

import json
import os
from pathlib import Path

import pytest

from repro.core import RNTrajRec
from repro.experiments import (
    bench_budget,
    bench_environment,
    get_dataset,
    quick_train_config,
    small_model_config,
)
from repro.serve import RecoveryRequest, RecoveryService, ServeConfig
from repro.train import Trainer

ARTIFACT_NAME = "BENCH_serving.json"


def _serve_budget():
    return {
        "trajectories": int(os.environ.get("REPRO_BENCH_SERVE_TRAJECTORIES", 160)),
        "epochs": int(os.environ.get("REPRO_BENCH_SERVE_EPOCHS", 2)),
        "hidden": bench_budget()["hidden"],
    }


@pytest.fixture(scope="module")
def trained():
    budget = _serve_budget()
    data = get_dataset("chengdu", budget["trajectories"], 8)
    model = RNTrajRec(data.network, small_model_config(budget["hidden"]))
    Trainer(model, quick_train_config(budget["epochs"])).fit(data.train)
    model.eval()
    return data, model


def _write_artifact(payload):
    cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", "benchmarks/_cache"))
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / ARTIFACT_NAME
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    print(f"wrote {path}")


def test_serving_cache_hot_path(trained):
    """Request-level cache: a hot repeated trace answers in microseconds."""
    data, model = trained
    service = RecoveryService.from_model(
        model, ServeConfig.for_dataset(data))
    sample = data.test[0]
    request = RecoveryRequest(sample.raw_low.xy, sample.raw_low.times,
                              hour=sample.hour, holiday=sample.holiday)
    cold = service.recover(request, timeout=600.0)
    hot = [service.recover(request, timeout=600.0) for _ in range(10)]
    stats = service.stats()
    service.close()

    assert not cold.cached and all(r.cached for r in hot)
    assert stats["cache_hit_rate"] > 0.9 * (10 / 11)
    hot_ms = max(r.latency_ms for r in hot)
    print(f"\ncold={cold.latency_ms:.1f} ms, hot(max of 10)={hot_ms:.3f} ms, "
          f"speedup {cold.latency_ms / max(hot_ms, 1e-6):.0f}x")
    _write_artifact({"env": bench_environment(), "cache_hot_path": {
        "cold_ms": round(cold.latency_ms, 3),
        "hot_max_ms": round(hot_ms, 3),
        "cache_hit_rate": stats["cache_hit_rate"],
    }})
    assert hot_ms < cold.latency_ms