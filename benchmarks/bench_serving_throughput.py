"""Serving benchmark: the continuous-batching engine in a closed loop.

* ``test_serving_throughput_vs_batch_size`` — QPS / latency / slot
  occupancy as the slot count grows (1, 4, 16) under 8 concurrent
  submitters;
* ``test_serving_cache_hot_path`` — a repeated trace answers from the
  request-level cache.

Both write into ``BENCH_serving.json`` under ``REPRO_CACHE_DIR`` (default
``benchmarks/_cache``).  End-to-end latency under open-loop mixed traffic,
and bit-identity against solo decodes, are measured by the perf ledger
(``benchmarks/ledger``) and asserted by ``tests/test_engine.py``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_throughput.py -q -s

Budget knobs: ``REPRO_BENCH_SERVE_TRAJECTORIES`` (default 160) and
``REPRO_BENCH_SERVE_EPOCHS`` (default 2).
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
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

BATCH_SIZES = (1, 4, 16)
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


def _replay_closed_loop(service, requests):
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = list(pool.map(service.submit, requests))
    for future in futures:
        future.result(timeout=600.0)
    return time.perf_counter() - start


def _write_artifact(payload):
    cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", "benchmarks/_cache"))
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / ARTIFACT_NAME
    if path.exists():
        with open(path) as handle:
            existing = json.load(handle)
        existing.update(payload)
        payload = existing
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    print(f"wrote {path}")


def test_serving_throughput_vs_batch_size(trained):
    """Closed-loop sweep: QPS/latency vs slot count."""
    data, model = trained
    pool = data.test + data.val
    requests = [
        RecoveryRequest(s.raw_low.xy, s.raw_low.times, hour=s.hour,
                        holiday=s.holiday, request_id=f"bench-{i}")
        for i, s in enumerate(pool[i % len(pool)] for i in range(48))
    ]

    rows = []
    for batch_size in BATCH_SIZES:
        service = RecoveryService.from_model(model, ServeConfig.for_dataset(
            data,
            max_batch_size=batch_size,
            cache_capacity=0,
        ))
        elapsed = _replay_closed_loop(service, requests)
        stats = service.stats()
        service.close()
        rows.append({
            "max_batch_size": batch_size,
            "requests": len(requests),
            "wall_seconds": round(elapsed, 3),
            "qps": round(len(requests) / elapsed, 3),
            "latency_ms_p50": stats["latency_ms_p50"],
            "latency_ms_p95": stats["latency_ms_p95"],
            "mean_batch_occupancy": stats["mean_batch_occupancy"],
            "max_batch_occupancy": stats["max_batch_occupancy"],
        })

    print("\nServing throughput — continuous engine, slots ∈ {1, 4, 16}, Chengdu")
    header = (f"{'slots':>6}{'QPS':>10}{'p50 ms':>10}{'p95 ms':>10}"
              f"{'occ mean':>10}{'occ max':>9}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['max_batch_size']:>6}{row['qps']:>10.2f}"
              f"{row['latency_ms_p50']:>10.1f}{row['latency_ms_p95']:>10.1f}"
              f"{row['mean_batch_occupancy']:>10.2f}{row['max_batch_occupancy']:>9}")

    _write_artifact({"env": bench_environment(), "slot_sweep_rows": rows})

    by_size = {row["max_batch_size"]: row for row in rows}
    # One slot cannot interleave; 16 must actually hold multiple in flight.
    assert by_size[1]["max_batch_occupancy"] == 1
    assert by_size[16]["max_batch_occupancy"] > 1
    # Loose sanity bound only: exact QPS ordering is noisy on a shared CPU,
    # so we assert interleaving is not catastrophically slower than serial.
    assert by_size[16]["qps"] >= 0.5 * by_size[1]["qps"]


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
    assert hot_ms < cold.latency_ms