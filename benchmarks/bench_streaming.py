"""Streaming-recovery benchmark: incremental appends vs re-decode-from-scratch.

Simulates long driving sessions on the Chengdu network and feeds each one
fix-by-fix through :class:`repro.stream.StreamingRecoveryService`, timing
every append.  The baseline re-runs the one-shot recovery on the full
prefix after each new fix — what a session-less server would have to do.
Two gates:

* **speedup** — mean per-append latency must beat the from-scratch
  baseline by ``REPRO_BENCH_STREAM_MIN_SPEEDUP`` (default 3x, the
  acceptance bar at session length >= 32; CI smoke-runs with a relaxed
  floor because shared runners are noisy);
* **exactness** — ``finalize()`` after all appends must reproduce the
  one-shot recovery of the same fixes bit-for-bit (hard assert at every
  budget).

Writes ``BENCH_streaming.json`` into the shared benchmark cache directory
(``REPRO_CACHE_DIR``, default ``benchmarks/_cache``) next to the other
artifacts.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_streaming.py -q -s

Budget knobs: ``REPRO_BENCH_STREAM_SESSIONS`` (default 3),
``REPRO_BENCH_STREAM_LENGTH`` (default 32 fixes per session),
``REPRO_BENCH_STREAM_KEEP_EVERY`` (default 8, the ε_τ/ε_ρ ratio),
``REPRO_BENCH_STREAM_HORIZON`` (default 8 grid steps).
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import RNTrajRec
from repro.datasets import get_spec
from repro.experiments import bench_budget, bench_environment, small_model_config
from repro.roadnet import generate_city
from repro.serve import RecoveryRequest, RecoveryService, ServeConfig
from repro.stream import StreamingRecoveryService
from repro.trajectory import MatchedTrajectory, downsample_raw
from repro.trajectory.simulate import TrajectorySimulator

ARTIFACT_NAME = "BENCH_streaming.json"


def _stream_budget() -> dict:
    return {
        "sessions": int(os.environ.get("REPRO_BENCH_STREAM_SESSIONS", 3)),
        "length": int(os.environ.get("REPRO_BENCH_STREAM_LENGTH", 32)),
        "keep_every": int(os.environ.get("REPRO_BENCH_STREAM_KEEP_EVERY", 8)),
        "horizon": int(os.environ.get("REPRO_BENCH_STREAM_HORIZON", 8)),
        "hidden": bench_budget()["hidden"],
        # The acceptance bar: streaming appends >= 3x cheaper than
        # re-decoding the whole prefix from scratch, at sessions of >= 32
        # fixes.  CI relaxes the floor (noisy shared runners); the ratio is
        # algorithmic (suffix decode vs full decode), not core-count bound.
        "min_speedup": float(os.environ.get("REPRO_BENCH_STREAM_MIN_SPEEDUP", 3.0)),
    }


def _simulate_sessions(network, spec, count: int, length: int,
                       keep_every: int):
    """``count`` raw low-sample traces of exactly ``length`` fixes each.

    The registry datasets cap traces at ~25 ε_ρ points (4-5 fixes) — far
    too short to exercise a streaming session — so the benchmark drives
    the simulator at ``length * keep_every`` dense points and downsamples,
    mirroring the offline pipeline's ε_τ construction.  Routes that long
    exceed ``TrajectorySimulator``'s 16-extension chaining budget, so the
    benchmark chains destinations itself (a taxi that keeps driving) with
    the simulator's own routing and motion primitives.
    """
    dense = (length - 1) * keep_every + 1  # downsample keeps 0, k, ..., last
    simulator = TrajectorySimulator(
        network, replace(spec.simulation, target_points=dense, seed=7))
    cfg = simulator.config
    lengths = simulator._lengths
    needed = dense * cfg.sample_interval * 36.0  # simulate_one's bound

    def chained_route():
        source, target = simulator._sample_od()
        if source == target:
            return None
        route = simulator._perturbed_route(source, target)
        if route is None or len(route) < 2:
            return None
        total = float(lengths[route].sum())
        for _ in range(600):
            if total >= needed:
                return route
            _, nxt = simulator._sample_od()
            if nxt == route[-1]:
                continue
            extension = simulator._perturbed_route(route[-1], nxt)
            if extension is None or len(extension) < 2:
                continue
            route.extend(extension[1:])
            total += float(lengths[extension[1:]].sum())
        return None

    sessions = []
    attempts = 0
    while len(sessions) < count and attempts < count * 30:
        attempts += 1
        route = chained_route()
        if route is None:
            continue
        seg_indices, ratios, times = simulator._drive(route)
        if len(times) < dense:
            continue
        keep = slice(0, dense)
        matched = MatchedTrajectory(
            np.asarray(route, dtype=np.int64)[seg_indices[keep]],
            ratios[keep], times[keep])
        raw = matched.to_raw(network, noise_std=cfg.gps_noise_std,
                             rng=simulator.rng)
        low = downsample_raw(raw, keep_every)
        assert len(low) == length, (len(low), length)
        sessions.append(low)
    if len(sessions) < count:
        raise RuntimeError(f"only {len(sessions)}/{count} sessions simulated")
    return sessions


def run_streaming_bench(sessions: int = 3, length: int = 32,
                        keep_every: int = 8, horizon: int = 8,
                        hidden: int = 32) -> dict:
    spec = get_spec("chengdu")
    network = generate_city(spec.city)
    model = RNTrajRec(network, small_model_config(hidden)).eval()
    traces = _simulate_sessions(network, spec, sessions, length, keep_every)

    serve_config = ServeConfig.for_spec(spec)
    oneshot = RecoveryService.from_model(model, serve_config)

    append_ms: list = []
    scratch_ms: list = []
    rows: list = []
    exact = True
    try:
        for index, low in enumerate(traces):
            streaming = StreamingRecoveryService(oneshot, horizon)
            session_id = streaming.open()
            revisions = 0
            decoded = skipped = 0
            for j in range(len(low)):
                update = streaming.append(session_id, low.xy[j:j + 1],
                                          low.times[j:j + 1])
                if update.trajectory is not None:
                    append_ms.append(update.latency_ms)
                    decoded += update.decoded_steps
                    skipped += update.skipped_steps
                    if update.revised_from >= 0:
                        revisions += 1
            final = streaming.finalize(session_id)

            # Baseline: a session-less server re-recovers the full prefix
            # on every new fix (same model; a standalone service has no
            # result cache).
            prefix_ms = []
            for j in range(2, len(low) + 1):
                start = time.perf_counter()
                reference = oneshot.recover(
                    RecoveryRequest(low.xy[:j], low.times[:j]), timeout=600.0)
                prefix_ms.append(1000.0 * (time.perf_counter() - start))
            scratch_ms.extend(prefix_ms)

            same = (np.array_equal(final.trajectory.segments,
                                   reference.trajectory.segments)
                    and np.allclose(final.trajectory.ratios,
                                    reference.trajectory.ratios)
                    and np.array_equal(final.trajectory.times,
                                       reference.trajectory.times))
            exact = exact and same
            rows.append({
                "session": index,
                "fixes": len(low),
                "grid_length": len(final.trajectory),
                "revised_appends": revisions,
                "decoded_steps": decoded,
                "skipped_steps": skipped,
                "finalize_matches_oneshot": bool(same),
            })
    finally:
        oneshot.close()

    mean_append = float(np.mean(append_ms))
    mean_scratch = float(np.mean(scratch_ms))
    return {
        "benchmark": "streaming",
        "env": bench_environment(),
        "dataset": "chengdu",
        "budget": {"sessions": sessions, "length": length,
                   "keep_every": keep_every, "horizon": horizon,
                   "hidden": hidden},
        "num_segments": int(network.num_segments),
        "sessions": rows,
        "appends_timed": len(append_ms),
        "stream_mean_append_ms": round(mean_append, 3),
        "stream_p95_append_ms": round(float(np.percentile(append_ms, 95)), 3),
        "scratch_mean_append_ms": round(mean_scratch, 3),
        "scratch_p95_append_ms": round(float(np.percentile(scratch_ms, 95)), 3),
        "speedup": round(mean_scratch / max(mean_append, 1e-9), 2),
        "all_finalizes_exact": bool(exact),
    }


def print_artifact(artifact: dict) -> None:
    print(f"\nStreaming recovery — per-append latency vs re-decode-from-scratch "
          f"(|V| = {artifact['num_segments']})")
    print(f"  sessions: {len(artifact['sessions'])} x "
          f"{artifact['budget']['length']} fixes "
          f"(grid ~{artifact['sessions'][0]['grid_length']} steps, "
          f"horizon {artifact['budget']['horizon']})")
    print(f"  streaming append : {artifact['stream_mean_append_ms']:8.2f} ms mean / "
          f"{artifact['stream_p95_append_ms']:8.2f} ms p95")
    print(f"  scratch re-decode: {artifact['scratch_mean_append_ms']:8.2f} ms mean / "
          f"{artifact['scratch_p95_append_ms']:8.2f} ms p95")
    print(f"  speedup: {artifact['speedup']:.2f}x; finalize exact: "
          f"{artifact['all_finalizes_exact']}")


def test_streaming_speedup():
    budget = _stream_budget()
    artifact = run_streaming_bench(
        sessions=budget["sessions"], length=budget["length"],
        keep_every=budget["keep_every"], horizon=budget["horizon"],
        hidden=budget["hidden"],
    )
    print_artifact(artifact)

    cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", "benchmarks/_cache"))
    cache_dir.mkdir(parents=True, exist_ok=True)
    with open(cache_dir / ARTIFACT_NAME, "w") as handle:
        json.dump(artifact, handle, indent=1)
    print(f"wrote {cache_dir / ARTIFACT_NAME}")

    # Exactness is a hard assert at every budget; the speedup floor is the
    # env-tunable gate (3x locally, relaxed on CI).
    assert artifact["all_finalizes_exact"], artifact["sessions"]
    assert artifact["speedup"] >= budget["min_speedup"], artifact["speedup"]


if __name__ == "__main__":
    test_streaming_speedup()
