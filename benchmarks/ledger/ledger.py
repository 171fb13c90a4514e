"""One workload in, one record out: the glue between the load generators,
the oracle and the traced replay, plus the two profiles."""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

import measure
import oracle
import replay
import sut
import workloads

CONTRACT = sut.REPO / "BENCHMARK.json"


@dataclass(frozen=True)
class Profile:
    seconds: float      # window the fixed operation counts are sized for
    boots: int          # cold boots behind setup_s (the median is reported)
    metro_boots: int    # the metro boots slower, so it gets fewer
    metro_block: float  # metro street spacing: 40 m -> ~11.9k segments
    trace: bool
    replay: int         # requests the traced replay re-runs stage by stage


def contract() -> Dict[str, Any]:
    return json.loads(CONTRACT.read_text())


def profiles() -> Dict[str, Profile]:
    seconds = contract()["run_seconds"]
    return {
        "default": Profile(seconds, boots=5, metro_boots=3, metro_block=40.0,
                           trace=False, replay=64),
        "smoke": Profile(0.4, boots=1, metro_boots=1, metro_block=125.0,
                         trace=True, replay=6),
    }


# ----------------------------------------------------------------------
# One workload, in this (fresh) process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, profile: Profile, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    started = time.perf_counter()
    workload = workloads.generate(name, seed, seconds, profile.metro_block)
    generated = time.perf_counter() - started
    bed = measure.make_bed(workload, seed)
    http = name.startswith("http")
    boots = profile.metro_boots if name == "metro-burst" else profile.boots
    outcome = (measure.run_http if http else measure.run_inproc)(bed, boots)
    # rss_mb was sampled when the window closed, before the oracle
    # allocates; failed_share is taken after it marks mismatches failed.
    checked, mismatched = oracle.check(bed, outcome)
    metrics = measure.end_to_end(outcome)
    everything = outcome.everything()
    failed = sum(not op.ok for op in everything)

    window = _window_counters(workload, outcome, http)
    problems = []
    if mismatched:
        problems.append(f"{mismatched} of {checked} oracle checks differ")
    if name == "http-cold" and window["hit_rate"] != 0.0:
        problems.append(f"http-cold hit rate {window['hit_rate']} is not 0")
    if name == "http-hot" and window["hit_rate"] < 0.99:
        problems.append(f"http-hot hit rate {window['hit_rate']} < 0.99")

    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "attempted": len(everything), "failed": failed,
        "end_to_end": metrics, "per_layer": None,
    }
    if trace:
        layers = _per_layer(bed, outcome, window, profile.replay)
        layers.update({
            "failed_share": metrics["failed_share"],
            "client.sent": float(len(everything)),
            "client.ok": float(len(everything) - failed),
            "client.failed": float(failed),
            "client.oracle_checked": float(checked),
            "client.workload_gen_s": generated,
        })
        if not layers.pop("identical"):
            problems.append("staged replay differs from cluster.recover")
        record["per_layer"] = layers
    # Every value travels with the unit BENCHMARK.json gives it.
    units = {m["name"]: m["unit"]
             for m in contract()["end_to_end"] + contract()["per_layer"]}
    for section in ("end_to_end", "per_layer"):
        if record[section] is not None:
            record[section] = {
                metric: {"value": value, "unit": units[metric]}
                for metric, value in record[section].items()}
    record["problems"] = problems
    record["correct"] = not problems
    return record


def _window_counters(workload, outcome, http: bool) -> Dict[str, float]:
    """Counters over the measured window, from the live system's public
    ``stats()`` / ``GET /stats`` before and after it."""
    before, after = outcome.stats_before, outcome.stats_after

    def delta(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return float((a or 0) - (b or 0))

    def shard_sum(*path: str) -> float:
        return sum(delta("shards", shard, *path) for shard in after["shards"])

    requests = delta("cluster", "requests")
    hits = delta("cluster", "cache_hits")
    counters = {
        "requests": requests,
        "hit_rate": hits / requests if requests else 0.0,
        "unroutable": delta("cluster", "unroutable"),
        "shed": delta("cluster", "shed"),
        "crashes": shard_sum("crashes"),
        "respawns": shard_sum("respawns"),
    }
    if http:
        # A process worker's engine counters never cross the pipe, so they
        # are rebuilt from what does: every miss admits one job and, the
        # worker being synchronous, steps it alone to the end of its grid.
        steps = [(len(r.times) - 1) * workloads.KEEP_EVERY + 1
                 for r in workload.requests]
        misses = requests - hits
        slot_steps = misses * statistics.mean(steps)
        counters.update(admitted=misses, slot_steps=slot_steps,
                        engine_steps=slot_steps)
    else:
        counters.update(admitted=shard_sum("engine", "admitted"),
                        slot_steps=shard_sum("engine", "slot_steps"),
                        engine_steps=shard_sum("engine", "engine_steps"))
    return counters


def _per_layer(bed, outcome, window, replay_count: int) -> Dict[str, Any]:
    """The traced half: staged replay, standalone layer timings, counters."""
    workload = bed.workload
    http = workload.name.startswith("http")
    stride = max(1, len(workload.requests) // replay_count)
    chosen = workload.requests[::stride][:replay_count]
    traced = replay.run(bed, bed.scratch / "artifacts",
                        [measure.request_body(r) for r in chosen], chosen)
    traced["tracer"].write(sut.CACHE / f"trace-{workload.name}.json")
    rows, extras = traced["rows"], traced["extras"]

    def us(name: str) -> float:
        return replay.median_us(rows, name)

    def p50(values) -> float:
        return float(np.percentile(list(values), 50)) if len(values) else 0.0

    staged_ms = 1e3 * p50([sum(row.values()) for row in rows])
    direct_ms = 1e3 * p50(traced["direct"])
    hit_ms = 1e3 * p50(traced["hit"])
    sweeps = [span["end"] - span["start"] for span in traced["tracer"].spans
              if span["name"] == "serve.engine.sweep"]
    subgraph_us = 1e6 * p50([e["subgraph"] for e in extras])
    codec_ms = 1e-3 * sum(us(f"cluster.workers.{stage}") for stage in (
        "encode_request", "decode_request", "encode_response",
        "decode_response"))

    # What the service itself reported per operation, and what the same
    # mix of hits and misses costs solo: the difference is waiting.
    oneshot = [op for op in (outcome.oneshot or outcome.ops) if op.ok]
    if http:
        bodies = [json.loads(op.result) for op in oneshot]
        reported = [body["latency_ms"] for body in bodies]
        transport = [1e3 * op.latency - body["latency_ms"]
                     for op, body in zip(oneshot, bodies)]
    else:
        reported = [op.result.latency_ms for op in oneshot]
        transport = []
    solo_ms = (window["hit_rate"] * hit_ms
               + (1.0 - window["hit_rate"]) * direct_ms)
    lateness = [1e3 * op.lateness for op in (outcome.oneshot or outcome.ops)]
    latencies = [1e3 * op.latency for op in outcome.ops if op.ok]
    updates = [u for u in outcome.updates if u.trajectory is not None]
    artifacts = replay.artifact_costs(bed)
    engine_steps = window["engine_steps"]

    return {
        "identical": traced["identical"],
        "http.parse_us": us("http.parse"),
        "http.serialize_us": us("http.serialize"),
        "http.transport_ms": (p50(transport) - 1e-3 * (
            us("http.parse") + us("http.serialize"))) if http else 0.0,
        "http.non200": float(outcome.non200),
        "cluster.router.route_us": us("cluster.router.route"),
        "cluster.router.unroutable": window["unroutable"],
        "cluster.shard.localize_us": us("cluster.shard.localize"),
        "cluster.shard.shed": window["shed"],
        "cluster.workers.encode_request_us": us("cluster.workers.encode_request"),
        "cluster.workers.decode_request_us": us("cluster.workers.decode_request"),
        "cluster.workers.encode_response_us": us("cluster.workers.encode_response"),
        "cluster.workers.decode_response_us": us("cluster.workers.decode_response"),
        "cluster.workers.pipe_wait_ms": (p50(reported) - solo_ms - codec_ms)
        if http else 0.0,
        "cluster.workers.crashes": window["crashes"],
        "cluster.workers.respawns": window["respawns"],
        "serve.cache.key_us": us("serve.cache.key"),
        "serve.cache.hit_us": 1e3 * hit_ms,
        "serve.cache.hit_rate": window["hit_rate"],
        "serve.request.assemble_us": us("serve.request.assemble"),
        "serve.service.batch_us": us("serve.service.batch"),
        "serve.service.encode_ms": 1e-3 * us("serve.service.encode"),
        "serve.service.constraint_ms": 1e-3 * us("serve.service.constraint"),
        "serve.service.keys_us": us("serve.service.keys"),
        "core.subgraph_gen.batch_us": subgraph_us,
        "core.gps_former.blocks_us": us("serve.service.encode") - subgraph_us,
        "core.decoder.prior_us": 1e6 * p50([e["prior"] for e in extras]),
        "core.decoder.step_us": 1e6 * p50([e["step"] for e in extras]),
        "core.decoder.steps_per_request": statistics.mean(
            e["steps"] for e in extras),
        "serve.engine.sweep_us": 1e6 * p50(sweeps),
        "serve.engine.occupancy_mean": (window["slot_steps"] / engine_steps)
        if engine_steps else 0.0,
        "serve.engine.admitted": window["admitted"],
        "serve.engine.slot_steps": window["slot_steps"],
        "serve.engine.engine_steps": engine_steps,
        "serve.batching.handoff_us": 1e6 * p50(
            [d - sum(row.values()) for d, row in zip(traced["direct"], rows)]),
        "serve.batching.load_wait_ms": p50(reported) - solo_ms,
        "stream.service.decoded_steps_mean": statistics.mean(
            u.decoded_steps for u in updates) if updates else 0.0,
        "stream.service.skipped_steps_mean": statistics.mean(
            u.skipped_steps for u in updates) if updates else 0.0,
        "stream.service.revision_rate": statistics.mean(
            u.revised_from >= 0 for u in updates) if updates else 0.0,
        "stream.service.finalize_ms": 1e3 * p50(
            [op.latency for op in outcome.finalize if op.ok]),
        "stream.session.evictions": float(outcome.evictions),
        "roadnet.artifacts.build_s": artifacts["build_s"],
        "roadnet.artifacts.save_s": artifacts["save_s"],
        "roadnet.artifacts.load_mmap_ms": artifacts["load_mmap_ms"],
        "roadnet.artifacts.bytes": artifacts["bytes"],
        "serve.registry.first_request_ms": statistics.median(
            outcome.first_request_ms),
        "client.lateness_p95_ms": float(np.percentile(lateness, 95)),
        "client.latency_p99_ms": float(np.percentile(latencies, 99)),
        "client.oneshot_p50_ms": 1e3 * p50([op.latency for op in oneshot]),
        "trace.reconcile_gap_share": abs(staged_ms - direct_ms) / direct_ms,
    }
