"""Cluster benchmark: sharded per-city serving vs a monolithic deployment.

The scenario is the production shape ``repro.cluster`` exists for: one
metro area of ``DISTRICTS`` road districts, sustained mixed traffic with
popular-route repeats, and **rolling per-district model rollouts** (every
``UPDATE_EVERY`` requests one district gets a freshly built model, round
robin).  The same request + rollout schedule is replayed against

* ``shards=1`` — the monolithic baseline: ONE recovery service over the
  merged metro network (``repro.roadnet.merge_networks``).  A district
  rollout means redeploying the whole-metro model: model construction and
  road-feature re-warm scale with the full |V|, and — because result-cache
  keys fold in the model generation — every district's cache is
  invalidated at once;
* ``shards=2`` / ``shards=4`` — geographic sharding: each rollout
  rebuilds only the owning shard's model and only that shard's cache goes
  cold; siblings keep serving hot.

Aggregate throughput at 4 shards must be ≥ ``REPRO_BENCH_CLUSTER_MIN_SCALING``
(default 2.5) times the monolith.  A second scenario drives one shard past
its admission bound and asserts the cluster **sheds** (429-style
``ShardOverloaded``) instead of queueing unboundedly.  A third scenario
measures **memory scaling**: a ~10x-|V| city is frozen into a
:class:`~repro.roadnet.CityArtifacts` bundle by a subprocess (so the build
transients never touch this process), then served by N replicas sharing
one mmap-loaded artifact set versus ONE replica over private in-memory
copies — total extra RSS of the N shared replicas must stay ≤
``REPRO_BENCH_CLUSTER_MEM_MAX_RSS_RATIO`` (default 1.35) times the single
in-memory replica at ≥ ``.._MEM_MIN_QPS_RATIO`` (default 1.0) times its
throughput, with bit-identical outputs.  A fourth scenario compares the
two **execution backends** over the same frozen artifacts: N forked
worker *processes* (``ShardSpec.backend="process"``) vs N in-process
replica threads — bit-identical responses, a hardware-scaled QPS floor
(``REPRO_BENCH_CLUSTER_PROC_MIN_QPS_RATIO``: 2.0 with ≥ 4 cores, 1.2 with
2-3, 0.9 on one — threads and processes tie on a single core minus the
IPC tax), and a **marginal-cost memory gate**: each extra worker beyond
the first must cost ≤ ``.._PROC_MAX_MARGINAL_RATIO`` (default 0.6)
times a *private-loading* single worker (``mmap=False``).  A total-tree
gate cannot work here — every forked CPython worker irreducibly dirties
~15-25 MiB of refcount-touched interpreter pages, so even perfect
artifact sharing lands a 4-worker tree above 2x one worker — but the
marginal cost cleanly separates sharing (≈0.4x at the default block)
from a regression to private loading (≈1.0x).  The total and
naive-replication ratios are still recorded in the artifact,
unasserted.  Results — including per-shard p50/p99, the shed rate,
the memory section, the process-backend section and the raw-vs-pickle
IPC codec microbench — are written to ``BENCH_cluster.json`` in the
shared cache directory.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py -q -s

Budget knobs (env): ``REPRO_BENCH_CLUSTER_REQUESTS`` (96),
``_TRAJECTORIES`` (120), ``_HOT`` (3), ``_REPEAT`` (0.95),
``_UPDATE_EVERY`` (8), ``_HIDDEN`` (32), ``_MIN_SCALING`` (2.5);
memory scenario: ``REPRO_BENCH_CLUSTER_MEM_BLOCK`` (40 → ~10x the
district |V|), ``_MEM_REPLICAS`` (4), ``_MEM_TRAJECTORIES`` (24),
``_MEM_REQUESTS`` (32), ``_MEM_HIDDEN`` (32), ``_MEM_MAX_RSS_RATIO``
(1.35), ``_MEM_MIN_QPS_RATIO`` (1.0 with >1 CPU, 0.8 on one core —
N replica threads on a single core pay the GIL convoy tax);
process scenario: ``REPRO_BENCH_CLUSTER_PROC_WORKERS`` (4),
``_PROC_REQUESTS`` (48), ``_PROC_TRAJECTORIES`` (24), ``_PROC_BLOCK``
(40), ``_PROC_HIDDEN`` (32), ``_PROC_MIN_QPS_RATIO`` (hardware-scaled,
see above), ``_PROC_MAX_MARGINAL_RATIO`` (0.6).

Note on hardware: on a multi-core box sharding *also* wins steady-state
wall clock (each shard decodes on its own scheduler thread); the rollout
scenario above is the part that holds even on one core, which is why it
is the asserted headline.  The steady-state rows are reported unasserted.
"""

import gc
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import profile
from repro.cluster import RecoveryCluster, ShardMap, ShardSpec, WorkerPool
from repro.cluster.shard import Shard
from repro.cluster.workers import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.core import RNTrajRec
from repro.datasets import get_spec
from repro.experiments import bench_environment, small_model_config
from repro.roadnet import CityArtifacts, generate_city, merge_networks
from repro.serve import ModelRegistry, RecoveryRequest, RecoveryService, ServeConfig
from repro.trajectory.dataset import build_samples
from repro.trajectory.simulate import TrajectorySimulator

ARTIFACT_NAME = "BENCH_cluster.json"
DISTRICTS = 4
GAP = 700.0      # empty corridor between districts (> 2x routing margin)
MARGIN = 60.0


def _budget():
    env = os.environ.get
    return {
        "requests": int(env("REPRO_BENCH_CLUSTER_REQUESTS", 96)),
        "trajectories": int(env("REPRO_BENCH_CLUSTER_TRAJECTORIES", 48)),
        "hot": int(env("REPRO_BENCH_CLUSTER_HOT", 3)),
        "repeat": float(env("REPRO_BENCH_CLUSTER_REPEAT", 0.95)),
        "update_every": int(env("REPRO_BENCH_CLUSTER_UPDATE_EVERY", 8)),
        "hidden": int(env("REPRO_BENCH_CLUSTER_HIDDEN", 32)),
        # District road density: the paper's cities run 8.7k-35k segments;
        # block=125 m gives ~1.4k per district (~5.7k merged), enough for
        # the |V|-dependent deploy costs to behave like production instead
        # of like a toy grid.  CI smoke can relax to 250.
        "block": float(env("REPRO_BENCH_CLUSTER_BLOCK", 125.0)),
        "min_scaling": float(env("REPRO_BENCH_CLUSTER_MIN_SCALING", 2.5)),
    }


# ---------------------------------------------------------------------------
# Metro fixture: district networks, origins, request schedule
# ---------------------------------------------------------------------------
def _district_city(budget):
    """The district recipe: chengdu's rectangle at benchmark density."""
    base = get_spec("chengdu")
    return replace(base.city, block=budget["block"], minor_fraction=0.7)


def _district_layout(network):
    """(origins, bbox_of) derived from the generated network's ACTUAL
    bounds — generate_city rounds the extent up to a multiple of the
    block size, so the nominal city rectangle under-covers for block
    sizes that don't divide it."""
    x0, y0, x1, y1 = network.bounds()
    dx, dy = (x1 - x0) + GAP, (y1 - y0) + GAP
    origins = [(0.0, 0.0), (dx, 0.0), (0.0, dy), (dx, dy)][:DISTRICTS]

    def bbox_of(origin):
        ox, oy = origin
        return (ox + x0 - MARGIN, oy + y0 - MARGIN,
                ox + x1 + MARGIN, oy + y1 + MARGIN)

    return origins, bbox_of


@pytest.fixture(scope="module")
def metro():
    budget = _budget()
    base = get_spec("chengdu")
    network = generate_city(_district_city(budget))
    simulator = TrajectorySimulator(network, base.simulation)
    pairs = simulator.simulate(budget["trajectories"])
    pool = build_samples(pairs, network, base.dataset)
    if len(pool) < budget["hot"] + 2:
        raise RuntimeError("trajectory budget too small for the hot set")
    origins, bbox_of = _district_layout(network)

    # The deterministic request schedule: round-robin districts, each draw
    # either a popular ("hot") trace or a cold one, translated into the
    # district's region of the global frame.
    rng = np.random.default_rng(7)
    schedule = []
    cold_cursor = 0
    for i in range(budget["requests"]):
        district = i % DISTRICTS
        if rng.random() < budget["repeat"]:
            sample = pool[int(rng.integers(budget["hot"]))]
        else:
            sample = pool[budget["hot"] + cold_cursor % (len(pool) - budget["hot"])]
            cold_cursor += 1
        schedule.append((district, sample))
    return {"network": network, "pool": pool, "origins": origins,
            "bbox_of": bbox_of, "schedule": schedule, "budget": budget}


def _build_cluster(metro, num_shards, max_inflight=64):
    """A cluster whose shards each own DISTRICTS/num_shards districts;
    shards=1 is the monolith over the merged metro network."""
    base_network, origins = metro["network"], metro["origins"]
    per_shard = DISTRICTS // num_shards
    groups = [list(range(s * per_shard, (s + 1) * per_shard))
              for s in range(num_shards)]

    specs, networks, district_shard = [], {}, {}
    spec_cfg = get_spec("chengdu")
    serve = {
        # Ingest must match the dataset the traces come from (the shards
        # have dataset=None because their networks are merged districts).
        "interval": spec_cfg.simulation.sample_interval,
        "beta": spec_cfg.dataset.beta,
        "max_gps_error": spec_cfg.dataset.max_gps_error,
        "max_batch_size": 16,
        "cache_capacity": 2048,
    }
    for shard_index, members in enumerate(groups):
        name = f"shard{shard_index}"
        shard_origin = origins[members[0]]
        local_offsets = [(origins[m][0] - shard_origin[0],
                          origins[m][1] - shard_origin[1]) for m in members]
        networks[name] = merge_networks([base_network] * len(members),
                                        local_offsets)
        boxes = [metro["bbox_of"](origins[m]) for m in members]
        bbox = (min(b[0] for b in boxes), min(b[1] for b in boxes),
                max(b[2] for b in boxes), max(b[3] for b in boxes))
        specs.append(ShardSpec(name=name, origin=shard_origin, bbox=bbox,
                               max_inflight=max_inflight))
        for member in members:
            district_shard[member] = name

    budget = metro["budget"]
    cluster = RecoveryCluster(
        ShardMap(shards=tuple(specs), cell_size=250.0, serve=serve),
        model_factory=lambda spec, network: RNTrajRec(
            network, small_model_config(budget["hidden"])).eval(),
        network_factory=lambda spec: networks[spec.name],
    )
    return cluster, district_shard


def _request(metro, index, district, sample):
    offset = np.asarray(metro["origins"][district])
    return RecoveryRequest(sample.raw_low.xy + offset, sample.raw_low.times,
                           hour=sample.hour, holiday=sample.holiday,
                           request_id=f"r{index}")


def _replay(metro, num_shards, rolling_updates):
    """Wall-clock one full schedule replay; returns the artifact row dict."""
    budget = metro["budget"]
    cluster, district_shard = _build_cluster(metro, num_shards)
    try:
        cluster.warm()
        # Prime each district once so one-off structure warm-up (road
        # features, reachability closure) is out of the timed region for
        # every configuration alike.
        priming = [_request(metro, -1 - d, d, metro["pool"][0])
                   for d in range(DISTRICTS)]
        assert all(r.ok for r in cluster.recover_many(priming, timeout=600.0))

        hidden = budget["hidden"]
        window = budget["update_every"]
        schedule = metro["schedule"]
        rollouts = 0
        start = time.perf_counter()
        for chunk_start in range(0, len(schedule), window):
            chunk = schedule[chunk_start:chunk_start + window]
            requests = [_request(metro, chunk_start + j, district, sample)
                        for j, (district, sample) in enumerate(chunk)]
            results = cluster.recover_many(requests, timeout=600.0)
            assert all(r.ok for r in results), [r.error for r in results if not r.ok]
            if rolling_updates and chunk_start + window < len(schedule):
                # One district's model is retrained and rolled out.  The
                # monolith can only express that as a whole-metro redeploy;
                # a sharded cluster rebuilds just the owning shard.
                shard_name = district_shard[rollouts % DISTRICTS]
                shard_network = cluster.shard(shard_name).network
                fresh = RNTrajRec(shard_network,
                                  small_model_config(hidden)).eval()
                cluster.deploy_model(shard_name, f"roll{rollouts}", fresh)
                rollouts += 1
        elapsed = time.perf_counter() - start
        stats = cluster.stats()
    finally:
        cluster.close()

    shard_latency = {
        name: {"p50_ms": s.get("latency_ms_p50", 0.0),
               "p99_ms": s.get("latency_ms_p99", 0.0)}
        for name, s in stats["shards"].items()
    }
    row = {
        "shards": num_shards,
        "rolling_updates": rolling_updates,
        "requests": len(metro["schedule"]),
        "rollouts": rollouts,
        "wall_seconds": round(elapsed, 3),
        "qps": round(len(metro["schedule"]) / elapsed, 3),
        "cache_hit_rate": round(
            stats["cluster"]["cache_hits"]
            / max(stats["cluster"]["requests"], 1), 4),
        "shed": stats["cluster"]["shed"],
        "unroutable": stats["cluster"]["unroutable"],
        "per_shard_latency": shard_latency,
        "segments_per_shard": (DISTRICTS // num_shards
                               * metro["network"].num_segments),
    }
    return row


# ---------------------------------------------------------------------------
# Scenario 1: throughput vs shard count under rolling per-district rollouts
# ---------------------------------------------------------------------------
def test_cluster_throughput_vs_shard_count(metro):
    budget = metro["budget"]
    rows = [_replay(metro, s, rolling_updates=True) for s in (1, 2, 4)]
    steady = [_replay(metro, s, rolling_updates=False) for s in (1, 4)]

    base_qps = rows[0]["qps"]
    for row in rows:
        row["scaling_vs_monolith"] = round(row["qps"] / base_qps, 3)

    print("\nCluster serving — 4-district metro, rolling per-district rollouts")
    header = (f"{'shards':>7}{'QPS':>9}{'scaling':>9}{'hit rate':>10}"
              f"{'wall s':>8}{'rollouts':>9}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['shards']:>7}{row['qps']:>9.2f}"
              f"{row['scaling_vs_monolith']:>9.2f}{row['cache_hit_rate']:>10.2f}"
              f"{row['wall_seconds']:>8.2f}{row['rollouts']:>9}")
    print("steady state (no rollouts, unasserted): "
          + ", ".join(f"{r['shards']} shard(s) {r['qps']:.2f} QPS"
                      for r in steady))

    cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", "benchmarks/_cache"))
    cache_dir.mkdir(parents=True, exist_ok=True)
    artifact_path = cache_dir / ARTIFACT_NAME
    artifact = {
        "benchmark": "cluster",
        "env": bench_environment(),
        "workload": {k: budget[k] for k in
                     ("requests", "trajectories", "hot", "repeat",
                      "update_every", "hidden", "block")},
        "districts": DISTRICTS,
        "district_segments": metro["network"].num_segments,
        "rows": rows,
        "steady_rows": steady,
    }

    # No request may be silently dropped in the capacity-sized runs.
    for row in rows + steady:
        assert row["shed"] == 0 and row["unroutable"] == 0
    # The headline: sharding beats the monolith on the rollout workload.
    scaling = rows[-1]["qps"] / base_qps
    artifact["scaling_4_vs_1"] = round(scaling, 3)
    with open(artifact_path, "w") as handle:
        json.dump(artifact, handle, indent=1)
    print(f"4 shards vs monolith: {scaling:.2f}x  (floor "
          f"{budget['min_scaling']}x); wrote {artifact_path}")
    assert scaling >= budget["min_scaling"], (
        f"4-shard cluster only {scaling:.2f}x the monolith "
        f"(need >= {budget['min_scaling']}x)")


# ---------------------------------------------------------------------------
# Scenario 2: overload sheds instead of queueing unboundedly
# ---------------------------------------------------------------------------
def test_overload_sheds_instead_of_queueing(metro):
    cluster, _ = _build_cluster(metro, 4, max_inflight=2)
    burst = 48
    try:
        cluster.warm()
        pool = metro["pool"]
        prime = cluster.recover(_request(metro, -1, 0, pool[0]), timeout=600.0)
        assert prime.shard == "shard0"

        # Fire the whole burst at ONE district without waiting.  Distinct
        # traces (the request cache must not absorb the burst): admission
        # is bounded at max_inflight=2, everything beyond must shed fast.
        def burst_request(i):
            request = _request(metro, i, 0, pool[1 + i % (len(pool) - 1)])
            # Sub-meter jitter beyond the cache quantization: repeats of a
            # pool trace within the burst stay distinct cache keys.
            return RecoveryRequest(request.xy + 0.25 * (1 + i // len(pool)),
                                   request.times, hour=request.hour,
                                   holiday=request.holiday,
                                   request_id=request.request_id)

        futures = [cluster.submit(burst_request(i)) for i in range(burst)]
        stats_during = cluster.stats()
        outcomes = {"ok": 0, "shed": 0}
        for future in futures:
            try:
                future.result(timeout=600.0)
                outcomes["ok"] += 1
            except Exception as exc:
                assert "overloaded" in str(exc)
                outcomes["shed"] += 1
        stats = cluster.stats()
    finally:
        cluster.close()

    shed_rate = outcomes["shed"] / burst
    print(f"\nOverload: burst={burst} at max_inflight=2 → served "
          f"{outcomes['ok']}, shed {outcomes['shed']} "
          f"(shed rate {shed_rate:.2f})")

    # Shedding, not unbounded queueing: the in-flight gauge never exceeds
    # the admission bound, sheds are recorded and dead-lettered, and
    # everything is accounted for.
    assert outcomes["ok"] + outcomes["shed"] == burst
    assert outcomes["shed"] > 0
    assert stats_during["shards"]["shard0"]["inflight"] <= 2
    assert stats["router"]["shed_by_shard"].get("shard0", 0) == outcomes["shed"]
    assert sum(1 for letter in cluster.telemetry.dead_letters()
               if letter["reason"] == "shed") > 0

    cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", "benchmarks/_cache"))
    artifact_path = cache_dir / ARTIFACT_NAME
    if artifact_path.exists():  # annotate the scenario-1 artifact
        payload = json.loads(artifact_path.read_text())
        payload["overload"] = {
            "burst": burst, "max_inflight": 2,
            "served": outcomes["ok"], "shed": outcomes["shed"],
            "shed_rate": round(shed_rate, 3),
        }
        artifact_path.write_text(json.dumps(payload, indent=1))


# ---------------------------------------------------------------------------
# Scenario 3: zero-copy shared artifacts — ~10x |V| city, N replicas, ~1x RSS
# ---------------------------------------------------------------------------
def _mem_budget():
    env = os.environ.get
    return {
        # block=40 m on chengdu's rectangle gives ~14k segments — ~10x the
        # throughput scenario's district (block=125 → ~1.4k) and inside
        # the paper's 8.7k-35k city range.  CI smoke relaxes to ~80.
        "block": float(env("REPRO_BENCH_CLUSTER_MEM_BLOCK", 40.0)),
        "replicas": int(env("REPRO_BENCH_CLUSTER_MEM_REPLICAS", 4)),
        "trajectories": int(env("REPRO_BENCH_CLUSTER_MEM_TRAJECTORIES", 24)),
        "requests": int(env("REPRO_BENCH_CLUSTER_MEM_REQUESTS", 32)),
        # hidden=32 keeps the decode GEMMs big enough to release the GIL,
        # so N replica threads aren't serialized against one batcher.
        "hidden": int(env("REPRO_BENCH_CLUSTER_MEM_HIDDEN", 32)),
        "max_rss_ratio": float(env("REPRO_BENCH_CLUSTER_MEM_MAX_RSS_RATIO", 1.35)),
        # No-throughput-loss gate.  N replicas on one core pay the GIL
        # convoy tax for N compute threads (~10-15% here, same reason the
        # scenario-1 steady-state rows are unasserted on one core), so the
        # default relaxes there; with real cores the replicas decode in
        # parallel and must at least match the single in-memory replica.
        "min_qps_ratio": float(env(
            "REPRO_BENCH_CLUSTER_MEM_MIN_QPS_RATIO",
            1.0 if (os.cpu_count() or 1) > 1 else 0.8)),
    }


#: Runs in a subprocess: the ~10x city build (network generation, model
#: init, X_road warm-up, trajectory simulation) allocates far more than
#: the frozen artifacts occupy, and a child process keeps those transients
#: out of the parent's RSS baseline entirely.
_MEM_BUILDER = r"""
import os
from dataclasses import replace

import numpy as np

from repro.core import RNTrajRec
from repro.datasets import get_spec
from repro.experiments import small_model_config
from repro.roadnet import CityArtifacts, generate_city
from repro.trajectory.dataset import build_samples
from repro.trajectory.simulate import TrajectorySimulator

out = os.environ["REPRO_MEM_OUT"]
spec = get_spec("chengdu")
network = generate_city(replace(spec.city,
                                block=float(os.environ["REPRO_MEM_BLOCK"]),
                                minor_fraction=0.7))
model = RNTrajRec(network,
                  small_model_config(int(os.environ["REPRO_MEM_HIDDEN"]))).eval()
CityArtifacts.build(network, model=model).save(os.path.join(out, "city"))

pairs = TrajectorySimulator(network, spec.simulation).simulate(
    int(os.environ["REPRO_MEM_TRAJECTORIES"]))
pool = build_samples(pairs, network, spec.dataset)
traces = {"hours": np.array([s.hour for s in pool]),
          "holidays": np.array([s.holiday for s in pool])}
for i, sample in enumerate(pool):
    traces[f"xy{i}"] = np.asarray(sample.raw_low.xy)
    traces[f"t{i}"] = np.asarray(sample.raw_low.times)
np.savez(os.path.join(out, "traces.npz"), **traces)
print(f"builder: {network.num_segments} segments, {len(pool)} traces",
      flush=True)
"""


def test_memory_scaling_shared_artifacts(tmp_path):
    budget = _mem_budget()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.update(REPRO_MEM_OUT=str(tmp_path),
               REPRO_MEM_BLOCK=str(budget["block"]),
               REPRO_MEM_HIDDEN=str(budget["hidden"]),
               REPRO_MEM_TRAJECTORIES=str(budget["trajectories"]))
    subprocess.run([sys.executable, "-c", _MEM_BUILDER], env=env, check=True)

    traces = np.load(tmp_path / "traces.npz")
    hours, holidays = traces["hours"], traces["holidays"]
    # Trace n-1 is reserved for per-phase priming; the timed schedule
    # cycles the rest with sub-meter jitter past the cache quantization,
    # so repeats decode for real instead of hitting the result cache.
    pool_size = max(len(hours) - 1, 1)

    def request_at(index, round_no=0):
        k = index % pool_size
        jitter = 0.25 * (index // pool_size) + 2.0 * round_no
        return RecoveryRequest(traces[f"xy{k}"] + jitter, traces[f"t{k}"],
                               hour=int(hours[k]), holiday=bool(holidays[k]),
                               request_id=f"m{round_no}.{index}")

    spec = get_spec("chengdu")
    serve_kwargs = dict(interval=spec.simulation.sample_interval,
                        beta=spec.dataset.beta,
                        max_gps_error=spec.dataset.max_gps_error,
                        max_batch_size=8)
    prime = RecoveryRequest(traces[f"xy{pool_size}"], traces[f"t{pool_size}"],
                            hour=int(hours[-1]), holiday=bool(holidays[-1]),
                            request_id="prime")
    # The whole schedule is offered concurrently in both phases (same
    # offered load; capacity is the variable), and one executor serves
    # both so thread-stack overhead never skews a single phase's delta.
    executor = ThreadPoolExecutor(max_workers=budget["requests"])

    def replay(services):
        """Two timed rounds over the schedule (round 1 shifts every trace
        2 m, past the cache quantization, so it decodes for real); the
        faster round is the phase's wall clock, round 0's responses its
        equivalence transcript."""
        services[0].recover(prime, timeout=600.0)  # warm outside the clock
        responses, elapsed = None, float("inf")
        for round_no in (0, 1):
            start = time.perf_counter()
            futures = [executor.submit(services[i % len(services)].recover,
                                       request_at(i, round_no), 600.0)
                       for i in range(budget["requests"])]
            round_responses = [f.result() for f in futures]
            elapsed = min(elapsed, time.perf_counter() - start)
            if round_no == 0:
                responses = round_responses
        return responses, elapsed

    def rss() -> float:
        """Pinned RSS: collect garbage and hand the allocator's free pages
        back to the OS before sampling, so the phases are compared on the
        memory they actually *hold* (mmap-resident artifact pages, private
        copies, live objects) rather than on glibc's per-thread arena
        high-water marks, which retain freed decode transients
        indefinitely (production tames those with MALLOC_TRIM_THRESHOLD /
        MALLOC_ARENA_MAX; a benchmark gate must not hinge on them)."""
        gc.collect()
        try:
            import ctypes
            ctypes.CDLL("libc.so.6").malloc_trim(0)
        except Exception:
            pass  # non-glibc: arena slack stays in both phases alike
        return profile.memory_snapshot()["rss_mb"]

    closers = []
    try:
        # One-time process costs — lazy imports, numpy scratch pools,
        # thread machinery, and above all the allocator's high-water mark
        # for N replicas' transient decode state (glibc arenas never
        # shrink back) — are paid by a throwaway clone of phase 1 that is
        # torn down again BEFORE the baseline RSS sample.  What the two
        # measured phases then add on top is the *resident structures*:
        # mmap-backed pages once vs private copies per replica.
        warm_art = CityArtifacts.load(str(tmp_path / "city"), mmap=True)
        warm_reg = ModelRegistry(artifacts=warm_art)
        warm_reg.register_artifact_model("default", activate=True)
        warm_svcs = [RecoveryService(warm_reg, ServeConfig(**serve_kwargs))
                     for _ in range(budget["replicas"])]
        try:
            replay(warm_svcs)
        finally:
            for service in warm_svcs:
                service.close()
        del warm_svcs, warm_reg, warm_art

        rss0 = rss()

        # Phase 1 — the PR's serving shape: ONE mmap-loaded artifact set,
        # one registry, N replica services over it (Shard semantics).
        started = time.perf_counter()
        shared = CityArtifacts.load(str(tmp_path / "city"), mmap=True)
        registry = ModelRegistry(artifacts=shared)
        registry.register_artifact_model("default", activate=True)
        replicas = [RecoveryService(registry, ServeConfig(**serve_kwargs))
                    for _ in range(budget["replicas"])]
        closers.extend(replicas)
        shared_startup = time.perf_counter() - started
        shared_responses, shared_elapsed = replay(replicas)
        rss1 = rss()

        # Phase 2 — the pre-PR baseline unit: ONE replica over private
        # in-memory copies of the same frozen state (mmap=False), stacked
        # on top so rss2-rss1 isolates exactly one such replica.  N
        # baseline replicas would cost ~N times this delta.
        started = time.perf_counter()
        private = CityArtifacts.load(str(tmp_path / "city"), mmap=False)
        baseline_registry = ModelRegistry(artifacts=private)
        baseline_registry.register_artifact_model("default", activate=True)
        baseline = RecoveryService(baseline_registry, ServeConfig(**serve_kwargs))
        closers.append(baseline)
        baseline_startup = time.perf_counter() - started
        baseline_responses, baseline_elapsed = replay([baseline])
        rss2 = rss()
    finally:
        for service in closers:
            service.close()
        executor.shutdown(wait=False)

    # Bit-identity: the shared mmap stack and the private copy stack must
    # produce exactly the same recoveries for the whole schedule.
    for ours, theirs in zip(shared_responses, baseline_responses):
        assert np.array_equal(ours.trajectory.segments, theirs.trajectory.segments)
        assert np.array_equal(np.asarray(ours.trajectory.ratios),
                              np.asarray(theirs.trajectory.ratios))
        assert np.array_equal(ours.trajectory.times, theirs.trajectory.times)

    shared_delta = max(rss1 - rss0, 0.0)
    baseline_delta = max(rss2 - rss1, 1e-6)
    rss_ratio = shared_delta / baseline_delta
    shared_qps = budget["requests"] / shared_elapsed
    baseline_qps = budget["requests"] / baseline_elapsed
    qps_ratio = shared_qps / baseline_qps
    segments = registry.network.num_segments

    print(f"\nMemory scaling — {segments} segments, "
          f"{budget['replicas']} shared replicas vs 1 in-memory replica")
    print(f"  shared   : +{shared_delta:.1f} MiB, {shared_qps:.2f} QPS, "
          f"startup {shared_startup:.2f}s (mmap)")
    print(f"  in-memory: +{baseline_delta:.1f} MiB, {baseline_qps:.2f} QPS, "
          f"startup {baseline_startup:.2f}s (private copies)")
    print(f"  RSS ratio {rss_ratio:.2f}x (gate <= {budget['max_rss_ratio']}x; "
          f"naive {budget['replicas']}x replication ~"
          f"{budget['replicas'] * baseline_delta:.0f} MiB), "
          f"QPS ratio {qps_ratio:.2f}x (gate >= {budget['min_qps_ratio']}x)")

    cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", "benchmarks/_cache"))
    cache_dir.mkdir(parents=True, exist_ok=True)
    artifact_path = cache_dir / ARTIFACT_NAME
    payload = (json.loads(artifact_path.read_text())
               if artifact_path.exists() else {"benchmark": "cluster"})
    payload["memory"] = {
        "city_segments": segments,
        "replicas": budget["replicas"],
        "requests": budget["requests"],
        "workload": {k: budget[k] for k in ("block", "trajectories", "hidden")},
        "shared": {"rss_delta_mb": round(shared_delta, 1),
                   "qps": round(shared_qps, 3),
                   "startup_seconds": round(shared_startup, 3)},
        "inmemory": {"rss_delta_mb": round(baseline_delta, 1),
                     "qps": round(baseline_qps, 3),
                     "startup_seconds": round(baseline_startup, 3)},
        "naive_replication_rss_mb": round(
            budget["replicas"] * baseline_delta, 1),
        "rss_ratio": round(rss_ratio, 3),
        "qps_ratio": round(qps_ratio, 3),
        "max_rss_ratio": budget["max_rss_ratio"],
        "min_qps_ratio": budget["min_qps_ratio"],
        "cpu_count": os.cpu_count() or 1,
        "bit_identical": True,
        "content_digest": shared.content_digest,
    }
    artifact_path.write_text(json.dumps(payload, indent=1))
    print(f"wrote memory section to {artifact_path}")

    assert rss_ratio <= budget["max_rss_ratio"], (
        f"{budget['replicas']} shared replicas cost {rss_ratio:.2f}x one "
        f"in-memory replica (need <= {budget['max_rss_ratio']}x)")
    assert qps_ratio >= budget["min_qps_ratio"], (
        f"shared replicas only {qps_ratio:.2f}x the in-memory replica's "
        f"throughput (need >= {budget['min_qps_ratio']}x)")


# ---------------------------------------------------------------------------
# Scenario 4: process workers vs in-process replica threads (the GIL wall)
# ---------------------------------------------------------------------------
def _proc_budget():
    env = os.environ.get
    cores = os.cpu_count() or 1
    # The whole point of the process backend is multi-core decode, so the
    # throughput floor scales with the hardware: >= 2x at 4 workers on a
    # >= 4-core box, modest parallelism on 2 cores, and bare parity-minus-
    # IPC-tax (the scenario-1 steady-state caveat in reverse) on one core.
    default_qps = 2.0 if cores >= 4 else (1.2 if cores >= 2 else 0.9)
    return {
        "workers": int(env("REPRO_BENCH_CLUSTER_PROC_WORKERS", 4)),
        "requests": int(env("REPRO_BENCH_CLUSTER_PROC_REQUESTS", 48)),
        "trajectories": int(env("REPRO_BENCH_CLUSTER_PROC_TRAJECTORIES", 24)),
        # Same ~10x-|V| city as the memory scenario: at block=125 the
        # artifacts are a couple of MiB and the sharing gate would be
        # measuring interpreter noise.
        "block": float(env("REPRO_BENCH_CLUSTER_PROC_BLOCK", 40.0)),
        "hidden": int(env("REPRO_BENCH_CLUSTER_PROC_HIDDEN", 32)),
        "min_qps_ratio": float(env("REPRO_BENCH_CLUSTER_PROC_MIN_QPS_RATIO",
                                   default_qps)),
        "max_marginal_ratio": float(
            env("REPRO_BENCH_CLUSTER_PROC_MAX_MARGINAL_RATIO", 0.6)),
    }


def test_process_backend_scaling(tmp_path):
    """N forked workers over ONE mmap'd artifact set vs N in-process
    replica threads: bit-identical responses, aggregate QPS >=
    ``min_qps_ratio`` x inproc (hardware-scaled — the 1-core dev box can
    only assert the IPC tax is small), and a marginal memory gate: each
    worker past the first costs <= ``max_marginal_ratio`` x what a
    PRIVATE-loading (``mmap=False``) single worker weighs.  Fork-dirtied
    interpreter pages (~15-25 MiB/worker of refcount writes) make any
    total-tree-vs-one-worker ratio fail regardless of artifact sharing,
    so the gate targets the one quantity sharing actually controls: the
    incremental worker.  With mmap'd artifacts it sits around 0.4x the
    private replica; if loading regressed to private copies it would be
    ~1.0x."""
    budget = _proc_budget()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.update(REPRO_MEM_OUT=str(tmp_path),
               REPRO_MEM_BLOCK=str(budget["block"]),
               REPRO_MEM_HIDDEN=str(budget["hidden"]),
               REPRO_MEM_TRAJECTORIES=str(budget["trajectories"]))
    subprocess.run([sys.executable, "-c", _MEM_BUILDER], env=env, check=True)

    traces = np.load(tmp_path / "traces.npz")
    hours, holidays = traces["hours"], traces["holidays"]
    pool_size = max(len(hours) - 1, 1)

    def request_at(index, round_no=0):
        k = index % pool_size
        # Repeats are jittered by WHOLE meters: the sub-graph generator
        # memoizes per point at 1 m quantization, so a sub-meter twin
        # reuses whichever stack-mate's exact-coordinate sub-graph seeded
        # the bucket — replica-shared on inproc, worker-private on
        # process — and the transcripts drift ~1e-5 for cache-topology
        # reasons, not IPC ones.  Integer shifts always land in fresh
        # buckets, so every backend computes every sub-graph exactly and
        # bit-identity is a statement about the wire, as intended.  The
        # odd 3 m round stride keeps round 1's keys disjoint from every
        # round-0 repeat (even strides) — round 1 must decode, not hit
        # the result cache.
        jitter = 2.0 * (index // pool_size) + 3.0 * round_no
        return RecoveryRequest(traces[f"xy{k}"] + jitter, traces[f"t{k}"],
                               hour=int(hours[k]), holiday=bool(holidays[k]),
                               request_id=f"p{round_no}.{index}")

    spec = get_spec("chengdu")
    serve = dict(interval=spec.simulation.sample_interval,
                 beta=spec.dataset.beta,
                 max_gps_error=spec.dataset.max_gps_error,
                 max_batch_size=8, cache_capacity=16)

    def build_shard(backend, replicas):
        shard_spec = ShardSpec(name="city", bbox=(0.0, 0.0, 1.0, 1.0),
                               replicas=replicas, backend=backend,
                               max_inflight=max(budget["requests"], 64))
        return Shard(shard_spec, serve_overrides=serve,
                     artifact_dir=str(tmp_path))

    def replay(shard):
        """Two timed offered-load rounds (round 1 shifts traces past the
        cache quantization); min wall clock, round-0 transcript."""
        shard.submit(request_at(0)).result(timeout=600.0)  # warm the clock out
        responses, elapsed = None, float("inf")
        for round_no in (0, 1):
            start = time.perf_counter()
            futures = [shard.submit(request_at(i, round_no))
                       for i in range(budget["requests"])]
            round_responses = [f.result(timeout=600.0) for f in futures]
            elapsed = min(elapsed, time.perf_counter() - start)
            if round_no == 0:
                responses = round_responses
        return responses, elapsed

    def worker_tree_mb(pids):
        """(MiB, "pss"|"rss") across the worker pids — PSS preferred so
        mmap/fork-shared pages are charged once across the tree."""
        pss = [profile.proc_pss_mb(pid) for pid in pids]
        if all(p is not None for p in pss):
            return sum(pss), "pss"
        return sum(profile.proc_rss_mb(pid) for pid in pids), "rss"

    workers = budget["workers"]
    inproc = build_shard("inproc", workers)
    try:
        inproc.warm()
        inproc_responses, inproc_elapsed = replay(inproc)
        assert inproc.artifact_info()["source"] == "loaded"
    finally:
        inproc.close()

    proc = build_shard("process", workers)
    try:
        proc.warm()
        assert proc.artifact_info()["source"] == "loaded"
        proc_responses, proc_elapsed = replay(proc)
        tree_n_mb, metric = worker_tree_mb(proc.worker_pids())
        stats = proc.stats()
    finally:
        proc.close()

    solo = build_shard("process", 1)
    try:
        solo.warm()
        _, solo_elapsed = replay(solo)
        tree_1_mb, _ = worker_tree_mb(solo.worker_pids())
    finally:
        solo.close()

    # Memory baseline: ONE worker that loads the artifacts PRIVATELY
    # (mmap=False — every array materialized in its own heap).  This is
    # what each replica would cost without sharing, so it denominates
    # the marginal-cost gate below.
    def private_factory():
        artifacts = CityArtifacts.load(str(tmp_path / "city"), mmap=False)
        registry = ModelRegistry(artifacts=artifacts)
        registry.register_artifact_model("default", activate=True)
        return RecoveryService(registry, ServeConfig(**serve), shard="city")

    private_pool = WorkerPool(private_factory, workers=1, label="city-priv")
    try:
        private_pool.start()
        for i in range(budget["requests"]):
            private_pool.submit_to(0, request_at(i)).result(timeout=600.0)
        private_single_mb, _ = worker_tree_mb(private_pool.pids())
    finally:
        private_pool.close(drain=False)

    # Bit-identity across backends: IPC framing must be lossless and the
    # worker stack must decode exactly what the in-process stack decodes.
    for ours, theirs in zip(proc_responses, inproc_responses):
        assert np.array_equal(ours.trajectory.segments,
                              theirs.trajectory.segments)
        assert np.array_equal(np.asarray(ours.trajectory.ratios),
                              np.asarray(theirs.trajectory.ratios))
        assert np.array_equal(ours.trajectory.times, theirs.trajectory.times)
    assert stats["crashes"] == 0 and not stats["degraded"]

    inproc_qps = budget["requests"] / inproc_elapsed
    proc_qps = budget["requests"] / proc_elapsed
    solo_qps = budget["requests"] / solo_elapsed
    qps_ratio = proc_qps / inproc_qps
    mem_ratio = tree_n_mb / max(tree_1_mb, 1e-6)
    marginal_worker_mb = (tree_n_mb - tree_1_mb) / max(workers - 1, 1)
    marginal_ratio = marginal_worker_mb / max(private_single_mb, 1e-6)

    # IPC codec microbench: the raw struct+ndarray hot-path frames vs
    # pickling the same dataclasses (what a naive pipe protocol would do).
    import pickle

    probe_request = request_at(0)
    probe_response = proc_responses[0]
    raw_request = encode_request(1, probe_request)
    raw_response = encode_response(1, probe_response)

    def per_op_us(fn, repeats=2000):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return 1e6 * (time.perf_counter() - start) / repeats

    ipc = {
        "request_bytes_raw": len(raw_request),
        "request_bytes_pickle": len(pickle.dumps(probe_request, protocol=5)),
        "response_bytes_raw": len(raw_response),
        "response_bytes_pickle": len(pickle.dumps(probe_response, protocol=5)),
        "request_roundtrip_us_raw": round(per_op_us(
            lambda: decode_request(encode_request(1, probe_request))), 3),
        "request_roundtrip_us_pickle": round(per_op_us(
            lambda: pickle.loads(pickle.dumps(probe_request, protocol=5))), 3),
        "response_roundtrip_us_raw": round(per_op_us(
            lambda: decode_response(encode_response(1, probe_response),
                                    "city", 0.0)), 3),
        "response_roundtrip_us_pickle": round(per_op_us(
            lambda: pickle.loads(pickle.dumps(probe_response, protocol=5))), 3),
    }

    cores = os.cpu_count() or 1
    print(f"\nProcess backend — {workers} workers on {cores} core(s), "
          f"{budget['requests']} offered requests")
    print(f"  inproc {workers} threads : {inproc_qps:.2f} QPS")
    print(f"  process {workers} workers: {proc_qps:.2f} QPS "
          f"({qps_ratio:.2f}x, gate >= {budget['min_qps_ratio']}x)")
    print(f"  process 1 worker : {solo_qps:.2f} QPS")
    print(f"  worker tree {metric}: {tree_n_mb:.1f} MiB ({workers} workers) "
          f"vs {tree_1_mb:.1f} MiB (1 mmap) vs {private_single_mb:.1f} MiB "
          f"(1 private)")
    print(f"  marginal worker   : {marginal_worker_mb:.1f} MiB = "
          f"{marginal_ratio:.2f}x a private replica "
          f"(gate <= {budget['max_marginal_ratio']}x)")
    print(f"  ipc: request {ipc['request_roundtrip_us_raw']}us raw vs "
          f"{ipc['request_roundtrip_us_pickle']}us pickle; response "
          f"{ipc['response_roundtrip_us_raw']}us raw vs "
          f"{ipc['response_roundtrip_us_pickle']}us pickle")

    cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", "benchmarks/_cache"))
    cache_dir.mkdir(parents=True, exist_ok=True)
    artifact_path = cache_dir / ARTIFACT_NAME
    payload = (json.loads(artifact_path.read_text())
               if artifact_path.exists() else {"benchmark": "cluster"})
    payload["env"] = bench_environment()
    payload["process_backend"] = {
        "workers": workers,
        "requests": budget["requests"],
        "workload": {k: budget[k] for k in ("block", "trajectories", "hidden")},
        "inproc_qps": round(inproc_qps, 3),
        "process_qps": round(proc_qps, 3),
        "process_solo_qps": round(solo_qps, 3),
        "qps_ratio": round(qps_ratio, 3),
        "min_qps_ratio": budget["min_qps_ratio"],
        "memory_metric": metric,
        "worker_tree_mb": round(tree_n_mb, 1),
        "single_worker_mb": round(tree_1_mb, 1),
        "private_single_mb": round(private_single_mb, 1),
        "naive_replication_mb": round(workers * private_single_mb, 1),
        "memory_ratio_vs_one_worker": round(mem_ratio, 3),
        "marginal_worker_mb": round(marginal_worker_mb, 1),
        "marginal_ratio_vs_private": round(marginal_ratio, 3),
        "max_marginal_ratio": budget["max_marginal_ratio"],
        "cpu_count": cores,
        "bit_identical": True,
    }
    payload["ipc"] = ipc
    artifact_path.write_text(json.dumps(payload, indent=1))
    print(f"wrote process-backend section to {artifact_path}")

    assert qps_ratio >= budget["min_qps_ratio"], (
        f"process backend only {qps_ratio:.2f}x the inproc replicas "
        f"(need >= {budget['min_qps_ratio']}x on {cores} core(s))")
    if workers > 1:
        assert marginal_ratio <= budget["max_marginal_ratio"], (
            f"each extra worker costs {marginal_worker_mb:.1f} MiB {metric} "
            f"= {marginal_ratio:.2f}x a private-loading replica "
            f"({private_single_mb:.1f} MiB; need <= "
            f"{budget['max_marginal_ratio']}x — mmap'd artifacts should "
            f"make additional workers far cheaper than private copies)")
