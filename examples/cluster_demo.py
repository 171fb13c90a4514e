"""Sharded multi-city serving demo: two cities, one front door.

    PYTHONPATH=src python examples/cluster_demo.py

End to end this

1. lays Chengdu and Porto side by side in a global frame
   (:func:`repro.cluster.side_by_side`) and builds a
   :class:`~repro.cluster.RecoveryCluster` over them — shards start
   *cold* (spec-only) and each trains a small model lazily on its first
   routed request;
2. replays held-out traces from both cities concurrently — the router
   sends each to its owning shard, which answers repeats from its result
   cache and schedules the rest on a :class:`~repro.serve.RecoveryService`;
3. shows the cluster-only failure modes: a trace outside every shard and
   a trace straddling the two cities are **dead-lettered**, never served
   by the wrong city's model;
4. drives one shard past its admission bound and shows 429-style load
   shedding (``ShardOverloaded``) instead of unbounded queueing;
5. hot-swaps a new model generation onto Chengdu only and shows the
   response ``model_tag`` flip there while Porto keeps serving its
   original generation — from a still-warm cache;
6. prints the rolled-up ``cluster.stats()`` snapshot.
"""

import time

import numpy as np

from repro.cluster import RecoveryCluster, ShardMap, ShardSpec, side_by_side
from repro.core import RNTrajRec
from repro.train import Trainer
from repro.datasets import load_dataset
from repro.experiments import quick_train_config, small_model_config
from repro.serve import RecoveryRequest

TRAJECTORIES = 120
EPOCHS = 2
REQUESTS_PER_CITY = 8


def quick_train_factory(spec, network):
    data = load_dataset(spec.dataset, num_trajectories=TRAJECTORIES)
    model = RNTrajRec(network, small_model_config(32))
    print(f"  [{spec.name}] lazy warm-up: training "
          f"{model.num_parameters():,} parameters, {EPOCHS} epochs ...")
    Trainer(model, quick_train_config(EPOCHS)).fit(data.train)
    return model.eval()


def city_requests(cluster, name, count):
    """Held-out traces of the shard's dataset, translated into its region
    of the global frame."""
    shard = cluster.shard(name)
    data = load_dataset(shard.spec.dataset, num_trajectories=TRAJECTORIES)
    origin = np.asarray(shard.spec.origin)
    pool = data.test + data.val
    return [
        RecoveryRequest(s.raw_low.xy + origin, s.raw_low.times, hour=s.hour,
                        holiday=s.holiday, request_id=f"{name}-{i}")
        for i, s in enumerate(pool[i % len(pool)] for i in range(count))
    ]


def main() -> None:
    shard_map = side_by_side(["chengdu", "porto"], gap=500.0)
    print(f"Shard map: {shard_map.names()}")
    for spec in shard_map:
        print(f"  {spec.name:<8} origin={spec.origin} bbox={spec.resolved_bbox()}")

    cluster = RecoveryCluster(shard_map, model_factory=quick_train_factory)
    print("Shards start cold:",
          {s.name: s.materialized for s in cluster.shards})

    # ------------------------------------------------------------------
    # Mixed two-city traffic through one front door
    # ------------------------------------------------------------------
    requests = []
    for name in shard_map.names():
        requests.extend(city_requests(cluster, name, REQUESTS_PER_CITY))
    print(f"\nSubmitting {len(requests)} requests across both cities ...")
    start = time.perf_counter()
    results = cluster.recover_many(requests, timeout=600.0)
    elapsed = time.perf_counter() - start
    by_shard = {}
    for result in results:
        assert result.ok, result.error
        by_shard.setdefault(result.shard, []).append(result)
    for name, rs in sorted(by_shard.items()):
        print(f"  {name:<8} {len(rs)} recovered "
              f"(e.g. {rs[0].request_id}: {len(rs[0].response.trajectory)} "
              f"points on tag {rs[0].response.model_tag})")
    print(f"  wall {elapsed:.2f}s — warm-up included (both shards trained "
          "lazily on first routed request)")

    # ------------------------------------------------------------------
    # Routing refusals become dead letters, not wrong-city recoveries
    # ------------------------------------------------------------------
    print("\nUnroutable traffic:")
    chengdu_fix = requests[0].xy[:1]
    porto_fix = requests[REQUESTS_PER_CITY].xy[:1]
    refused = cluster.recover_many([
        RecoveryRequest([[60000.0, 0.0], [60100.0, 0.0]], [0.0, 96.0],
                        request_id="nowhere"),
        RecoveryRequest(np.vstack([chengdu_fix, porto_fix]), [0.0, 96.0],
                        request_id="two-cities"),
    ])
    for result in refused:
        print(f"  {result.request_id}: status={result.status}")
    for letter in cluster.dead_letters():
        print(f"  dead letter: {letter['request_id']!r} [{letter['reason']}] "
              f"{letter['detail']}")

    # ------------------------------------------------------------------
    # Overload: bounded admission sheds instead of queueing
    # ------------------------------------------------------------------
    print("\nOverload (hammering chengdu with admission bound 2):")
    tight_map = ShardMap(shards=tuple(
        ShardSpec(name=s.name, dataset=s.dataset, origin=s.origin,
                  max_inflight=2) for s in shard_map))
    overloaded = RecoveryCluster(
        tight_map,
        model_factory=lambda spec, network:
            cluster.shard(spec.name).registry.load("default"))
    burst = [RecoveryRequest(r.xy + 0.3 * (1 + i), r.times,
                             request_id=f"burst-{i}")
             for i, r in enumerate([requests[0]] * 12)]
    outcomes = [r.status for r in overloaded.recover_many(burst, timeout=600.0)]
    print(f"  {outcomes.count('ok')} served, {outcomes.count('shed')} shed "
          f"(shed rate {outcomes.count('shed') / len(outcomes):.2f})")
    overloaded.close()

    # ------------------------------------------------------------------
    # Hot swap one city; the sibling's cache stays warm
    # ------------------------------------------------------------------
    print("\nRolling a new model generation onto chengdu only ...")
    replacement = RNTrajRec(cluster.shard("chengdu").network,
                            small_model_config(32)).eval()
    print("  deployed:", cluster.deploy_model("chengdu", "v2", replacement))
    after_chengdu = cluster.recover(requests[0], timeout=600.0)
    after_porto = cluster.recover(requests[REQUESTS_PER_CITY], timeout=600.0)
    print(f"  chengdu now serves tag {after_chengdu.model_tag} "
          f"(cached={after_chengdu.cached} — its cache was invalidated)")
    print(f"  porto   still serves tag {after_porto.model_tag} "
          f"(cached={after_porto.cached} — untouched by the sibling swap)")
    if after_porto.model_tag != "default#1" or not after_porto.cached:
        raise SystemExit("FAIL: sibling shard was disturbed by the hot swap")

    # ------------------------------------------------------------------
    stats = cluster.stats()
    print("\ncluster.stats() rollup:")
    print(f"  cluster: {stats['cluster']}")
    print(f"  router : {stats['router']}")
    for name, shard_stats in stats["shards"].items():
        print(f"  {name:<8} requests={shard_stats['requests']} "
              f"hit_rate={shard_stats['cache_hit_rate']} "
              f"by_model={shard_stats['requests_by_model']}")
    cluster.close()


if __name__ == "__main__":
    main()
