"""``repro.cluster`` — sharded multi-city recovery serving.

One :class:`RecoveryCluster` front door over many per-city
:class:`~repro.serve.RecoveryService` shards: a grid-backed
:class:`ShardRouter` resolves each global-frame trace to the shard owning
its region (dead-lettering traces that straddle shards or fall outside
all of them), each :class:`Shard` lazily materializes its road network
and model replicas, admits bounded in-flight work (shedding with
:class:`ShardOverloaded` under overload), and one city's model can be
hot-swapped without touching siblings.  Topologies come from a
:class:`ShardMap` (in code, or a TOML/JSON file via
:func:`load_shard_map`).

See ``docs/cluster.md`` for topology, shard-map format and the operator
runbook; ``scripts/serve.py cluster`` and ``examples/cluster_demo.py``
are the runnable entries, and the perf ledger (``benchmarks/ledger/``)
measures a cluster's serving cost end to end.
"""

from .cluster import ClusterResult, RecoveryCluster
from .router import RouteError, ShardRouter
from .shard import Shard, ShardOverloaded
from .shardmap import ShardMap, ShardSpec, load_shard_map, side_by_side
from .telemetry import ClusterTelemetry
from .workers import (
    BackendDegraded,
    StreamingUnsupported,
    WorkerCrashed,
    WorkerError,
    WorkerPool,
    WorkerTimeout,
)

__all__ = [
    "ClusterResult",
    "RecoveryCluster",
    "RouteError",
    "ShardRouter",
    "Shard",
    "ShardOverloaded",
    "ShardMap",
    "ShardSpec",
    "load_shard_map",
    "side_by_side",
    "ClusterTelemetry",
    "BackendDegraded",
    "StreamingUnsupported",
    "WorkerCrashed",
    "WorkerError",
    "WorkerPool",
    "WorkerTimeout",
]
