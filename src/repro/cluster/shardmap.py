"""Shard topology: which city lives where in the global frame.

A cluster serves several road networks behind one front door.  Each
:class:`ShardSpec` places one city (a `repro.datasets` recipe or an
explicitly bounded custom network) at an ``origin`` in a shared global
coordinate frame and says how it is served: which model bundle, which
backend (one in-process service or N worker processes), how much
in-flight work it admits before shedding.  A :class:`ShardMap` is the
full topology plus the serving overrides every shard shares, and is what
the ``scripts/serve.py cluster`` entrypoint loads from a TOML or JSON
file — see ``docs/cluster.md`` for the file format.

Shard bounding boxes must be disjoint: the router resolves a trace to at
most one shard, and an ambiguous map is a configuration error, not a
runtime condition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..datasets.registry import get_spec
from ..serve.service import ServeConfig

try:  # Python >= 3.11; JSON maps remain fully supported without it.
    import tomllib
except ModuleNotFoundError:  # pragma: no cover
    tomllib = None

#: Default slack added around a city's nominal rectangle so GPS fixes with
#: realistic noise (σ ≈ 12-15 m in the dataset recipes) still route home.
DEFAULT_MARGIN = 60.0

BBox = Tuple[float, float, float, float]


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a city placed in the global frame plus serving knobs.

    ``dataset`` names a `repro.datasets` recipe; the shard's road network
    is rebuilt deterministically from it on first use (lazy warm-up).  A
    shard serving a custom network instead (e.g. a merged multi-district
    baseline) sets ``dataset=None`` and provides an explicit ``bbox`` —
    its network then comes from the cluster's ``network_factory``.
    """

    name: str
    dataset: Optional[str] = None
    origin: Tuple[float, float] = (0.0, 0.0)
    bundle: Optional[str] = None      # checkpoint prefix (see save_model_bundle)
    replicas: int = 1                 # worker processes; 1 for "inproc"
    max_inflight: int = 32            # per-replica admission bound
    margin: float = DEFAULT_MARGIN    # bbox slack around the city rectangle
    bbox: Optional[BBox] = None       # explicit global bbox (overrides derived)
    # "inproc": one RecoveryService (one scheduler thread) in this process.
    # "process": replicas are forked worker processes (repro.cluster.workers)
    # — true multi-core decode throughput; see docs/cluster.md.
    backend: str = "inproc"
    # Per-request wall-clock bound for process workers (seconds); a worker
    # exceeding it is killed and respawned and the future fails with a
    # typed WorkerTimeout.  0 disables the watchdog.  Ignored for inproc.
    worker_timeout: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a shard needs a non-empty name")
        if self.replicas < 1:
            raise ValueError(f"shard {self.name!r}: replicas must be >= 1")
        if self.max_inflight < 1:
            raise ValueError(f"shard {self.name!r}: max_inflight must be >= 1")
        if self.backend not in ("inproc", "process"):
            raise ValueError(
                f"shard {self.name!r}: backend must be 'inproc' or "
                f"'process'; got {self.backend!r}")
        if self.backend == "inproc" and self.replicas != 1:
            # A second scheduler thread under one GIL interleaves decodes
            # side by side, which is slower than one scheduler stepping
            # them in earliest-solo-finish order.
            raise ValueError(
                f"shard {self.name!r}: an in-process shard is one service "
                f"(replicas=1); got replicas={self.replicas}, use "
                "backend='process' for more replicas")
        if self.worker_timeout < 0:
            raise ValueError(
                f"shard {self.name!r}: worker_timeout must be >= 0")
        if self.dataset is None and self.bbox is None:
            raise ValueError(
                f"shard {self.name!r} needs a dataset name or an explicit bbox")
        object.__setattr__(self, "origin",
                           (float(self.origin[0]), float(self.origin[1])))
        if self.bbox is not None:
            x0, y0, x1, y1 = (float(v) for v in self.bbox)
            if x0 >= x1 or y0 >= y1:
                raise ValueError(f"shard {self.name!r}: degenerate bbox {self.bbox}")
            object.__setattr__(self, "bbox", (x0, y0, x1, y1))

    def resolved_bbox(self) -> BBox:
        """Global-frame bounding box this shard owns.

        Derived from the dataset's city rectangle plus ``margin`` unless
        an explicit ``bbox`` was given.  Known before the network is
        materialized, so routing works against cold shards.
        """
        if self.bbox is not None:
            return self.bbox
        city = get_spec(self.dataset).city
        ox, oy = self.origin
        return (ox - self.margin, oy - self.margin,
                ox + city.width + self.margin, oy + city.height + self.margin)


def _boxes_overlap(a: BBox, b: BBox) -> bool:
    return not (a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1])


@dataclass(frozen=True)
class ShardMap:
    """The full cluster topology plus the serving overrides every shard
    shares.

    ``serve`` holds :class:`~repro.serve.ServeConfig` overrides applied to
    every shard (e.g. ``cache_capacity``); per-dataset ingest parameters
    (ε_ρ interval, β, GPS error radius) still come from each shard's own
    dataset spec.
    """

    shards: Tuple[ShardSpec, ...]
    serve: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", tuple(self.shards))
        if not self.shards:
            raise ValueError("a shard map needs at least one shard")
        names = [shard.name for shard in self.shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names in map: {sorted(names)}")
        # Fail at construction, not on first lazy warm-up mid-traffic.
        unknown = set(self.serve) - set(ServeConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown serve override keys {sorted(unknown)}; valid: "
                f"{sorted(ServeConfig.__dataclass_fields__)}")
        boxes = [(shard.name, shard.resolved_bbox()) for shard in self.shards]
        for i, (name_a, box_a) in enumerate(boxes):
            for name_b, box_b in boxes[i + 1:]:
                if _boxes_overlap(box_a, box_b):
                    raise ValueError(
                        f"shards {name_a!r} and {name_b!r} have overlapping "
                        f"bounding boxes {box_a} / {box_b}; routing must be "
                        "unambiguous")

    def names(self) -> List[str]:
        return [shard.name for shard in self.shards]

    def __iter__(self):
        return iter(self.shards)


def side_by_side(datasets: Sequence[str], gap: float = 500.0,
                 **shard_kwargs) -> ShardMap:
    """A shard map laying the named cities out left to right.

    Origins are computed from each city's width plus ``gap`` meters of
    empty corridor, so the bounding boxes can never overlap.  Repeated
    dataset names get ``-2``, ``-3`` … suffixes.
    """
    if gap <= 2 * shard_kwargs.get("margin", DEFAULT_MARGIN):
        raise ValueError("gap must exceed twice the bbox margin")
    shards: List[ShardSpec] = []
    seen: Dict[str, int] = {}
    x = 0.0
    for dataset in datasets:
        seen[dataset] = seen.get(dataset, 0) + 1
        name = dataset if seen[dataset] == 1 else f"{dataset}-{seen[dataset]}"
        shards.append(ShardSpec(name=name, dataset=dataset, origin=(x, 0.0),
                                **shard_kwargs))
        x += get_spec(dataset).city.width + gap
    return ShardMap(shards=tuple(shards))


def _parse_payload(payload: Dict[str, Any], source: str) -> ShardMap:
    unknown = set(payload) - {"serve", "shard", "shards"}
    if unknown:
        raise ValueError(f"{source}: unknown top-level keys {sorted(unknown)}; "
                         "valid: ['serve', 'shard', 'shards']")
    serve = dict(payload.get("serve", {}))
    raw_shards = payload.get("shard", payload.get("shards"))
    if not raw_shards:
        raise ValueError(f"{source}: no [[shard]] entries / 'shards' list")
    known = set(ShardSpec.__dataclass_fields__)
    shards = []
    for entry in raw_shards:
        unknown = set(entry) - known
        if unknown:
            raise ValueError(f"{source}: unknown shard keys {sorted(unknown)}")
        entry = dict(entry)
        if "origin" in entry:
            entry["origin"] = tuple(entry["origin"])
        if "bbox" in entry and entry["bbox"] is not None:
            entry["bbox"] = tuple(entry["bbox"])
        shards.append(ShardSpec(**entry))
    return ShardMap(shards=tuple(shards), serve=serve)


def load_shard_map(path: str) -> ShardMap:
    """Parse a shard-map file (``.toml`` or ``.json``) into a ShardMap.

    See ``docs/cluster.md`` for the schema; ``examples/cluster_demo.py``
    builds the same structure in code via :func:`side_by_side`.
    """
    file = Path(path)
    text = file.read_text(encoding="utf-8")
    if file.suffix.lower() == ".toml":
        if tomllib is None:  # pragma: no cover
            raise RuntimeError("TOML shard maps need Python >= 3.11; use JSON")
        payload = tomllib.loads(text)
    else:
        payload = json.loads(text)
    return _parse_payload(payload, source=str(path))
