"""Serving CLI for the RNTrajRec recovery service (stdlib + repro only).

Four subcommands:

``train``    train a model on a registry dataset and save a versioned
             serving bundle (checkpoint ``.npz`` + config ``.json`` with a
             ``train`` provenance section)::

                 PYTHONPATH=src python scripts/serve.py train \
                     --dataset chengdu --epochs 5 --out runs/chengdu_model

             Production knobs (see docs/training.md): ``--workers 4``
             shards each batch across gradient workers, ``--schedule
             cosine --warmup-epochs 2`` picks the LR schedule,
             ``--resume runs/chengdu_state`` checkpoints every epoch into
             a resumable train-state archive (and resumes from it when it
             already exists).  ``--register http://host:port --shard
             chengdu`` completes the train→deploy path by hot-deploying
             the fresh bundle into a running ``cluster`` front door.

``oneshot``  start a service from a bundle (training a quick model first if
             no bundle is given), replay test-split traces as concurrent
             requests, and print per-request results plus ``stats()``::

                 PYTHONPATH=src python scripts/serve.py oneshot \
                     --dataset chengdu --bundle runs/chengdu_model --requests 20

``http``     expose the service over the bounded HTTP/1.0 front door::

                 PYTHONPATH=src python scripts/serve.py http \
                     --dataset chengdu --bundle runs/chengdu_model --port 8008

             With ``--bundle`` the server starts on the light path: only
             the road network and dataset spec are rebuilt (via
             ``get_spec``/``generate_city``) — no trajectory simulation or
             sample building.  Adding ``--artifact-dir DIR`` freezes the
             city into ``DIR/<dataset>`` on first start and mmap-loads the
             frozen bundle (network, grid sequences, k-hop closure,
             weights, X_road) zero-copy on every later start; the startup
             log says which path was taken (``built`` vs ``loaded``).  A
             directory frozen by an older format is rebuilt in place.

             Endpoints: ``POST /recover`` with a JSON body
             ``{"points": [[x, y], ...], "times": [...], "hour": 12,
             "holiday": false}``; ``GET /stats``; ``GET /healthz``.

             Streaming sessions (``repro.stream``, see docs/streaming.md):
             ``POST /session/open`` ``{"hour", "holiday"}`` →
             ``{"session_id"}``; ``POST /session/append``
             ``{"session_id", "points", "times"}`` streams back the
             current best recovery (``revised_from`` flags suffix
             revisions); ``POST /session/finalize`` ``{"session_id"}``
             returns the exact one-shot-equivalent result and closes the
             session; ``GET /session/evictions`` lists recent TTL/LRU
             evictions (session stores are bounded; a full store answers
             ``/session/open`` with 429).

``cluster``  multi-city sharded serving behind one HTTP front door, driven
             by a TOML/JSON shard-map file (see docs/cluster.md) or a
             quick ``--datasets`` list (each city trains a small model at
             startup)::

                 PYTHONPATH=src python scripts/serve.py cluster \
                     --shard-map cluster.toml --warm --port 8018
                 PYTHONPATH=src python scripts/serve.py cluster \
                     --datasets chengdu,porto --epochs 2 --port 8018

             ``--artifact-dir DIR`` gives each shard a frozen-city cache
             (``DIR/<shard>``): first warm builds and saves it, later
             boots mmap-load it so N replicas share one physical copy of
             every immutable structure (see docs/cluster.md).

             Endpoints: ``POST /recover`` (global-frame points; 422 when
             no shard owns the trace, 429 when the owning shard sheds),
             ``GET /stats`` (rolled-up), ``GET /healthz``,
             ``GET /deadletters``, ``POST /swap`` ``{"shard", "model"}``,
             and ``POST /register`` ``{"shard", "model", "bundle"}`` to
             hot-deploy one city's new bundle without touching siblings.

The road network is rebuilt deterministically from the dataset name, so a
bundle trained with ``train`` always matches the network ``oneshot``,
``http`` and ``cluster`` reconstruct.
"""

import argparse
import json
import signal
import sys
import time
from dataclasses import replace
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.cluster import (  # noqa: E402
    RecoveryCluster,
    RouteError,
    ShardOverloaded,
    load_shard_map,
    side_by_side,
)
from repro.core import RNTrajRec  # noqa: E402
from repro.datasets import get_spec, load_dataset  # noqa: E402
from repro.experiments import quick_train_config, small_model_config  # noqa: E402
from repro.roadnet import CityArtifacts, generate_city  # noqa: E402
from repro.serve import (  # noqa: E402
    ModelRegistry,
    RecoveryRequest,
    RecoveryService,
    RequestError,
    ServeConfig,
)
from repro.serve.http import (  # noqa: E402
    JsonServer,
    parse_request as _parse_request,  # noqa: F401  (benchmarks/ledger/replay.py)
    recover_route,
    response_payload as _response_payload,
    update_payload,
)
from repro.stream import (  # noqa: E402
    SessionOverloaded,
    StreamConfig,
    StreamingRecoveryService,
    UnknownSession,
)
from repro.train import (  # noqa: E402
    Trainer,
    enable_console_logging,
    fit_and_bundle,
    register_bundle,
)


def train_bundle(args) -> str:
    enable_console_logging()  # epoch records from the quiet-by-default trainer
    data = load_dataset(args.dataset, num_trajectories=args.trajectories)
    model = RNTrajRec(data.network, small_model_config(args.hidden))
    train_config = quick_train_config(
        args.epochs, schedule=args.schedule, warmup_epochs=args.warmup_epochs,
        validate=bool(data.val), log_every=args.log_every)
    mode = (f"{args.workers} gradient workers" if args.workers > 1 else "serial")
    print(f"Training {args.dataset} model ({model.num_parameters():,} parameters, "
          f"{args.epochs} epochs, {args.schedule} schedule, {mode}) ...")
    report = fit_and_bundle(
        model, data.train, args.out, val_samples=data.val, config=train_config,
        num_workers=args.workers, checkpoint=args.resume,
        metadata={"dataset": args.dataset})
    print(f"Saved bundle: {report.checkpoint_path} + {report.config_path} "
          f"(version {report.version})")
    if args.resume:
        print(f"Train state checkpointed to {args.resume} (re-run resumes there)")
    if args.register:
        shard = args.shard or args.dataset
        name = args.model_name or f"{args.dataset}-{report.version}"
        bundle = str(Path(args.out).resolve())
        print(f"Registering bundle on {args.register} "
              f"(shard {shard!r}, model {name!r}) ...")
        active = register_bundle(args.register, shard, name, bundle)
        print(f"Cluster now serves: {active}")
    return args.out


def build_service(args, need_samples: bool = True) -> tuple:
    """(service, loaded dataset or None) for the oneshot/http subcommands.

    With a ``--bundle`` and ``need_samples=False`` (the ``http`` server)
    this takes the light path: only the road network and the dataset spec
    are reconstructed — no trajectory simulation, map matching or sample
    building — which cuts server start time to the city-generation cost.
    """
    common = dict(
        max_batch_size=args.max_batch_size,
        cache_capacity=args.cache_capacity,
    )
    if args.bundle is not None and not need_samples:
        spec = get_spec(args.dataset)
        serve_config = ServeConfig.for_spec(spec, **common)
        artifact_path = (str(Path(args.artifact_dir) / args.dataset)
                         if getattr(args, "artifact_dir", None) else None)
        service = None

        def cold() -> RecoveryService:
            network = generate_city(spec.city)  # deterministic: matches `train`
            print(f"Light startup: network + spec only ({network.num_segments} "
                  "segments, no dataset materialization)")
            return RecoveryService.from_checkpoint(args.bundle, network, serve_config)

        def freeze() -> CityArtifacts:
            nonlocal service
            service = cold()
            _, _, model = service.registry.active_ref()
            return CityArtifacts.build(model.network, model=model)

        if artifact_path is None:
            return cold(), None
        started = time.perf_counter()
        artifacts, source = CityArtifacts.load_or_build(artifact_path, freeze)
        if service is None:
            # Warm start: everything immutable (network CSR, grid sequences,
            # k-hop closure, weights, X_road) comes back as mmap views.
            registry = ModelRegistry(artifacts=artifacts)
            if artifacts.has_model():
                registry.register_artifact_model("default", activate=True)
            else:
                registry.register("default", args.bundle, activate=True)
                registry.load("default")
            service = RecoveryService(registry, serve_config)
        print(f"artifacts {source} at {artifact_path} in "
              f"{time.perf_counter() - started:.2f}s "
              f"({service.registry.network.num_segments} segments)")
        return service, None

    data = load_dataset(args.dataset, num_trajectories=args.trajectories)
    serve_config = ServeConfig.for_dataset(data, **common)
    if args.bundle is None:
        print("No --bundle given; training a quick model in-process ...")
        model = RNTrajRec(data.network, small_model_config(args.hidden))
        Trainer(model, quick_train_config(args.epochs)).fit(data.train)
        model.eval()
        return RecoveryService.from_model(model, serve_config), data
    return RecoveryService.from_checkpoint(args.bundle, data.network, serve_config), data


def run_oneshot(args) -> None:
    service, data = build_service(args)
    try:
        pool = data.test + data.val
        if not pool:
            raise SystemExit("dataset has no held-out trajectories to replay")
        samples = [pool[i % len(pool)] for i in range(args.requests)]
        requests = [
            RecoveryRequest(s.raw_low.xy, s.raw_low.times, hour=s.hour,
                            holiday=s.holiday, request_id=f"req-{i}")
            for i, s in enumerate(samples)
        ]
        print(f"Submitting {len(requests)} concurrent requests ...")
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as pool_:
            futures = list(pool_.map(service.submit, requests))
        responses = [f.result(timeout=300.0) for f in futures]
        elapsed = time.perf_counter() - start

        for response in responses[:5]:
            path = response.trajectory.travel_path()[:8].tolist()
            print(f"  {response.request_id}: {len(response.trajectory)} points, "
                  f"{'cache' if response.cached else 'model'}, "
                  f"{response.latency_ms:.1f} ms, path {path} ...")
        if len(responses) > 5:
            print(f"  ... and {len(responses) - 5} more")
        print(f"Recovered {len(responses)} trajectories in {elapsed:.2f}s")
        print(json.dumps(service.stats(), indent=1))
    finally:
        service.close()


def service_routes(service: RecoveryService,
                   streaming: StreamingRecoveryService) -> dict:
    """Route table of ``serve.py http``: one city, one-shot + sessions."""
    def stats(_):
        payload = service.stats()
        payload["sessions"] = streaming.store.stats()
        return 200, payload

    def session_open(payload):
        session_id = streaming.open(
            session_id=payload.get("session_id"),
            hour=int(payload.get("hour", 12)),
            holiday=bool(payload.get("holiday", False)))
        return 200, {"session_id": session_id}

    def session_append(payload):
        return 200, update_payload(streaming.append(
            str(payload["session_id"]), payload["points"], payload["times"]))

    def session_finalize(payload):
        return 200, _response_payload(
            streaming.finalize(str(payload["session_id"])))

    return {
        ("GET", "/healthz"): lambda _: (200, {"status": "ok"}),
        ("GET", "/stats"): stats,
        ("GET", "/session/evictions"):
            lambda _: (200, {"evictions": streaming.evictions()}),
        ("POST", "/recover"): recover_route(service.recover),
        ("POST", "/session/open"): session_open,
        ("POST", "/session/append"): session_append,
        ("POST", "/session/finalize"): session_finalize,
    }


SERVICE_ERRORS = (
    (SessionOverloaded, 429, None),   # bounded session store sheds
    (UnknownSession, 404, None),      # expired/evicted/finalized
    (RequestError, 400, None),        # ingest rejected the trace/append
    (KeyError, 400, lambda exc: {"error": f"missing field {exc}"}),
    ((TypeError, ValueError), 400, None),
)


def cluster_routes(cluster: RecoveryCluster) -> dict:
    """Route table of ``serve.py cluster``: the multi-city front door."""
    def healthz(_):
        return 200, {"status": "ok", "shards": {
            shard.name: {"materialized": shard.materialized}
            for shard in cluster.shards}}

    def deploy(needed, apply):
        def route(payload):
            missing = [field for field in needed if field not in payload]
            if missing:
                return 400, {"error": f"missing field(s) {missing}"}
            return 200, {"shard": payload["shard"], **apply(payload)}
        return route

    return {
        ("GET", "/healthz"): healthz,
        ("GET", "/stats"): lambda _: (200, cluster.stats()),
        ("GET", "/deadletters"):
            lambda _: (200, {"dead_letters": cluster.dead_letters()}),
        ("POST", "/recover"): recover_route(cluster.recover),
        ("POST", "/swap"): deploy(
            ("shard", "model"),
            lambda p: cluster.swap_model(str(p["shard"]), str(p["model"]))),
        ("POST", "/register"): deploy(
            ("shard", "model", "bundle"),
            lambda p: cluster.deploy_model(
                str(p["shard"]), str(p["model"]), str(p["bundle"]),
                activate=bool(p.get("activate", True)))),
    }


CLUSTER_ERRORS = (
    # no shard owns the trace
    (RouteError, 422, lambda exc: {"error": str(exc), "reason": exc.reason}),
    # bounded queues shed, HTTP-style 429
    (ShardOverloaded, 429, lambda exc: {"error": str(exc), "shard": exc.shard}),
    (RequestError, 400, None),
    (ValueError, 400, None),          # malformed input the parser let through
    (KeyError, 404, None),            # unknown shard/model name
)


def build_cluster(args) -> RecoveryCluster:
    """A RecoveryCluster from ``--shard-map`` (every shard must name its
    bundle — a missing one fails at warm-up instead of silently training
    a throwaway model) or ``--datasets`` (quick-trains one small model
    per city)."""
    if args.shard_map:
        shard_map = load_shard_map(args.shard_map)
    elif args.datasets:
        shard_map = side_by_side([name.strip() for name in
                                  args.datasets.split(",") if name.strip()],
                                 gap=args.gap)
    else:
        raise SystemExit("cluster needs --shard-map or --datasets")
    # CLI slot/cache knobs are defaults; a shard-map [serve] section wins.
    serve = dict(max_batch_size=args.max_batch_size,
                 cache_capacity=args.cache_capacity)
    serve.update(shard_map.serve)
    shard_map = replace(shard_map, serve=serve)
    if getattr(args, "backend", None):
        # The CLI flag overrides every shard: one switch turns a map's
        # thread replicas into forked worker processes (docs/cluster.md,
        # "Execution backends").
        shard_map = replace(shard_map, shards=tuple(
            replace(spec, backend=args.backend) for spec in shard_map))

    def quick_train_factory(spec, network):
        data = load_dataset(spec.dataset, num_trajectories=args.trajectories)
        model = RNTrajRec(network, small_model_config(args.hidden))
        print(f"[{spec.name}] training a quick model "
              f"({model.num_parameters():,} parameters, {args.epochs} epochs)")
        Trainer(model, quick_train_config(args.epochs)).fit(data.train)
        return model.eval()

    # Only the explicit --datasets mode trains in-process; a shard map is
    # a production topology, where a bundle-less shard is a config error.
    factory = quick_train_factory if args.datasets else None
    return RecoveryCluster(shard_map, model_factory=factory,
                           artifact_dir=args.artifact_dir)


def serve_until_interrupted(server: JsonServer) -> None:
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # Ctrl-C, or SIGTERM (see run_cluster)
        pass
    finally:
        server.server_close()


def run_cluster(args) -> None:
    # SIGTERM unwinds through the same ``finally`` as Ctrl-C, so worker
    # processes are reaped; installed before any of them forks.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    cluster = build_cluster(args)
    try:
        names = cluster.shard_map.names()
        if args.warm or args.datasets:
            # Bundle-less shards train on first request otherwise — warming
            # up front-loads that cost.  Bundle-backed maps can stay lazy.
            for name in names:
                print(f"warming shard {name!r} ...")
                cluster.warm([name])
                if args.artifact_dir:
                    info = cluster.shard(name).artifact_info()
                    print(f"[{name}] artifacts {info['source']} in "
                          f"{info['seconds']:.2f}s")
        server = JsonServer((args.host, args.port), cluster_routes(cluster),
                            CLUSTER_ERRORS)
        print(f"Serving {len(names)} shard(s) {names} on "
              f"http://{args.host}:{args.port} (POST /recover /swap /register, "
              "GET /stats /healthz /deadletters); Ctrl-C to stop")
        serve_until_interrupted(server)
    finally:
        cluster.close()
        print(json.dumps(cluster.stats()["cluster"], indent=1))


def run_http(args) -> None:
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    service, _ = build_service(args, need_samples=False)
    # The streaming facade shares the registry (hot swaps reach both
    # traffic classes), the telemetry (one /stats splits them) and the
    # decode slot table (session suffixes join the one-shot ragged batch).
    streaming = StreamingRecoveryService(
        service.registry,
        StreamConfig.from_serve(service.config,
                                commit_horizon=args.commit_horizon,
                                capacity=args.session_capacity,
                                ttl_seconds=args.session_ttl),
        telemetry=service.telemetry, scheduler=service.scheduler)
    try:
        server = JsonServer((args.host, args.port),
                            service_routes(service, streaming), SERVICE_ERRORS)
        print(f"Serving recovery API on http://{args.host}:{args.port} "
              f"(POST /recover /session/open /session/append /session/finalize, "
              f"GET /stats /healthz /session/evictions); Ctrl-C to stop")
        serve_until_interrupted(server)
    finally:
        streaming.close()
        service.close()
        print(json.dumps(service.stats(), indent=1))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", default="chengdu")
        p.add_argument("--trajectories", type=int, default=160)
        p.add_argument("--hidden", type=int, default=32)
        p.add_argument("--epochs", type=int, default=5)

    t = sub.add_parser("train", help="train a model and save a serving bundle")
    common(t)
    t.add_argument("--out", required=True, help="bundle prefix (writes .npz + .json)")
    t.add_argument("--workers", type=int, default=0,
                   help="gradient workers (>1 shards each batch; 0/1 serial)")
    t.add_argument("--schedule", default="constant",
                   choices=("constant", "warmup", "step", "cosine"))
    t.add_argument("--warmup-epochs", type=int, default=0)
    t.add_argument("--resume", default=None, metavar="STATE",
                   help="train-state archive: checkpoint every epoch, resume "
                        "from it when it already exists")
    t.add_argument("--log-every", type=int, default=0,
                   help="log a step record every N steps (0 = epochs only)")
    t.add_argument("--register", default=None, metavar="URL",
                   help="running cluster front door to hot-deploy the bundle to")
    t.add_argument("--shard", default=None,
                   help="target shard name for --register (default: dataset)")
    t.add_argument("--model-name", default=None,
                   help="registered model name (default: dataset-<version>)")

    for name, help_text in (("oneshot", "replay held-out traces as requests"),
                            ("http", "serve a stdlib HTTP JSON API")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--bundle", default=None, help="bundle prefix from `train`")
        p.add_argument("--max-batch-size", type=int, default=16)
        p.add_argument("--cache-capacity", type=int, default=1024)
        if name == "oneshot":
            p.add_argument("--requests", type=int, default=20)
        else:
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("--port", type=int, default=8008)
            p.add_argument("--commit-horizon", type=int, default=8,
                           help="streaming: newest ε_ρ steps kept revisable")
            p.add_argument("--session-capacity", type=int, default=256,
                           help="streaming: max resident sessions")
            p.add_argument("--session-ttl", type=float, default=1800.0,
                           help="streaming: idle session lifetime (seconds)")
            p.add_argument("--artifact-dir", default=None, metavar="DIR",
                           help="city-artifact cache: first start freezes the "
                                "city into DIR/<dataset>, later starts "
                                "mmap-load it zero-copy (needs --bundle)")

    c = sub.add_parser("cluster", help="sharded multi-city HTTP front door")
    c.add_argument("--shard-map", default=None,
                   help="TOML/JSON shard-map file (see docs/cluster.md)")
    c.add_argument("--datasets", default=None,
                   help="comma-separated dataset names laid out side by side "
                        "(quick-trains one model per city)")
    c.add_argument("--gap", type=float, default=500.0,
                   help="corridor between cities in --datasets mode (meters)")
    c.add_argument("--trajectories", type=int, default=160)
    c.add_argument("--hidden", type=int, default=32)
    c.add_argument("--epochs", type=int, default=5)
    c.add_argument("--max-batch-size", type=int, default=16)
    c.add_argument("--cache-capacity", type=int, default=1024)
    c.add_argument("--backend", default=None,
                   choices=("inproc", "process"),
                   help="replica execution backend for every shard: thread "
                        "replicas in this process, or forked worker "
                        "processes for multi-core decode throughput "
                        "(overrides the shard map; see docs/cluster.md)")
    c.add_argument("--warm", action="store_true",
                   help="materialize every shard before accepting traffic")
    c.add_argument("--artifact-dir", default=None, metavar="DIR",
                   help="city-artifact cache: each shard freezes its city "
                        "into DIR/<shard> on first warm and mmap-loads it "
                        "on later boots (replicas share the mapping)")
    c.add_argument("--host", default="127.0.0.1")
    c.add_argument("--port", type=int, default=8018)

    args = parser.parse_args(argv)
    if args.command == "train":
        train_bundle(args)
    elif args.command == "oneshot":
        run_oneshot(args)
    elif args.command == "cluster":
        run_cluster(args)
    else:
        run_http(args)


if __name__ == "__main__":
    main()
