"""Serving CLI for the RNTrajRec recovery service (stdlib + repro only).

Four subcommands:

``train``    train a model on a registry dataset and save a versioned
             serving bundle (checkpoint ``.npz`` + config ``.json`` with a
             ``train`` provenance section)::

                 PYTHONPATH=src python scripts/serve.py train \
                     --dataset chengdu --epochs 5 --out runs/chengdu_model

             ``--schedule`` / ``--warmup-epochs`` and ``--resume STATE``
             are the production knobs of docs/training.md; ``--register
             http://host:port --shard chengdu`` completes the train→deploy
             path by hot-deploying the fresh bundle into a running
             ``cluster`` front door.

``cluster``  multi-city sharded serving behind the bounded HTTP/1.0 front
             door, driven by a TOML/JSON shard-map file (see
             docs/cluster.md) or a quick ``--datasets`` list (each city
             trains a small model at startup)::

                 PYTHONPATH=src python scripts/serve.py cluster \
                     --shard-map cluster.toml --warm --port 8018
                 PYTHONPATH=src python scripts/serve.py cluster \
                     --datasets chengdu,porto --epochs 2 --port 8018

             ``--artifact-dir DIR`` gives each shard a frozen-city cache
             (``DIR/<shard>``): first warm builds and saves it, later
             boots mmap-load it (the startup log says which), so N
             worker processes share one copy of every immutable structure.

             Endpoints (points are global-frame; docs/cluster.md and
             docs/streaming.md have the bodies and status codes):
             ``POST /recover``, ``GET /stats``, ``GET /healthz``,
             ``GET /deadletters``, ``POST /swap``, ``POST /register``
             (hot-deploy one city's bundle without touching siblings),
             and the streaming sessions of ``repro.stream`` —
             ``POST /session/open`` (pinned to the shard owning the
             body's ``point``), ``POST /session/append``,
             ``POST /session/finalize`` (the exact one-shot-equivalent
             result), ``GET /session/evictions``.

``http``     the one-shard case of ``cluster``: the same routes over a map
             whose only shard is named after ``--dataset`` and sits at
             origin (0, 0), so coordinates are the city's own and
             ``/session/open`` needs no ``point``::

                 PYTHONPATH=src python scripts/serve.py http \
                     --dataset chengdu --bundle runs/chengdu_model --port 8008

             With ``--bundle`` only the road network and dataset spec are
             rebuilt — no trajectory simulation or sample building.

``oneshot``  the same one-shard cluster without the door: replay test-split
             traces as concurrent requests and print per-request results
             plus the shard's ``stats()``::

                 PYTHONPATH=src python scripts/serve.py oneshot \
                     --dataset chengdu --bundle runs/chengdu_model --requests 20

Without ``--bundle``, ``http`` and ``oneshot`` quick-train a model first.
The road network is rebuilt deterministically from the dataset name, so a
bundle trained with ``train`` always matches the network ``oneshot``,
``http`` and ``cluster`` reconstruct.
"""

import argparse
import functools
import json
import signal
import sys
import time
from dataclasses import replace
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.cluster import (  # noqa: E402
    RecoveryCluster,
    RouteError,
    ShardOverloaded,
    StreamingUnsupported,
    load_shard_map,
    side_by_side,
)
from repro.core import RNTrajRec  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.experiments import quick_train_config, small_model_config  # noqa: E402
from repro.serve import RecoveryRequest  # noqa: E402
from repro.serve.http import (  # noqa: E402
    JsonServer,
    parse_request as _parse_request,  # also benchmarks/ledger/replay.py's
    response_payload as _response_payload,
    update_payload,
)
from repro.stream import (  # noqa: E402
    SessionOverloaded,
    StoreConfig,
    StreamError,
    StreamingCluster,
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
    print(f"Training {args.dataset} model ({model.num_parameters():,} parameters, "
          f"{args.epochs} epochs, {args.schedule} schedule) ...")
    report = fit_and_bundle(
        model, data.train, args.out, val_samples=data.val, config=train_config,
        checkpoint=args.resume, metadata={"dataset": args.dataset})
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


def build_cluster(args) -> RecoveryCluster:
    """A RecoveryCluster from ``--shard-map`` (every shard must name its
    bundle — a missing one fails at warm-up instead of silently training
    a throwaway model) or from ``--datasets`` laid out side by side from
    (0, 0) — for ``http``/``oneshot`` their one ``--dataset``; without a
    ``--bundle`` each city quick-trains a small model."""
    if args.shard_map:
        shard_map = load_shard_map(args.shard_map)
    elif args.datasets:
        shard_map = side_by_side([name.strip() for name in
                                  args.datasets.split(",") if name.strip()],
                                 gap=args.gap, bundle=args.bundle)
    else:
        raise SystemExit("cluster needs --shard-map or --datasets")
    # The CLI cache knob is a default; a shard-map [serve] section wins.
    serve = dict(cache_capacity=args.cache_capacity)
    serve.update(shard_map.serve)
    shard_map = replace(shard_map, serve=serve)
    if args.backend:
        # The CLI flag overrides every shard: one switch turns a map's
        # in-process services into forked worker processes
        # (docs/cluster.md, "Execution backends").
        shard_map = replace(shard_map, shards=tuple(
            replace(spec, backend=args.backend) for spec in shard_map))

    def quick_train_factory(spec, network):
        model = RNTrajRec(network, small_model_config(args.hidden))
        print(f"[{spec.name}] training a quick model "
              f"({model.num_parameters():,} parameters, {args.epochs} epochs)")
        data = load_dataset(spec.dataset, num_trajectories=args.trajectories)
        Trainer(model, quick_train_config(args.epochs)).fit(data.train)
        return model.eval()

    # Only the bundle-less --datasets mode trains in-process; a shard map
    # is a production topology, where a bundle-less shard is a config error.
    factory = None if args.shard_map or args.bundle else quick_train_factory
    return RecoveryCluster(shard_map, model_factory=factory,
                           artifact_dir=args.artifact_dir)


def run_oneshot(args) -> None:
    data = load_dataset(args.datasets, num_trajectories=args.trajectories)
    pool = data.test + data.val
    if not pool:
        raise SystemExit("dataset has no held-out trajectories to replay")
    samples = [pool[i % len(pool)] for i in range(args.requests)]
    requests = [RecoveryRequest.from_raw(s.raw_low, s.hour, s.holiday, f"req-{i}")
                for i, s in enumerate(samples)]
    with build_cluster(args) as cluster:
        cluster.warm()
        print(f"Submitting {len(requests)} concurrent requests ...")
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as pool_:  # under max_inflight
            responses = list(pool_.map(
                lambda request: cluster.recover(request, timeout=300.0), requests))
        elapsed = time.perf_counter() - start

        for response in responses[:5]:
            path = response.trajectory.travel_path()[:8].tolist()
            print(f"  {response.request_id}: {len(response.trajectory)} points, "
                  f"{'cache' if response.cached else 'model'}, "
                  f"{response.latency_ms:.1f} ms, path {path} ...")
        if len(responses) > 5:
            print(f"  ... and {len(responses) - 5} more")
        print(f"Recovered {len(responses)} trajectories in {elapsed:.2f}s")
        print(json.dumps(cluster.stats()["shards"][args.datasets], indent=1))


def routes(cluster: RecoveryCluster, streaming: StreamingCluster) -> dict:
    """The front door's route table: one-shot, deploys and sessions over
    any shard map (``serve.py http`` is the one-shard case)."""
    def healthz(_):
        return 200, {"status": "ok", "shards": {
            shard.name: {"materialized": shard.materialized}
            for shard in cluster.shards}}

    def checked(needed, convert, apply):
        """A route that names the fields its body lacks and the values it
        cannot convert (400) before ``apply`` sees them — so a KeyError
        raised below is an unknown shard/model, a TypeError a fault."""
        def route(payload):
            missing = [field for field in needed if field not in payload]
            if missing:
                return 400, {"error": f"missing field(s) {missing}"}
            try:
                args = convert(payload)
            except (KeyError, TypeError, ValueError) as exc:
                return 400, {"error": str(exc)}
            return 200, apply(*args)
        return route

    floats = functools.partial(np.asarray, dtype=np.float64)

    def session_open(*opening):
        session_id, shard = streaming.open(*opening)
        return {"session_id": session_id, "shard": shard}

    return {
        ("GET", "/healthz"): healthz,
        ("GET", "/stats"):
            lambda _: (200, {**cluster.stats(), "sessions": streaming.stats()}),
        ("GET", "/deadletters"):
            lambda _: (200, {"dead_letters": cluster.dead_letters()}),
        ("GET", "/session/evictions"):
            lambda _: (200, {"evictions": streaming.evictions()}),
        ("POST", "/recover"): checked(
            (), lambda p: (_parse_request(p),),  # its KeyError names the field
            lambda request: _response_payload(
                cluster.recover(request, timeout=300.0))),
        ("POST", "/swap"): checked(
            ("shard", "model"),
            lambda p: (str(p["shard"]), str(p["model"])),
            lambda shard, model: {
                "shard": shard, **cluster.swap_model(shard, model)}),
        ("POST", "/register"): checked(
            ("shard", "model", "bundle"),
            lambda p: (str(p["shard"]), str(p["model"]), str(p["bundle"]),
                       bool(p.get("activate", True))),
            lambda shard, model, bundle, activate: {
                "shard": shard, **cluster.deploy_model(
                    shard, model, bundle, activate=activate)}),
        ("POST", "/session/open"): checked(
            (),
            lambda p: (floats(p["point"]) if "point" in p else None,
                       int(p.get("hour", 12)), bool(p.get("holiday", False)),
                       p.get("session_id")),
            session_open),
        ("POST", "/session/append"): checked(
            ("session_id", "points", "times"),
            lambda p: (str(p["session_id"]), floats(p["points"]),
                       floats(p["times"])),
            lambda *fixes: update_payload(streaming.append(*fixes))),
        ("POST", "/session/finalize"): checked(
            ("session_id",),
            lambda p: (str(p["session_id"]),),
            lambda sid: _response_payload(streaming.finalize(sid))),
    }


ERRORS = (
    # no shard owns the trace (or the session's opening point)
    (RouteError, 422, lambda exc: {"error": str(exc), "reason": exc.reason}),
    # bounded queues and bounded session stores shed, HTTP-style
    (ShardOverloaded, 429, lambda exc: {"error": str(exc), "shard": exc.shard}),
    (SessionOverloaded, 429, None),
    (UnknownSession, 404, None),        # expired / evicted / finalized
    (StreamError, 409, None),           # the session id is already open
    (StreamingUnsupported, 501, None),  # sessions need an inproc shard
    (ValueError, 400, None),            # RequestError: ingest rejected the trace
    (KeyError, 404, None),              # unknown shard/model name
)


def run(args) -> None:
    # SIGTERM unwinds through the same ``finally`` as Ctrl-C, so worker
    # processes are reaped; installed before any of them forks.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    cluster = build_cluster(args)
    # Lazy: no shard warms and no session service exists until a session
    # opens.  Each shard's streams share its registry (hot swaps reach
    # them) and its decode slots (suffixes join the one-shot ragged batch).
    streaming = StreamingCluster(
        cluster, args.commit_horizon, StoreConfig(
            capacity=args.session_capacity, ttl_seconds=args.session_ttl))
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
        table = routes(cluster, streaming)
        server = JsonServer((args.host, args.port), table, ERRORS)
        print(f"Serving {len(names)} shard(s) {names} on http://{args.host}:"
              f"{args.port} ({', '.join(map(' '.join, table))}); Ctrl-C to stop")
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # Ctrl-C, or SIGTERM (see above)
            pass
        finally:
            server.server_close()
    finally:
        streaming.close()
        cluster.close()
        print(json.dumps(cluster.stats()["cluster"], indent=1))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def model_flags(p):
        p.add_argument("--trajectories", type=int, default=160)
        p.add_argument("--hidden", type=int, default=32)
        p.add_argument("--epochs", type=int, default=5)

    def serve_flags(p):
        model_flags(p)
        p.add_argument("--cache-capacity", type=int, default=1024)

    def door_flags(p, port):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=port)
        p.add_argument("--commit-horizon", type=int, default=8,
                       help="streaming: newest ε_ρ steps kept revisable")
        p.add_argument("--session-capacity", type=int, default=256,
                       help="streaming: max resident sessions per shard")
        p.add_argument("--session-ttl", type=float, default=1800.0,
                       help="streaming: idle session lifetime (seconds)")
        p.add_argument("--artifact-dir", default=None, metavar="DIR",
                       help="city-artifact cache: each shard freezes its city "
                            "into DIR/<shard> on first warm and mmap-loads it "
                            "on later boots (workers share the mapping)")

    t = sub.add_parser("train", help="train a model and save a serving bundle")
    t.set_defaults(run=train_bundle)
    t.add_argument("--dataset", default="chengdu")
    model_flags(t)
    t.add_argument("--out", required=True, help="bundle prefix (writes .npz + .json)")
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
                            ("http", "one city behind the HTTP front door")):
        p = sub.add_parser(name, help=help_text)
        # The one-shard case of `cluster`: --dataset D is --datasets D.
        p.add_argument("--dataset", dest="datasets", metavar="DATASET",
                       default="chengdu")
        p.add_argument("--bundle", default=None, help="bundle prefix from `train`")
        p.set_defaults(shard_map=None, gap=500.0, backend=None, warm=True,
                       artifact_dir=None,
                       run=run_oneshot if name == "oneshot" else run)
        serve_flags(p)
        if name == "oneshot":
            p.add_argument("--requests", type=int, default=20)
        else:
            door_flags(p, port=8008)

    c = sub.add_parser("cluster", help="sharded multi-city HTTP front door")
    c.add_argument("--shard-map", default=None,
                   help="TOML/JSON shard-map file (see docs/cluster.md)")
    c.add_argument("--datasets", default=None,
                   help="comma-separated dataset names laid out side by side "
                        "(quick-trains one model per city)")
    c.add_argument("--gap", type=float, default=500.0,
                   help="corridor between cities in --datasets mode (meters)")
    c.set_defaults(bundle=None, run=run)
    serve_flags(c)
    c.add_argument("--backend", default=None, choices=("inproc", "process"),
                   help="execution backend for every shard: one service in "
                        "this process or forked worker processes (overrides "
                        "the shard map; see docs/cluster.md)")
    c.add_argument("--warm", action="store_true",
                   help="materialize every shard before accepting traffic")
    door_flags(c, port=8018)

    args = parser.parse_args(argv)
    args.run(args)


if __name__ == "__main__":
    main()
