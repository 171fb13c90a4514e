"""Traced staged replay: where one request's milliseconds go.

Spans live only here.  After the untraced window, a fixed subsample of the
same inputs is replayed *stage by stage* in this process against a fresh
in-process cluster mapped from the live run's frozen artifacts: each public
call the serving path makes — HTTP parse, route, localize, pipe-frame
codec, cache key, sample assembly, batch, encode, constraint, admission,
engine sweeps, response codec, serialize — runs inside a span
``{name, start, end, parent, request_id}``.  A layer's self time is its
span minus its children.  Because the end-to-end figures always come from
the untraced window, tracing costs them nothing by construction.

Every replayed request is also recovered directly (``cluster.recover``,
cold cache) and once more (cache hit); the staged output must be
bit-identical to the direct one, and the staged sum must reconcile with
the direct latency.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

import sut
from repro.cluster import RecoveryCluster, ShardMap
from repro.cluster.workers import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.core import RNTrajRec
from repro.core.decoder import GreedyWeights, interpolation_prior
from repro.nn.tensor import no_grad
from repro.roadnet import CityArtifacts
from repro.serve.cache import quantize_key
from repro.serve.engine import ContinuousEngine, DecodeJob
from repro.serve.request import (
    RecoveryResponse,
    assemble_sample,
    grid_alignment,
)
from repro.trajectory.dataset import make_batch
from repro.trajectory.trajectory import MatchedTrajectory


def _serve_cli():
    """``scripts/serve.py`` as a module: the HTTP layer's request parser
    and response serializer live there, not in ``src``."""
    spec = importlib.util.spec_from_file_location(
        "ledger_serve_cli", sut.REPO / "scripts" / "serve.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Tracer:
    """In-memory span recorder; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.request_id = ""

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """request_id -> span name -> self seconds (span minus children),
        summed over same-named spans of that request."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        table: Dict[str, Dict[str, float]] = {}
        for span, seconds in zip(self.spans, own):
            row = table.setdefault(span["request_id"], {})
            row[span["name"]] = row.get(span["name"], 0.0) + seconds
        return table

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._record = {"name": name, "start": 0.0, "end": 0.0,
                        "parent": tracer._stack[-1] if tracer._stack else None,
                        "request_id": tracer.request_id}

    def __enter__(self) -> None:
        tracer = self._tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self._record)
        self._record["start"] = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self._record["end"] = time.perf_counter()
        self._tracer._stack.pop()


class Replay:
    """The staged chain over one fresh in-process cluster."""

    def __init__(self, bed, artifact_dir: Path) -> None:
        self._cli = _serve_cli()
        self.cluster = RecoveryCluster(
            ShardMap(shards=tuple(bed.specs("inproc")), serve=bed.serve),
            artifact_dir=str(artifact_dir))
        self.cluster.warm()  # mmap-loads what the live run froze
        self.tracer = Tracer()
        self._engine = ContinuousEngine(1)
        self._weights: Dict[str, GreedyWeights] = {}

    def close(self) -> None:
        self.cluster.close()

    def _shard_of(self, request):
        return self.cluster.shards[
            self.cluster.router.shard_of_points(request.xy)]

    def clear_memo(self, request) -> None:
        """Empty the sub-graph memo of the model serving ``request``: the
        live windows send unique traces, so their encodes run cold too."""
        _, _, model = self._shard_of(request).registry.active_ref()
        model.encoder.subgraph_generator.clear_cache()

    def staged(self, body: bytes) -> RecoveryResponse:
        """One request through every stage, each inside a span."""
        span, cli, cluster = self.tracer.span, self._cli, self.cluster
        with span("request"):
            with span("http.parse"):
                request = cli._parse_request(json.loads(body))
            with span("cluster.router.route"):
                index = cluster.router.shard_of_points(request.xy)
            shard = cluster.shards[index]
            with span("cluster.shard.localize"):
                local = shard.localize(request)
            with span("cluster.workers.encode_request"):
                frame = encode_request(1, local)
            with span("cluster.workers.decode_request"):
                _, local = decode_request(frame)
            config = shard.serve_config()
            name, tag, model = shard.registry.active_ref()
            with span("serve.cache.key"):
                local.raw()
                alignment = grid_alignment(local.times, config.interval)
                quantize_key(
                    local.xy, local.times, xy_precision=config.xy_precision,
                    time_precision=config.time_precision,
                    extra=(tag, int(local.hour) % 24, bool(local.holiday),
                           len(alignment[0]), alignment[1].tobytes()))
            with span("serve.request.assemble"):
                sample = assemble_sample(local, shard.registry.network,
                                         config.ingest(), alignment=alignment)
            started = time.perf_counter()
            with no_grad():
                with span("serve.service.batch"):
                    batch = make_batch([sample])
                with span("serve.service.encode"):
                    encoded = model.encode(batch)
                with span("serve.service.constraint"):
                    constraint = model.decode_constraint(batch)
                with span("serve.service.keys"):
                    # Unpacked once per model, as the service does per tag.
                    if shard.name not in self._weights:
                        self._weights[shard.name] = GreedyWeights.from_decoder(
                            model.decoder)
                    self._engine.admit(DecodeJob(
                        enc=encoded.point_features.data,
                        carry=model.decoder.initial_carry(
                            encoded.trajectory_feature.data),
                        num_steps=batch.target_length, constraint=constraint,
                        weights=self._weights[shard.name],
                        reachability=model.reachability, tag=tag))
                retired = []
                while not retired:
                    with span("serve.engine.sweep"):
                        retired = self._engine.step()
            if retired[0].error is not None:
                raise retired[0].error
            result = retired[0].result
            response = RecoveryResponse(
                request_id=local.request_id,
                trajectory=MatchedTrajectory(result.segments, result.rates,
                                             sample.target.times),
                cached=False, latency_ms=1000.0 * (time.perf_counter() - started),
                model=name, model_tag=tag, shard=shard.name)
            with span("cluster.workers.encode_response"):
                frame = encode_response(1, response)
            with span("cluster.workers.decode_response"):
                _, response = decode_response(frame, shard.name,
                                              response.latency_ms)
            with span("http.serialize"):
                json.dumps(cli._response_payload(response)).encode()
        return response

    def standalone(self, request) -> Dict[str, float]:
        """Layers that run *inside* a staged span, timed on their own:
        sub-graph generation (inside encode), the interpolation prior
        (inside constraint) and the bare greedy kernel (the sweeps minus
        the slot table)."""
        shard = self._shard_of(request)
        local = shard.localize(request)
        _, _, model = shard.registry.active_ref()
        sample = assemble_sample(local, shard.registry.network,
                                 shard.serve_config().ingest())
        batch = make_batch([sample])
        generator = model.encoder.subgraph_generator
        generator.clear_cache()
        t0 = time.perf_counter()
        generator.batch(batch.input_xy)
        t1 = time.perf_counter()
        interpolation_prior(batch, shard.registry.network,
                            model.config.decode_prior_scale,
                            model.config.decode_prior_floor)
        t2 = time.perf_counter()
        with no_grad():
            encoded = model.encode(batch)
            constraint = model.decode_constraint(batch)
            t3 = time.perf_counter()
            model.decoder.decode_greedy(
                encoded.point_features, encoded.trajectory_feature,
                batch.target_length, constraint,
                reachability=model.reachability)
            t4 = time.perf_counter()
        return {"subgraph": t1 - t0, "prior": t2 - t1,
                "step": (t4 - t3) / batch.target_length,
                "steps": float(batch.target_length)}


def _identical(a: RecoveryResponse, b: RecoveryResponse) -> bool:
    return (np.array_equal(a.trajectory.segments, b.trajectory.segments)
            and np.array_equal(a.trajectory.ratios, b.trajectory.ratios)
            and np.array_equal(a.trajectory.times, b.trajectory.times))


def run(bed, artifact_dir: Path, bodies: List[bytes], requests) -> Dict[str, Any]:
    """Replay ``requests`` (``bodies`` are their HTTP payloads); returns
    per-request timing columns plus the bit-identity verdict."""
    replay = Replay(bed, artifact_dir)
    direct, hit, extras = [], [], []
    identical = True
    try:
        for body, request in zip(bodies, requests):
            replay.tracer.request_id = request.request_id
            replay.clear_memo(request)
            t0 = time.perf_counter()
            reference = replay.cluster.recover(request)
            t1 = time.perf_counter()
            again = replay.cluster.recover(request)
            t2 = time.perf_counter()
            direct.append(t1 - t0)
            hit.append(t2 - t1)
            replay.clear_memo(request)
            staged = replay.staged(body)
            identical &= (_identical(staged, reference) and again.cached
                          and not reference.cached)
            extras.append(replay.standalone(request))
    finally:
        replay.close()
    self_times = replay.tracer.self_times()
    rows = [self_times[request.request_id] for request in requests]
    return {"tracer": replay.tracer, "rows": rows, "direct": direct,
            "hit": hit, "extras": extras, "identical": identical}


def artifact_costs(bed) -> Dict[str, float]:
    """Timed ``CityArtifacts.build/save/load`` over the workload's cities
    (summed): what ``setup_s`` and ``rss_mb`` are made of.  Each city and
    model is built afresh, so ``build`` pays the reachability closure and
    X_road as a first boot does."""
    totals = {"build_s": 0.0, "save_s": 0.0, "load_mmap_ms": 0.0, "bytes": 0.0}
    for city in bed.workload.cities:
        network = city.network()
        model = RNTrajRec(network, bed.models[city.name].config).eval()
        directory = sut.scratch_dir(f"{bed.workload.name}/probe-{city.name}")
        t0 = time.perf_counter()
        artifacts = CityArtifacts.build(network, model=model)
        t1 = time.perf_counter()
        artifacts.save(str(directory))
        t2 = time.perf_counter()
        CityArtifacts.load(str(directory), mmap=True).network()
        t3 = time.perf_counter()
        totals["build_s"] += t1 - t0
        totals["save_s"] += t2 - t1
        totals["load_mmap_ms"] += 1000.0 * (t3 - t2)
        totals["bytes"] += sum(f.stat().st_size for f in directory.iterdir())
    return totals


def median_us(rows: List[Dict[str, float]], name: str) -> float:
    return 1e6 * statistics.median(row.get(name, 0.0) for row in rows)
