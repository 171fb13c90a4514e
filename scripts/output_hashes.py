"""Hash a request's admission and decode outputs, to diff one commit
against another.

    python scripts/output_hashes.py [--seed N] [--requests N] [--metro-block M]

Prints sorted ``name sha256`` lines for ``assemble_sample``'s snapped steps
and Eq. 16 entries, the cold ``SubGraphBatch`` arrays, ``model.encode``'s
point and trajectory features (so a 1-ulp encoder drift that flips no argmax
still shows), the interpolation prior, the decode constraint (both as dense
tensors) and ``recover``'s segments + rates over the perf ledger's first
``--requests`` ``metro-burst`` and ``http-cold`` requests of ``--seed``,
once on a built model and once on the same weights adopted read-only from
the city's ``CityArtifacts`` (``mmap=True``).  Per city, the built model's
training ``compute_loss`` (loss and every gradient, teacher-forcing ratios
1 / 0.5 / 0) over a fixed simulated ground-truth batch is hashed too.  The
same ``http-cold`` requests are then streamed fix by fix through a
``StreamingCluster`` over the built models: one line per update (its
trajectory, committed / decoded / skipped steps and ``revised_from``) and
one per finalize.  The same requests also go through a one-replica
``RecoveryCluster`` three times — submit, resubmit, then replayed 3 600 s
later — with one ``cache`` line per response (its trajectory and its
``cached`` flag).  Finally every other model family — each Table V
ablation, both ``weight_refinement`` variants and each learned baseline,
untrained and seeded — gets ``variant`` lines: ``encode`` (node features
included) and ``recover`` for the first few ``http-cold`` requests, and
``compute_loss`` per city.  One ``artifact`` line per city is its
``CityArtifacts`` content hash (network arrays, grid sequences, k-hop
closure, weights and X_road), and one ``network`` line per dataset recipe
(plus the metro at 125 m blocks) the content hash of its generated
network's ``export_arrays()``, so a generator branch only another recipe
takes still moves a line.  One ``fit`` line per ``http-cold`` city hashes
two epochs of ``Trainer.fit`` (loss history and every parameter) on
simulated samples, and its ``resumed`` twin the same run stopped after
one epoch with a ``checkpoint=`` archive, which a fresh trainer and model
load and finish through ``fit(checkpoint=...)``; ``fit/chengdu/<baseline>``
hashes the same two straight epochs of the learned baselines in
``FIT_BASELINES``, whose training path is not RNTrajRec's.
One ``dataset`` line per distinct city recipe (plus chengdu with every
trajectory started on the elevated deck) hashes a few simulated (raw,
matched) pairs and the recovery samples built from them, and its ``eval``
twin Linear+HMM's recoveries of those samples, ``evaluate_recovery``'s
fields, each trajectory's ``distance_errors`` and ``sr_at_k``.
The output opens with ``#`` lines naming the environment the hashes hold
for: Python, numpy, the BLAS and numpy's SIMD extensions found on this CPU
(OpenBLAS's ``DYNAMIC_ARCH`` and numpy's dispatch both pick kernels by CPU).
Nothing is timed or kept, so "equal to the parent" is ``diff <(git stash -q;
python scripts/output_hashes.py; git stash pop -q) <(python scripts/output_hashes.py)``,
and ``OUTPUT_HASHES.txt`` at the repo root is this script's output with the
default arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "ledger")]

import workloads  # noqa: E402  (benchmarks/ledger)
from repro import nn  # noqa: E402
from repro.baselines import BASELINE_NAMES, DHTRRecovery, build_baseline  # noqa: E402
from repro.cluster import RecoveryCluster, ShardMap  # noqa: E402
from repro.core import RNTrajRec  # noqa: E402
from repro.core.decoder import DecodeConstraint, interpolation_prior  # noqa: E402
from repro.datasets import dataset_names, get_spec  # noqa: E402
from repro.eval.metrics import distance_errors, evaluate_recovery, sr_at_k  # noqa: E402
from repro.experiments.harness import quick_train_config, small_model_config  # noqa: E402
from repro.roadnet import CityArtifacts, generate_city  # noqa: E402
from repro.roadnet.artifacts import content_hash  # noqa: E402
from repro.serve import ModelRegistry, RecoveryRequest, ServeConfig  # noqa: E402
from repro.serve.request import assemble_sample  # noqa: E402
from repro.stream import StreamingCluster  # noqa: E402
from repro.train import Trainer  # noqa: E402
from repro.trajectory import (  # noqa: E402
    SimulationConfig, TrajectorySimulator, build_samples, make_batch)

SECONDS = 3.0  # past 48 requests each; traces are drawn in send order,
               # so a shorter window's requests are a prefix of the ledger's
VARIANT_REQUESTS = 3  # http-cold requests each variant model encodes and recovers
FIT_SAMPLES = 16  # simulated trajectories each city's `fit` lines train on
FIT_BASELINES = ("mtrajrec", "transformer")  # trained for chengdu's `fit` lines too
DATASET_PAIRS = 8  # simulated trajectories each `dataset` / `eval` line covers
HISTORY_FIELDS = ("loss", "id_loss", "rate_loss", "graph_loss", "grad_norm", "lr")


def _dense(constraint: DecodeConstraint) -> np.ndarray:
    """The (b, T, |V|) mask tensor a sparse constraint stands for, one
    :meth:`DecodeConstraint.row` per step — deferred prior steps
    included, built as the decode would build them."""
    return np.stack([constraint.row(j)
                     for j in range(constraint.base.shape[1])], 1)


def _sha(*arrays) -> str:
    """One digest over arrays (masks as their dense tensors)."""
    digest = hashlib.sha256()
    for array in arrays:
        array = _dense(array) if isinstance(array, DecodeConstraint) else array
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def loss_lines(key: str, model, network, seed: int, ratios=(1.0, 0.5, 0.0)):
    """``compute_loss`` + backward at each teacher-forcing ratio."""
    pairs = TrajectorySimulator(network, SimulationConfig(seed=7)).simulate(2)
    batch = make_batch(build_samples(pairs, network))
    model.train()
    for ratio in ratios:
        model.zero_grad()
        loss = model.compute_loss(batch, ratio, rng=np.random.default_rng(seed))
        loss.total.backward()
        yield f"{key}/compute_loss@{ratio} " + _sha(loss.total.data, *(
            np.zeros(0) if p.grad is None else p.grad
            for _, p in model.named_parameters()))


def _cluster(workload, models) -> RecoveryCluster:
    """One in-process, one-replica shard per city over ``models``."""
    shard_map = ShardMap(shards=tuple(
        city.shard_spec(workload.networks[city.name], None, "inproc")
        for city in workload.cities))
    return RecoveryCluster(
        shard_map, model_factory=lambda spec, _: models[spec.name],
        network_factory=lambda spec: workload.networks[spec.name])


def cache_lines(workload, models, requests: int):
    """The first ``requests`` requests submitted, resubmitted, then
    replayed shifted by whole seconds; each response's trajectory and
    ``cached`` flag."""
    lines = []
    with _cluster(workload, models) as cluster:
        for label, shift in (("submit", 0.0), ("resubmit", 0.0),
                             ("shifted", 3600.0)):
            for index, request in enumerate(workload.requests[:requests]):
                response = cluster.recover(
                    replace(request, times=request.times + shift))
                path = response.trajectory
                key = f"{workload.name}/{index:03d}/{workload.city_of[index]}"
                lines.append(f"{key}/cache/{label} " + _sha(
                    path.segments, path.ratios, path.times,
                    np.array([response.cached])))
    return lines


def stream_lines(workload, models, requests: int):
    """The first ``requests`` requests appended fix by fix through
    ``StreamingCluster`` (global frame, default horizon and store)."""
    lines = []
    with _cluster(workload, models) as cluster:
        streaming = StreamingCluster(cluster)
        for index, request in enumerate(workload.requests[:requests]):
            key = f"{workload.name}/{index:03d}/{workload.city_of[index]}/stream"
            session_id, _ = streaming.open(request.xy[0])
            for fix in range(len(request.times)):
                update = streaming.append(session_id, request.xy[fix:fix + 1],
                                          request.times[fix:fix + 1])
                path = update.trajectory
                lines.append(f"{key}/append{fix} " + _sha(*(
                    () if path is None else (path.segments, path.ratios, path.times)),
                    np.array([update.committed_steps, update.decoded_steps,
                              update.skipped_steps, update.revised_from])))
            final = streaming.finalize(session_id).trajectory
            lines.append(f"{key}/finalize " + _sha(final.segments, final.ratios,
                                                   final.times))
        streaming.close()
    return lines


def variant_models(network, seed: int):
    """Every other model family over ``network``, each seeded like the
    ledger's: the Table V ablations, both weight refinements and each
    learned baseline."""
    config = small_model_config(32)
    builders = {
        **{f"wo-{name}": lambda name=name: RNTrajRec(network, config.ablation(name))
           for name in ("grl", "gf", "gat", "gn", "gcl")},
        **{f"refine-{kind}": lambda kind=kind: RNTrajRec(
            network, config.variant(weight_refinement=kind)) for kind in ("sigmoid", "softmax")},
        **{name: lambda name=name: build_baseline(name, network, config)
           for name in BASELINE_NAMES if name != "linear_hmm"},
    }
    for name, build in builders.items():
        nn.init.seed_everything(seed)
        yield name, build().eval()


def _encoded(model, batch):
    """What a variant's encoder hands on: RNTrajRec's three outputs (node
    features only where the graph loss or GRL keeps them), a seq2seq
    baseline's point and trajectory features, DHTR's coordinates."""
    with nn.no_grad():
        if isinstance(model, RNTrajRec):
            out = model.encode(batch)
            outputs = (out.point_features, out.trajectory_feature, out.node_features)
        elif isinstance(model, DHTRRecovery):
            outputs = (model._decode_coordinates(batch),)
        else:
            outputs = model._encode(batch)
    return [np.zeros(0) if t is None else t.data for t in outputs]


def variant_lines(workload, ingest, seed: int, requests: int):
    lines = []
    for city in workload.cities:
        network = workload.networks[city.name]
        chosen = [(index, request) for index, request in enumerate(workload.requests[:requests])
                  if workload.city_of[index] == city.name]
        for name, model in variant_models(network, seed):
            for index, request in chosen:
                batch = make_batch([assemble_sample(RecoveryRequest(
                    xy=workloads.to_local(workload, city.name, request.xy),
                    times=request.times), network, ingest[city.name])])
                key = f"{workload.name}/{index:03d}/{city.name}/variant/{name}"
                lines += [f"{key}/encode " + _sha(*_encoded(model, batch)),
                          f"{key}/recover " + _sha(*model.recover(batch))]
            lines += loss_lines(f"{workload.name}/train/{city.name}/variant/{name}",
                                model, network, seed, ratios=(0.5,))
    return lines


def _fit_hash(trainer) -> str:
    """The trainer's epoch history (every field but wall time) and the
    model's parameters."""
    history = np.array([[getattr(stats, field) for field in HISTORY_FIELDS]
                        for stats in trainer.history])
    return _sha(history, *(p.data for _, p in trainer.model.named_parameters()))


def fit_lines(workload, seed: int):
    """Per city, two epochs of ``Trainer.fit`` (cosine schedule, two
    accumulated micro-batches per step) run straight through, and again
    stopped after epoch 1 with a ``checkpoint=`` archive that a fresh
    trainer's ``fit(checkpoint=...)`` resumes from; on chengdu, each of
    ``FIT_BASELINES`` straight through too."""
    config = quick_train_config(2, batch_size=4, accumulate_steps=2, schedule="cosine")
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        for city in workload.cities:
            network = workload.networks[city.name]
            samples = build_samples(TrajectorySimulator(
                network, SimulationConfig(seed=7)).simulate(FIT_SAMPLES), network)
            nn.init.seed_everything(seed)
            straight = Trainer(RNTrajRec(network, small_model_config(32)), config)
            straight.fit(samples)
            nn.init.seed_everything(seed)
            first = Trainer(RNTrajRec(network, small_model_config(32)), config)
            first.fit(samples, until_epoch=1, checkpoint=f"{scratch}/{city.name}")
            resumed = Trainer(RNTrajRec(network, small_model_config(32)), config)
            resumed.fit(samples, checkpoint=f"{scratch}/{city.name}")
            lines += [f"fit/{city.name} {_fit_hash(straight)}",
                      f"fit/{city.name}/resumed {_fit_hash(resumed)}"]
            if city.name != "chengdu":
                continue
            for name in FIT_BASELINES:
                nn.init.seed_everything(seed)
                baseline = Trainer(build_baseline(name, network, small_model_config(32)), config)
                baseline.fit(samples)
                lines.append(f"fit/chengdu/{name} {_fit_hash(baseline)}")
    return lines


def network_lines():
    """The generated network's ``export_arrays()`` per dataset recipe, and
    the metro at 125 m blocks."""
    cities = {name: get_spec(name).city for name in dataset_names()}
    cities["metro@125"] = replace(get_spec("chengdu").city, block=125.0)
    return [f"network/{name} {content_hash(generate_city(city).export_arrays())}"
            for name, city in cities.items()]


def dataset_lines(seed: int):
    """Per distinct city recipe, and for chengdu again with
    ``prefer_elevated``: ``DATASET_PAIRS`` simulated pairs (the recipe's
    simulator seeded ``seed`` further on) and their samples, then
    Linear+HMM's recoveries of them and every metric over those."""
    runs = {}
    for name in dataset_names():
        runs.setdefault(get_spec(name).city, (name, False))
    lines = []
    for key, elevated in [*runs.values(), ("chengdu", True)]:
        spec = get_spec(key)
        key += "/elevated" if elevated else ""
        network = generate_city(spec.city)
        simulation = replace(spec.simulation, seed=spec.simulation.seed + seed)
        pairs = TrajectorySimulator(network, simulation).simulate(
            DATASET_PAIRS, prefer_elevated=elevated)
        samples = build_samples(pairs, network, spec.dataset)
        lines.append(f"dataset/{key} " + _sha(
            *(a for raw, matched in pairs for a in (
                raw.xy, raw.times, matched.segments, matched.ratios, matched.times)),
            *(a for sample in samples for a in (
                sample.raw_low.xy, sample.raw_low.times, sample.observed_steps,
                np.array([sample.hour, sample.holiday]),
                *(a for entry in sample.constraints if entry for a in entry)))))
        model = build_baseline("linear_hmm", network, small_model_config(32))
        truths = [sample.target for sample in samples]
        predictions = model.recover_trajectories(make_batch(samples))
        metrics = evaluate_recovery(truths, predictions, model.engine)
        lines.append(f"eval/{key}/linear_hmm " + _sha(
            *(a for path in predictions for a in (path.segments, path.ratios, path.times)),
            np.array([*metrics.as_row().values(), metrics.count]),
            *(distance_errors(truth, path, model.engine)
              for truth, path in zip(truths, predictions)),
            np.array([*sr_at_k(truths, predictions, network).items()])))
    return lines


def hash_lines(seed: int, requests: int, metro_block: float):
    lines = network_lines() + dataset_lines(seed)
    for name in ("metro-burst", "http-cold"):
        workload = workloads.generate(name, seed, SECONDS, metro_block)
        nn.init.seed_everything(seed)  # the ledger's untrained weights
        models, ingest = {}, {}
        with tempfile.TemporaryDirectory() as scratch:
            for city in workload.cities:
                network = workload.networks[city.name]
                built = RNTrajRec(network, small_model_config(32)).eval()
                artifacts = CityArtifacts.build(network, model=built)
                lines.append(f"{name}/artifact/{city.name} "
                             + artifacts.manifest["content_hash"])
                artifacts.save(f"{scratch}/{city.name}")
                mapped = ModelRegistry(artifacts=CityArtifacts.load(
                    f"{scratch}/{city.name}", mmap=True)).register_artifact_model()
                models[city.name] = {"built": built, "mmap": mapped}
                ingest[city.name] = ServeConfig.for_spec(get_spec(city.dataset)).ingest()
            for index, request in enumerate(workload.requests[:requests]):
                city = workload.city_of[index]
                local = RecoveryRequest(
                    xy=workloads.to_local(workload, city, request.xy),
                    times=request.times)
                for label, model in models[city].items():
                    sample = assemble_sample(local, model.network, ingest[city])
                    batch = make_batch([sample])
                    prior = interpolation_prior(
                        batch, model.network, model.config.decode_prior_scale,
                        model.config.decode_prior_floor)
                    generator = model.encoder.subgraph_generator
                    generator.clear_cache()  # every request's sub-graphs cold
                    graphs = generator.batch(batch.input_xy)
                    with nn.no_grad():
                        encoded = model.encode(batch)
                    key = f"{name}/{index:03d}/{city}/{label}"
                    lines += [
                        f"{key}/assemble " + _sha(sample.observed_steps, *(
                            a for entry in sample.constraints if entry for a in entry)),
                        f"{key}/subgraph " + _sha(
                            graphs.node_segments, graphs.node_weights,
                            graphs.graph_ids, graphs.edge_index),
                        f"{key}/encode " + _sha(encoded.point_features.data,
                                                encoded.trajectory_feature.data),
                        f"{key}/prior {_sha(prior)}",
                        f"{key}/constraint {_sha(model.decode_constraint(batch))}",
                        f"{key}/recover {_sha(*model.recover(batch))}"]
            for city in workload.cities:
                lines += loss_lines(f"{name}/train/{city.name}/built",
                                    models[city.name]["built"],
                                    workload.networks[city.name], seed)
            if name == "http-cold":
                built = {city: pair["built"] for city, pair in models.items()}
                for model in built.values():
                    model.encoder.subgraph_generator.clear_cache()
                lines += stream_lines(workload, built, requests)
                lines += cache_lines(workload, built, requests)
                lines += variant_lines(workload, ingest, seed,
                                       min(requests, VARIANT_REQUESTS))
                lines += fit_lines(workload, seed)
    return sorted(lines)


def environment_header():
    """``#`` lines naming what the hashes depend on beside the code."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return [f"# blas {blas.get('name')} {blas.get('version')}",
            f"# numpy {np.__version__}",
            f"# python {platform.python_version()}",
            f"# simd {' '.join(config['SIMD Extensions']['found'])}"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--metro-block", type=float, default=40.0)  # 11.9k segments
    args = parser.parse_args()
    print("\n".join(environment_header()
                    + hash_lines(args.seed, args.requests, args.metro_block)))
