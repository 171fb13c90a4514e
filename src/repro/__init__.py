"""repro — a from-scratch reproduction of RNTrajRec (ICDE 2023).

RNTrajRec recovers high-sample, map-matched trajectories from low-sample
raw GPS traces using a road-network-enhanced spatial-temporal transformer.
This package reimplements the complete system in pure numpy:

* :mod:`repro.nn` — autograd tensor engine and neural network layers;
* :mod:`repro.geo` / :mod:`repro.roadnet` — geometry, grids, R-tree,
  road-network model with a synthetic city generator;
* :mod:`repro.trajectory` — trajectory model, vehicle simulator, datasets;
* :mod:`repro.mapmatch` — Newson-Krumm HMM map matching;
* :mod:`repro.core` — the RNTrajRec model (GridGNN, GPSFormer, GRL,
  constraint-mask decoder, multi-task loss);
* :mod:`repro.train` — the training subsystem: one
  :class:`~repro.train.Trainer` loop, exact-resume
  :class:`~repro.train.TrainState` checkpoints, LR schedules, gradient
  accumulation, and the :func:`~repro.train.fit_and_bundle` train→deploy
  bridge;
* :mod:`repro.baselines` — the eight comparison methods of the paper;
* :mod:`repro.eval` — MAE/RMSE (road distance), Recall/Precision/F1,
  Accuracy, SR%k;
* :mod:`repro.datasets` / :mod:`repro.experiments` — dataset registry and
  the cached experiment harness behind every benchmark;
* :mod:`repro.serve` — online serving: :class:`~repro.serve.RecoveryService`
  with continuous batching, a hot-swappable model registry, request-level
  caching and telemetry (see ``scripts/serve.py``);
* :mod:`repro.cluster` — sharded multi-city serving: a grid-backed router
  over many per-city services with lazy warm-up, bounded-queue load
  shedding, rolled-up telemetry and per-shard hot swap;
* :mod:`repro.profile` — wall-clock section/counter registry the hot
  paths report to.

Quickstart::

    from repro.datasets import load_dataset
    from repro.core import RNTrajRec
    from repro.train import Trainer, TrainConfig

    data = load_dataset("chengdu", num_trajectories=200)
    model = RNTrajRec(data.network)
    Trainer(model, TrainConfig(epochs=10)).fit(data.train, data.val)
"""

__version__ = "1.0.0"

from . import geo, nn, profile

__all__ = ["geo", "nn", "profile", "__version__"]
