"""Train→deploy bridge: one call from samples to a servable bundle.

:func:`fit_and_bundle` trains a model, then writes the ``<prefix>.npz`` +
``<prefix>.json`` bundle that :class:`repro.serve.ModelRegistry` and the
cluster's ``/register`` + ``/swap`` endpoints consume directly.  The JSON
sidecar, written once, carries a ``train`` section — content-hash
version, epochs, final loss, best validation accuracy, schedule — so a
deployed bundle carries its own provenance; a bundle reads back as a
:class:`~repro.core.model.ModelSnapshot` from the ``config`` section
alone, so the rest never matters to serving.

:func:`register_bundle` completes the "train a city, roll it into the
cluster" path: it POSTs the bundle to a running cluster front door
(``scripts/serve.py cluster``), which hot-deploys it on the owning shard
without touching siblings.
"""

from __future__ import annotations

import hashlib
import json
import time
import urllib.request
from dataclasses import dataclass
from typing import Optional

from .config import TrainConfig, TrainResult
from .trainer import Trainer


def model_version(model) -> str:
    """Content hash of the model's state (parameters + buffers): two
    bundles with identical weights share a version, any retrain changes
    it.  Used as the bundle's ``train.version`` provenance tag."""
    digest = hashlib.sha256()
    state = model.state_dict()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(state[name].tobytes())
    return digest.hexdigest()[:12]


@dataclass
class BundleReport:
    """What :func:`fit_and_bundle` produced."""

    result: TrainResult
    checkpoint_path: str
    config_path: str
    version: str


def fit_and_bundle(
    model,
    train_samples,
    out_prefix: str,
    val_samples=(),
    config: Optional[TrainConfig] = None,
    checkpoint: Optional[str] = None,
    metadata: Optional[dict] = None,
) -> BundleReport:
    """Train ``model`` and emit a versioned serving bundle.

    ``checkpoint`` threads through to :meth:`Trainer.fit` — pass a state
    archive path to make the training leg itself resumable.  ``metadata``
    entries are merged into the sidecar's ``train`` section.
    """
    from ..serve import save_model_bundle  # lazy: serve imports repro.core

    trainer = Trainer(model, config)
    result = trainer.fit(train_samples, val_samples, checkpoint=checkpoint)
    model.eval()
    version = model_version(model)
    train_meta = {
        "version": version,
        "epochs": trainer.epochs_completed,
        "final_loss": result.final_loss,
        "best_val_accuracy": result.best_val_accuracy,
        "schedule": trainer.config.schedule,
        "created_unix": round(time.time(), 3),
    }
    train_meta.update(metadata or {})
    ckpt_path, config_path = save_model_bundle(model, out_prefix,
                                               train=_jsonable(train_meta))
    return BundleReport(result=result, checkpoint_path=ckpt_path,
                        config_path=config_path, version=version)


def _jsonable(payload: dict) -> dict:
    """NaN-safe (None-ified) copy — json.dump would emit invalid bare NaN."""
    cleaned = {}
    for key, value in payload.items():
        if isinstance(value, float) and value != value:
            cleaned[key] = None
        else:
            cleaned[key] = value
    return cleaned


def register_bundle(base_url: str, shard: str, model_name: str,
                    bundle_prefix: str, activate: bool = True,
                    timeout: float = 30.0) -> dict:
    """POST a trained bundle to a running cluster front door's
    ``/register`` endpoint; returns the cluster's response payload."""
    body = json.dumps({
        "shard": shard,
        "model": model_name,
        "bundle": bundle_prefix,
        "activate": bool(activate),
    }).encode()
    request = urllib.request.Request(
        base_url.rstrip("/") + "/register", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode() or "{}")
