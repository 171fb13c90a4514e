"""Model registry: named models and hot-swap over one road network.

A bundle is a checkpoint (``<prefix>.npz`` via ``nn.serialization``) plus a
required JSON sidecar (``<prefix>.json``) holding the ``RNTrajRecConfig``
the model was trained with, so a prefix reads back as a
:class:`~repro.core.model.ModelSnapshot` without out-of-band knowledge
(its X_road is computed on the first request).  Bundles and a packed
city artifact's model alike become served models through
``ModelSnapshot.build`` over the registry's one :class:`RoadNetwork`,
which owns (memoizes) the scan index, grid sequences and k-hop closure —
so hot-swapping checkpoints never rebuilds them and there is nothing for
the registry to pin.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict
from typing import Dict, Optional, Tuple

from ..core.config import RNTrajRecConfig
from ..core.model import ModelSnapshot, RNTrajRec
from ..nn.serialization import load_archive, save_checkpoint
from ..roadnet.artifacts import CityArtifacts
from ..roadnet.network import RoadNetwork


def bundle_paths(prefix: str) -> Tuple[str, str]:
    """(checkpoint path, config path) for a bundle prefix."""
    stem = prefix[:-4] if prefix.endswith(".npz") else prefix
    return stem + ".npz", stem + ".json"


def save_model_bundle(model: RNTrajRec, prefix: str,
                      train: Optional[dict] = None) -> Tuple[str, str]:
    """Write ``<prefix>.npz`` + ``<prefix>.json`` and return both paths;
    ``train`` (provenance, see ``fit_and_bundle``) becomes the sidecar's
    ``train`` section, which readers ignore."""
    ckpt_path, config_path = bundle_paths(prefix)
    save_checkpoint(model, ckpt_path)
    sidecar = {"model": "rntrajrec", "config": asdict(model.config)}
    if train is not None:
        sidecar["train"] = train
    with open(config_path, "w") as handle:
        json.dump(sidecar, handle, indent=1)
    return ckpt_path, config_path


def _read_bundle(prefix: str) -> ModelSnapshot:
    """A bundle prefix as a snapshot; a missing sidecar raises."""
    ckpt_path, config_path = bundle_paths(prefix)
    with open(config_path) as handle:
        config = RNTrajRecConfig.from_dict(json.load(handle)["config"])
    return ModelSnapshot(config, load_archive(ckpt_path))


class ModelRegistry:
    """Named RNTrajRec checkpoints over one pinned road network."""

    def __init__(self, network: Optional[RoadNetwork] = None,
                 artifacts: Optional[CityArtifacts] = None) -> None:
        """``network`` may be omitted when ``artifacts`` is given: the
        registry then serves over the bundle's shared zero-copy network —
        N registries over one ``CityArtifacts`` share one physical copy of
        everything immutable."""
        if network is None:
            if artifacts is None:
                raise ValueError("ModelRegistry needs a network or artifacts")
            network = artifacts.network()
        self.network = network
        self.artifacts = artifacts
        self._lock = threading.RLock()
        self._prefixes: Dict[str, str] = {}
        self._loaded: Dict[str, RNTrajRec] = {}
        # Bumped whenever a name is (re)registered: serving cache keys and
        # batch group keys fold in the generation, so re-registering an
        # updated checkpoint under an existing name invalidates old entries.
        self._generations: Dict[str, int] = {}
        self._active: Optional[str] = None

    # ------------------------------------------------------------------
    def register(self, name: str, prefix: str, activate: bool = False) -> None:
        """Register a bundle prefix under ``name`` (lazy-loaded)."""
        with self._lock:
            self._prefixes[name] = prefix
            self._loaded.pop(name, None)  # re-registering invalidates the old load
            self._generations[name] = self._generations.get(name, 0) + 1
            if activate or self._active is None:
                self._active = name

    def add_loaded(self, name: str, model: RNTrajRec, activate: bool = False) -> None:
        """Register an already-built model (in-memory hot-swap, tests): in
        eval mode, its network's k-hop closure memo filled now — before
        any worker fork and not on the first request."""
        model.eval()
        _ = model.reachability
        with self._lock:
            self._loaded[name] = model
            self._generations[name] = self._generations.get(name, 0) + 1
            if activate or self._active is None:
                self._active = name

    def load(self, name: str) -> RNTrajRec:
        """The named model, loading it on first use.

        The expensive work (checkpoint read, model construction, the
        network's k-hop closure if this is its first model) happens
        outside the lock so serving threads calling
        :meth:`active` are never stalled by a hot-swap load; concurrent
        first loads of the same name race benignly (one result wins).
        """
        with self._lock:
            if name in self._loaded:
                return self._loaded[name]
            if name not in self._prefixes:
                raise KeyError(f"unknown model {name!r}; registered: {self.names()}")
            prefix = self._prefixes[name]
            generation = self._generations.get(name, 0)
        model = _read_bundle(prefix).build(self.network)
        with self._lock:
            if self._generations.get(name, 0) == generation:
                return self._loaded.setdefault(name, model)
        # Re-registered while we were loading: discard and load the new bundle.
        return self.load(name)

    def activate(self, name: str) -> RNTrajRec:
        """Make ``name`` the active model (hot-swap), loading if needed."""
        model = self.load(name)
        with self._lock:
            self._active = name
        return model

    def active(self) -> Tuple[str, RNTrajRec]:
        with self._lock:
            name = self._active
        if name is None:
            raise RuntimeError("registry has no active model")
        return name, self.load(name)

    def active_ref(self) -> Tuple[str, str, RNTrajRec]:
        """(name, generation tag, model) — the tag distinguishes successive
        checkpoints registered under the same name.  The pairing is atomic:
        if a re-register lands between reading the tag and loading the
        model, we retry so a tag is never paired with a newer generation's
        model (which would let stale and fresh results share cache keys)."""
        while True:
            with self._lock:
                name = self._active
                if name is None:
                    raise RuntimeError("registry has no active model")
                generation = self._generations.get(name, 0)
            model = self.load(name)
            with self._lock:
                if (self._active == name
                        and self._generations.get(name, 0) == generation):
                    return name, f"{name}#{generation}", model

    def active_tag(self) -> Tuple[str, str]:
        """(active name, generation tag) without loading the model.

        The process-backend parent tracks which generation its workers
        serve without ever materializing a model of its own; the loaded
        path keeps using :meth:`active_ref` for its atomicity guarantee.
        """
        with self._lock:
            name = self._active
            if name is None:
                raise RuntimeError("registry has no active model")
            return name, f"{name}#{self._generations.get(name, 0)}"

    def activate_unloaded(self, name: str) -> None:
        """Make ``name`` active *without* loading it.

        A process-backend parent registry is pure bookkeeping — its
        worker processes load and serve the actual models — so a swap
        must not pull a checkpoint into the parent.  The name must be
        registered; serving from this registry afterwards lazily loads
        as usual.
        """
        with self._lock:
            if name not in self._prefixes and name not in self._loaded:
                raise KeyError(
                    f"unknown model {name!r}; registered: {self.names()}")
            self._active = name

    def evict(self, name: str) -> None:
        """Drop ``name``'s loaded model (in-flight batches keep their own
        reference, so they finish unharmed).  A bundle-backed name stays
        registered and lazily reloads from disk on next use; an in-memory
        name (``add_loaded``) is gone for good.  The active model cannot
        be evicted."""
        with self._lock:
            if name == self._active:
                raise ValueError(f"cannot evict the active model {name!r}")
            self._loaded.pop(name, None)
            # The generation counter survives eviction on purpose: if the
            # name is ever re-registered, its tag must not collide with
            # cache entries produced by the evicted generation.

    def names(self):
        with self._lock:
            return sorted(set(self._prefixes) | set(self._loaded))

    @property
    def active_name(self) -> Optional[str]:
        with self._lock:
            return self._active

    # ------------------------------------------------------------------
    def register_artifact_model(self, name: str = "default",
                                activate: bool = False) -> RNTrajRec:
        """Build and register the frozen model packed in the pinned
        :class:`CityArtifacts` bundle.

        ``ModelSnapshot.build`` adopts the parameters and buffers as
        read-only views of the artifact arrays and installs the packed
        X_road, so loading N models from one bundle costs O(1) array
        memory per model and never reruns the road encoder.  The model is
        eval-only by construction: any in-place weight write raises on the
        protected views.
        """
        snapshot = None if self.artifacts is None else self.artifacts.model_snapshot()
        if snapshot is None:
            raise ValueError("registry has no artifact bundle with a packed model")
        model = snapshot.build(self.network)
        self.add_loaded(name, model, activate=activate)
        return model
