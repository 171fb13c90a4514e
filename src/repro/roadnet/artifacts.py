"""Zero-copy shared-memory city artifacts for serving.

A :class:`CityArtifacts` bundle freezes the *immutable* per-city serving
state — everything the :class:`RoadNetwork` owns (CSR neighbor arrays,
sub-segment columns, scan index, grid-cell sequences, k-hop closure), the
model's parameters/buffers, and the frozen model's precomputed road
representation X_road — into one content-hashed ``.npz`` directory
written by :func:`repro.nn.serialization.save_archive` (uncompressed,
64-byte aligned).

Reloading with ``mmap=True`` maps every array read-only straight out of
the page cache: N replicas (and N processes) of a city share one
physical copy of the state instead of each rebuilding and privately
holding it, so serving memory stays ~1x a single replica as the replica
count grows.  Every array is stored in the layout its kernel reads, so
the :class:`RoadNetwork` constructor and the ``preload_*`` hooks only seed the
network's memo slots with views — no derived private copy ever appears,
and query and recovery outputs are bit-identical to the build-in-memory
path; ``tests/test_artifacts.py`` enforces both.

Layout inside the archive, format 2 (flat names, dotted namespaces):

* ``net.*`` — the :meth:`RoadNetwork.export_arrays` snapshot:
  ``poly_indptr`` / ``poly_points`` / ``levels`` / ``elevated`` (segment
  geometry and attributes), ``edge_index`` / ``edge_index_loops``,
  ``out_indptr`` / ``out_indices`` / ``out_degree`` / ``in_indptr`` /
  ``in_indices`` (CSR neighbors), ``geom_indptr`` + ``geom_columns``
  ``(5, m)`` (sub-segment x0, y0, vx, vy, clamped length²),
  ``rtree_order`` + ``rtree_columns`` ``(4, n)`` (STR scan order and the
  boxes in that order), ``bounds``, ``static``;
* ``grid.params`` / ``grid.seq`` / ``grid.seq_mask`` — the serving grid
  and its padded per-segment cell sequences (GridGNN's Eq. 1 input);
* ``reach.indptr`` / ``reach.indices`` — the k-hop closure (CSR);
* ``model.*`` — parameters and buffers (``Module.state_dict`` names);
* ``cache.x_road`` — the eval-mode road-encoder output, a pure function
  of the frozen weights, precomputed once at build time.

The ``model.*`` arrays, ``cache.x_road`` and the manifest's model config
are one :class:`~repro.core.model.ModelSnapshot` packed flat:
:meth:`CityArtifacts.build` packs ``ModelSnapshot.of(model)`` and
:meth:`CityArtifacts.model_snapshot` hands it back as views.

``manifest.json`` carries the format version, a sha256 content hash
over every array, and the non-array metadata (model config, hop count)
needed to rebuild live objects.  There is one format: a bundle written
under any other version is rejected by :meth:`CityArtifacts.load` and
rebuilt in place by :meth:`CityArtifacts.load_or_build`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
from dataclasses import asdict
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..geo.grid import Grid
from ..nn.serialization import load_archive, save_archive
from .network import RoadNetwork

# repro.core imports live inside the functions that need them:
# core.decoder imports repro.trajectory which imports this package, so a
# module-level import would re-enter repro.core.decoder while it is
# still initializing (whichever package imports first).

ARCHIVE_NAME = "city.npz"
MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 2

logger = logging.getLogger(__name__)


def content_hash(arrays: Dict[str, np.ndarray]) -> str:
    """sha256 over every array's name, dtype, shape, and raw bytes, in
    sorted name order — the bundle's identity for cache/deploy checks."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.asarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(repr(value.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


class CityArtifacts:
    """One city's frozen serving state: flat arrays + manifest.

    :meth:`network` is memoized, so every consumer holding the same
    ``CityArtifacts`` shares one :class:`RoadNetwork` — identity, not
    equality — and with it the grid sequences and k-hop closure preloaded
    into it; :meth:`model_snapshot` hands out views of the packed arrays.
    """

    def __init__(self, arrays: Dict[str, np.ndarray], manifest: Dict,
                 directory: Optional[str] = None) -> None:
        self.arrays = arrays
        self.manifest = manifest
        self.directory = directory
        self._network: Optional[RoadNetwork] = None

    # ------------------------------------------------------------------
    # Build / save / load
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, network: RoadNetwork, model=None) -> "CityArtifacts":
        """Freeze ``network`` (and optionally a trained model over it)
        into an artifact bundle.

        With ``model`` given, the network's cell sequences for the model's
        grid and its k-hop closure are packed beside its snapshot: the
        state dict (``model.*``), the config (manifest) and the eval-mode
        X_road, computed once (``cache.x_road``) so no replica ever reruns
        the road encoder.
        """
        arrays: Dict[str, np.ndarray] = {}
        for name, value in network.export_arrays().items():
            arrays["net." + name] = np.asarray(value)
        manifest: Dict = {
            "format": FORMAT_VERSION,
            "num_segments": int(network.num_segments),
        }
        if model is not None:
            grid = model.encoder.grid
            arrays["grid.params"] = grid.to_array()
            arrays["grid.seq"], arrays["grid.seq_mask"] = network.grid_sequences(grid)
            hops = int(model.config.reachability_hops)
            if hops > 0:
                arrays["reach.indptr"], arrays["reach.indices"] = (
                    network.khop_closure(hops))
                manifest["reachability"] = {"hops": hops}
            from ..core.model import ModelSnapshot
            snapshot = ModelSnapshot.of(model)
            for name, value in snapshot.state.items():
                arrays["model." + name] = value
            manifest["model_config"] = asdict(snapshot.config)
            arrays["cache.x_road"] = snapshot.x_road
        manifest["content_hash"] = content_hash(arrays)
        return cls(arrays, manifest)

    def save(self, directory: str) -> str:
        """Publish ``city.npz`` + ``manifest.json`` under ``directory``.

        The pair is written into a fresh directory beside the target and
        moved in by renames, the old manifest unlinked first and the new
        one moved last: a published archive is never opened for writing
        (a live mapping of it keeps its bytes), and a reader finds the old
        pair, the new pair, or no manifest — a cache miss — never an
        archive beside another build's manifest.
        """
        target = os.path.abspath(directory)
        os.makedirs(target, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=f".{os.path.basename(target)}-",
                                   dir=os.path.dirname(target))
        try:
            save_archive(self.arrays, os.path.join(staging, ARCHIVE_NAME))
            with open(os.path.join(staging, MANIFEST_NAME), "w") as handle:
                json.dump(self.manifest, handle, indent=1)
            try:
                os.unlink(os.path.join(target, MANIFEST_NAME))
            except FileNotFoundError:
                pass
            for name in (ARCHIVE_NAME, MANIFEST_NAME):
                os.replace(os.path.join(staging, name), os.path.join(target, name))
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        self.directory = directory
        return directory

    @staticmethod
    def exists(directory: str) -> bool:
        return (os.path.exists(os.path.join(directory, ARCHIVE_NAME))
                and os.path.exists(os.path.join(directory, MANIFEST_NAME)))

    @classmethod
    def load(cls, directory: str, mmap: bool = True,
             verify: bool = False) -> "CityArtifacts":
        """Reload a saved bundle.

        ``mmap=True`` (the default, and the point of the module) maps
        every array as a read-only page-cache-backed view; ``mmap=False``
        materializes private writable copies, one set per load.
        ``verify=True`` re-hashes the arrays against the manifest (reads
        every byte; off by default).
        """
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
            published = os.fstat(handle.fileno())
        found = manifest.get("format") if isinstance(manifest, dict) else None
        if found != FORMAT_VERSION:
            raise ValueError(
                f"unsupported artifact format {found!r} "
                f"in {directory} (expected {FORMAT_VERSION})")
        arrays = load_archive(os.path.join(directory, ARCHIVE_NAME), mmap=mmap)
        try:  # a save in between swapped the pair under this manifest
            current = os.stat(manifest_path)
        except FileNotFoundError:
            current = None
        if current is None or not os.path.samestat(published, current):
            raise ValueError(f"artifact bundle in {directory} was replaced "
                             "while loading")
        if verify and content_hash(arrays) != manifest.get("content_hash"):
            raise ValueError(f"artifact content hash mismatch in {directory}")
        return cls(arrays, manifest, directory)

    @classmethod
    def load_or_build(cls, directory: str, build: Callable[[], "CityArtifacts"]
                      ) -> Tuple["CityArtifacts", str]:
        """The serving cache ladder: ``(bundle, "loaded")`` mmap-loaded
        from ``directory`` when a bundle of this format is there, else
        ``(build(), "built")`` saved over whatever was.  An unsupported
        format or an unreadable manifest is a logged cache miss, not a
        boot failure (this path never hashes, so it cannot mask a
        ``verify=True`` mismatch)."""
        if cls.exists(directory):
            try:
                return cls.load(directory, mmap=True), "loaded"
            except ValueError as error:  # json.JSONDecodeError included
                logger.warning("artifact cache miss, rebuilding: %s", error)
        artifacts = build()
        artifacts.save(directory)
        return artifacts, "built"

    # ------------------------------------------------------------------
    # Live views
    # ------------------------------------------------------------------
    @property
    def content_digest(self) -> Optional[str]:
        return self.manifest.get("content_hash")

    def network(self) -> RoadNetwork:
        """The shared zero-copy road network (one instance per bundle),
        its grid-sequence and k-hop-closure memos preloaded with the
        packed arrays."""
        if self._network is None:
            arrays = self.arrays
            network = RoadNetwork(
                {name[4:]: value for name, value in arrays.items()
                 if name.startswith("net.")})
            grid = self.grid()
            if grid is not None:
                network.preload_grid_sequences(
                    grid, arrays["grid.seq"], arrays["grid.seq_mask"])
            if "reach.indptr" in arrays:
                network.preload_khop_closure(
                    int(self.manifest["reachability"]["hops"]),
                    arrays["reach.indptr"], arrays["reach.indices"])
            self._network = network
        return self._network

    def grid(self) -> Optional[Grid]:
        """The packed serving grid — the floats ``network.make_grid``
        yields for the packed model's cell size."""
        params = self.arrays.get("grid.params")
        return None if params is None else Grid.from_array(params)

    def model_snapshot(self) -> Optional["ModelSnapshot"]:
        """The packed model as a snapshot of raw (possibly read-only)
        views — ``build`` adopts them without a copy — or None when the
        bundle froze only a network."""
        if "model_config" not in self.manifest:
            return None
        from ..core.config import RNTrajRecConfig
        from ..core.model import ModelSnapshot
        state = {name[6:]: value for name, value in self.arrays.items()
                 if name.startswith("model.")}
        return ModelSnapshot(RNTrajRecConfig.from_dict(self.manifest["model_config"]),
                             state, self.arrays.get("cache.x_road"))
