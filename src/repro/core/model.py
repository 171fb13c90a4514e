"""RNTrajRec — the end-to-end model (Fig. 2).

``GridGNN`` (road representation) → ``SubGraphGeneration`` → ``GPSFormer``
(spatial-temporal transformer encoder) → attention GRU decoder with
constraint masks and multi-task heads.  The public surface is:

* :meth:`RNTrajRec.compute_loss` — teacher-forced training loss (Eq. 19);
* :meth:`RNTrajRec.recover` — greedy recovery of the ε_ρ trajectory grid;
* :meth:`RNTrajRec.recover_trajectories` — the same, packaged as
  :class:`~repro.trajectory.trajectory.MatchedTrajectory` objects.

A served model ships as a :class:`ModelSnapshot` — (config, state,
X_road) — whatever it ships in: a bundle, a city artifact or a worker
deploy; :meth:`ModelSnapshot.build` is the one way back to a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import nn, profile
from ..nn.tensor import no_grad
from ..roadnet.network import RoadNetwork
from ..trajectory.dataset import Batch
from ..trajectory.trajectory import MatchedTrajectory
from .config import RNTrajRecConfig
from .decoder import DecodeConstraint, ReachabilityMask, RecoveryDecoder, decode_constraint
from .gps_former import EncoderOutput, GPSFormer
from .loss import LossBreakdown, total_loss


class RNTrajRec(nn.Module):
    """Road Network enhanced Trajectory Recovery model."""

    def __init__(self, network: RoadNetwork,
                 config: Optional[RNTrajRecConfig] = None) -> None:
        super().__init__()
        self.network = network
        self.config = config or RNTrajRecConfig()
        self.encoder = GPSFormer(network, self.config)
        self.decoder = RecoveryDecoder(network.num_segments, self.config)
        # Projection w of Eq. 18 (graph classification loss).
        self.graph_projection = nn.Parameter(
            nn.init.xavier_uniform(self.config.hidden_dim, 1), name="model.graph_projection"
        )

    def train(self, mode: bool = True) -> "RNTrajRec":
        # Any train/eval flip may precede in-place parameter updates, so the
        # encoder's memoized X_road must not survive the transition; an
        # eval() of an eval model is no transition and keeps it.
        if mode != self.training:
            self.encoder.clear_road_features()
        return super().train(mode)

    def load_state_dict(self, state, strict: bool = True, copy: bool = True) -> None:
        # The base implementation assigns parameters directly via
        # named_parameters() (it never recurses into submodule overrides),
        # so the encoder's memoized X_road must be dropped here — this is
        # the path load_checkpoint and the serving registry go through.
        self.encoder.clear_road_features()
        super().load_state_dict(state, strict=strict, copy=copy)

    @property
    def reachability(self) -> Optional[ReachabilityMask]:
        """The decode-time k-hop mask — a view of the closure memoized on
        the network, so it is shared by every model over that network."""
        hops = self.config.reachability_hops
        return ReachabilityMask(self.network, hops) if hops > 0 else None

    # ------------------------------------------------------------------
    def encode(self, batch: Batch) -> EncoderOutput:
        return self.encoder(batch)

    def compute_loss(self, batch: Batch, teacher_forcing_ratio: float = 0.5,
                     rng: Optional[np.random.Generator] = None) -> LossBreakdown:
        """Scheduled-sampling multi-task loss on one mini-batch."""
        encoded = self.encode(batch)
        constraint = decode_constraint(batch, self.network, 0.0,
                                       self.config.decode_prior_floor)
        decoded = self.decoder.forward_teacher(
            encoded.point_features, encoded.trajectory_feature, batch, constraint,
            teacher_forcing_ratio=teacher_forcing_ratio, rng=rng,
        )
        return total_loss(
            decoded,
            batch,
            encoded.node_features,
            encoded.graphs,
            self.graph_projection,
            lambda_rate=self.config.lambda_rate,
            lambda_graph=self.config.lambda_graph,
            use_graph_loss=self.config.use_graph_loss,
        )

    # ------------------------------------------------------------------
    def decode_constraint(self, batch: Batch, start: int = 0) -> DecodeConstraint:
        """The sparse decode-time mask for grid steps ``[start:]``
        (:func:`~repro.core.decoder.decode_constraint` under this model's
        config): the one builder behind :meth:`recover` and every engine
        admission, one-shot requests and streaming suffixes alike."""
        return decode_constraint(
            batch, self.network, self.config.decode_prior_scale,
            self.config.decode_prior_floor, start)

    def recover(self, batch: Batch) -> Tuple[np.ndarray, np.ndarray]:
        """Greedily recover segments/rates (b, l_ρ).  Runs under
        ``no_grad`` — inference never needs the autograd graph, and the
        encoder can memoize X_road."""
        with no_grad(), profile.section("model.recover"):
            with profile.section("model.encode"):
                encoded = self.encode(batch)
            constraint = self.decode_constraint(batch)
            return self.decoder.decode_greedy(
                encoded.point_features,
                encoded.trajectory_feature,
                batch.target_length,
                constraint,
                reachability=self.reachability,
            )

    def recover_trajectories(self, batch: Batch) -> List[MatchedTrajectory]:
        """Recovered trajectories as first-class objects."""
        segments, rates = self.recover(batch)
        return [
            MatchedTrajectory(segments[i], rates[i], batch.target_times[i])
            for i in range(batch.size)
        ]


@dataclass(frozen=True, eq=False)
class ModelSnapshot:
    """A frozen model as it ships: the config, the state dict and the
    eval-mode X_road (GridGNN's road-segment embeddings, §IV-B — a pure
    function of the frozen weights, so ``None`` just means "compute on the
    first request").  Bundles, city artifacts and worker deploys all read
    back as one; the network never travels with it."""

    config: RNTrajRecConfig
    state: Dict[str, np.ndarray]
    x_road: Optional[np.ndarray] = None

    @classmethod
    def of(cls, model: RNTrajRec) -> "ModelSnapshot":
        """Freeze ``model``: a copy of its state and its X_road, computed
        under eval + ``no_grad`` (the model's own mode is restored)."""
        was_training = model.training
        model.eval()
        with no_grad():
            x_road = np.asarray(model.encoder._road_features().data)
        if was_training:
            model.train()
        return cls(model.config, model.state_dict(), x_road)

    def build(self, network: RoadNetwork) -> RNTrajRec:
        """The eval model over ``network``: the state adopted without a
        copy (read-only views stay read-only, so the model is frozen), the
        network's k-hop closure warmed and X_road installed."""
        model = RNTrajRec(network, self.config)
        model.load_state_dict(self.state, copy=False)
        model.eval()
        _ = model.reachability
        if self.x_road is not None:
            model.encoder.install_road_features(self.x_road)
        return model
