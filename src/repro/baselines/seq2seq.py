"""Shared seq2seq scaffolding for the end-to-end baselines.

Per the paper's Remark 2, every learned baseline "A + Decoder" couples the
encoder proposed by method A with the MTrajRec decoder [11].  This module
provides

* :func:`encoder_input_features` — the common per-point inputs (grid-cell
  embedding + time/grid/motion context, exactly what the paper's
  Transformer baseline consumes: "grid cell index and time index");
* :class:`Seq2SeqRecovery` — wraps any encoder with the shared
  :class:`~repro.core.decoder.RecoveryDecoder`, the constraint-mask loss
  (L_id + λ1 L_rate, no graph loss) and greedy recovery, satisfying the
  same trainer protocol as RNTrajRec.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor, as_tensor, no_grad
from ..geo.grid import Grid
from ..roadnet.network import RoadNetwork
from ..trajectory.dataset import Batch
from ..trajectory.trajectory import MatchedTrajectory
from ..core.config import RNTrajRecConfig
from ..core.decoder import ReachabilityMask, RecoveryDecoder, decode_constraint
from ..core.gps_former import ENV_CONTEXT_DIM, POINT_CONTEXT_DIM, point_context_features
from ..core.loss import LossBreakdown, total_loss


class InputEmbedding(nn.Module):
    """Grid-cell embedding + shared context features, projected to d."""

    def __init__(self, grid: Grid, hidden_dim: int) -> None:
        super().__init__()
        self.grid = grid
        self.cell_embedding = nn.Embedding(grid.num_cells, hidden_dim)
        self.proj = nn.Linear(hidden_dim + POINT_CONTEXT_DIM, hidden_dim)

    def forward(self, batch: Batch) -> Tensor:
        cells = self.grid.flat_cell_of(batch.input_xy[..., 0], batch.input_xy[..., 1])
        embedded = self.cell_embedding(cells)  # (b, l, d); arrays under no_grad
        context = point_context_features(batch, self.grid)
        return self.proj(nn.concat([embedded, context], axis=-1))


class TrajectoryContextHead(nn.Module):
    """Mean-pool + environmental context → trajectory-level vector."""

    def __init__(self, hidden_dim: int) -> None:
        super().__init__()
        self.proj = nn.Linear(hidden_dim + ENV_CONTEXT_DIM, hidden_dim)

    def forward(self, point_features: Tensor, batch: Batch) -> Tensor:
        context = np.zeros((batch.size, ENV_CONTEXT_DIM))
        context[np.arange(batch.size), batch.hours] = 1.0
        context[:, 24] = batch.holidays.astype(np.float64)
        pooled = F.mean(point_features, axis=1)
        return self.proj(nn.concat([pooled, context], axis=-1))


class Seq2SeqRecovery(nn.Module):
    """Encoder + shared MTrajRec decoder = one end-to-end baseline."""

    def __init__(self, network: RoadNetwork, encoder: nn.Module,
                 config: Optional[RNTrajRecConfig] = None) -> None:
        super().__init__()
        self.network = network
        self.config = config or RNTrajRecConfig()
        self.encoder = encoder
        self.context_head = TrajectoryContextHead(self.config.hidden_dim)
        self.decoder = RecoveryDecoder(network.num_segments, self.config)

    @property
    def reachability(self) -> Optional[ReachabilityMask]:
        hops = self.config.reachability_hops
        return ReachabilityMask(self.network, hops) if hops > 0 else None

    # ------------------------------------------------------------------
    def _encode(self, batch: Batch) -> Tuple[Tensor, Tensor]:
        point_features = self.encoder(batch)
        trajectory_feature = self.context_head(point_features, batch)
        return as_tensor(point_features), as_tensor(trajectory_feature)

    def compute_loss(self, batch: Batch, teacher_forcing_ratio: float = 0.5,
                     rng: Optional[np.random.Generator] = None) -> LossBreakdown:
        point_features, trajectory_feature = self._encode(batch)
        constraint = decode_constraint(batch, self.network, 0.0,
                                       self.config.decode_prior_floor)
        decoded = self.decoder.forward_teacher(
            point_features, trajectory_feature, batch, constraint,
            teacher_forcing_ratio=teacher_forcing_ratio, rng=rng,
        )
        return total_loss(
            decoded, batch,
            node_features=None, graphs=None, graph_projection=None,
            lambda_rate=self.config.lambda_rate,
            lambda_graph=0.0, use_graph_loss=False,
        )

    def recover(self, batch: Batch) -> Tuple[np.ndarray, np.ndarray]:
        with no_grad():
            point_features, trajectory_feature = self._encode(batch)
            constraint = decode_constraint(
                batch, self.network, self.config.decode_prior_scale,
                self.config.decode_prior_floor)
            return self.decoder.decode_greedy(
                point_features, trajectory_feature, batch.target_length,
                constraint, reachability=self.reachability,
            )

    def recover_trajectories(self, batch: Batch) -> List[MatchedTrajectory]:
        segments, rates = self.recover(batch)
        return [
            MatchedTrajectory(segments[i], rates[i], batch.target_times[i])
            for i in range(batch.size)
        ]
