"""GPSFormer — the spatial-temporal transformer encoder (§IV-F).

Pipeline per Eq. 12-13:

1. Sub-Graph Generation turns each GPS point into a weighted sub-graph;
   node features are gathered from X_road and pooled (Eq. 6) into the
   initial per-point vector, concatenated with the normalized timestamp
   and grid index (H^traj, d+3) and projected to d.
2. Sinusoidal position embeddings are added (Eq. 12).
3. N GPSFormerBlocks alternate a transformer encoder layer (temporal) with
   a Graph Refinement Layer (spatial) and a graph readout that feeds the
   next block.
4. The trajectory-level vector ĥ^traj mean-pools the outputs and fuses the
   environmental context f_e (hour one-hot + holiday flag, 25 dims).

Under ``no_grad`` the forward runs on plain arrays from its entry (the
road features' array) to its exit, where the outputs are wrapped as
Tensors: the same module code, minus the tape's objects.

With ``use_grl=False`` (Table V "w/o GRL") blocks degenerate to plain
transformer layers and the graph tensors pass through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import nn, profile
from ..nn import functional as F
from ..nn.tensor import (Tensor, as_tensor, gather_rows, is_grad_enabled, segment_softmax,
                         segment_sum)
from ..geo.grid import Grid
from ..roadnet.network import RoadNetwork
from ..trajectory.dataset import Batch
from .config import RNTrajRecConfig
from .graph_refinement import GraphRefinementLayer, mean_graph_readout, weighted_graph_readout
from .grid_gnn import build_road_encoder
from .subgraph_gen import SubGraphBatch, SubGraphGenerator

ENV_CONTEXT_DIM = 25  # 24-hour one-hot + holiday flag (§VI-A3)
POINT_CONTEXT_DIM = 7  # time, grid row/col, and 4 motion-delta features


def point_context_features(batch: Batch, grid: Grid, delta_scale: float = 1000.0) -> np.ndarray:
    """Shared per-point context: normalized time, grid index, motion deltas.

    The first three dimensions are the paper's H^traj extras (§IV-C).  The
    four delta features (displacement to the previous and next input fix,
    normalized by ``delta_scale`` meters) expose heading explicitly — with
    the paper's 150k-trajectory corpora heading is learnable from context
    alone, at this reproduction's data scale it must be given.  Every
    encoder (RNTrajRec and all baselines) receives the same features, so
    comparisons stay fair.
    """
    duration = np.maximum(batch.input_times[:, -1:], 1e-9)
    t_norm = (batch.input_times / duration)[:, :, None]
    rows, cols = grid.cell_of(batch.input_xy[..., 0], batch.input_xy[..., 1])
    grid_norm = np.stack(
        [rows / max(grid.rows - 1, 1), cols / max(grid.cols - 1, 1)], axis=-1
    )
    deltas = np.diff(batch.input_xy, axis=1) / delta_scale  # (b, l-1, 2)
    zeros = np.zeros((batch.size, 1, 2))
    delta_prev = np.concatenate([zeros, deltas], axis=1)
    delta_next = np.concatenate([deltas, zeros], axis=1)
    return np.concatenate([t_norm, grid_norm, delta_prev, delta_next], axis=-1)


@dataclass
class EncoderOutput:
    """Everything downstream consumers need from the encoder."""

    point_features: Tensor        # (b, l_τ, d) — H^traj
    trajectory_feature: Tensor    # (b, d) — ĥ^traj
    node_features: Optional[Tensor]   # final Z for the graph loss (flat nodes)
    graphs: Optional[SubGraphBatch]


class GPSFormerBlock(nn.Module):
    """Transformer encoder layer + graph refinement layer (Eq. 13)."""

    def __init__(self, config: RNTrajRecConfig, seed: int = 0) -> None:
        super().__init__()
        d = config.hidden_dim
        self.config = config
        self.temporal = nn.TransformerEncoderLayer(
            d, config.num_heads, ffn_dim=2 * d, dropout=config.dropout, seed=seed
        )
        if config.use_grl:
            self.spatial = GraphRefinementLayer(config)
        if config.weight_refinement not in ("none", "sigmoid", "softmax"):
            raise ValueError(f"unknown weight_refinement {config.weight_refinement!r}")
        if config.weight_refinement != "none":
            # §VI-I: learn new per-node readout weights from the refined
            # embeddings (the paper's reported-negative variant).
            self.weight_head = nn.Linear(d, 1)

    def _refined_readout(self, refined: Tensor, graphs: SubGraphBatch) -> Tensor:
        scores = self.weight_head(refined)  # (nodes, 1)
        index = graphs.graph_index
        if self.config.weight_refinement == "sigmoid":
            weights = F.sigmoid(scores)
            return segment_sum(refined * weights, index) / (segment_sum(weights, index) + 1e-9)
        weights = segment_softmax(scores.reshape(-1), index)
        return segment_sum(refined * weights.reshape(-1, 1), index)

    def forward(
        self,
        hidden: Tensor,
        node_features: Optional[Tensor],
        graphs: Optional[SubGraphBatch],
    ) -> Tuple[Tensor, Optional[Tensor]]:
        b, l, d = hidden.shape
        transformed = self.temporal(hidden)
        if not self.config.use_grl or graphs is None:
            return transformed, node_features

        per_step = transformed.reshape(b * l, d)
        refined = self.spatial(per_step, node_features, graphs)
        if self.config.weight_refinement != "none":
            pooled = self._refined_readout(refined, graphs)
        else:
            pooled = mean_graph_readout(refined, graphs)  # (b*l, d)
        return pooled.reshape(b, l, d), refined


class GPSFormer(nn.Module):
    """Full encoder: road representation + N GPSFormerBlocks."""

    def __init__(self, network: RoadNetwork, config: RNTrajRecConfig) -> None:
        super().__init__()
        self.network = network
        self.config = config
        self.grid = network.make_grid(config.grid_cell_size)
        d = config.hidden_dim

        self.road_encoder = build_road_encoder(network, self.grid, config)
        self.subgraph_generator = SubGraphGenerator(network, config)
        self.input_proj = nn.Linear(d + 3 + 4, d)
        self.positional = nn.PositionalEncoding(d, dropout=config.dropout)
        self.blocks = nn.ModuleList(
            GPSFormerBlock(config, seed=i) for i in range(config.num_gpsformer_layers)
        )
        self.context_proj = nn.Linear(d + ENV_CONTEXT_DIM, d)
        # Inference-time memo of X_road (see _road_features).  The
        # generation counter closes the stale-write race: a compute that
        # started before an invalidation must not repopulate the cache.
        self._road_cache: Optional[Tensor] = None
        self._road_cache_generation = 0

    # ------------------------------------------------------------------
    def _input_features(self, batch: Batch, road_features: Tensor,
                        graphs: SubGraphBatch) -> Tuple[Tensor, Tensor]:
        """(H^(0), Z^(0)): projected per-point features and node features."""
        b, l = batch.size, batch.input_length

        node_feats = gather_rows(road_features, graphs.node_segments)
        gps_repr = weighted_graph_readout(node_feats, graphs).reshape(b, l, -1)

        extras = point_context_features(batch, self.grid)
        return self.input_proj(nn.concat([gps_repr, extras], axis=-1)), node_feats

    def _environment(self, batch: Batch) -> np.ndarray:
        """f_e: 24-dim hour one-hot + holiday flag."""
        context = np.zeros((batch.size, ENV_CONTEXT_DIM))
        context[np.arange(batch.size), batch.hours] = 1.0
        context[:, 24] = batch.holidays.astype(np.float64)
        return context

    # ------------------------------------------------------------------
    def clear_road_features(self) -> None:
        """Drop the memoized X_road (call after mutating parameters in-place
        while staying in eval mode; train()/load_state_dict clear it too)."""
        self._road_cache = None
        self._road_cache_generation += 1

    def install_road_features(self, x_road: np.ndarray) -> None:
        """Adopt a precomputed eval-mode X_road (a frozen snapshot's) as
        the memo, so the road encoder never runs for this model."""
        self._road_cache = Tensor(x_road)

    def load_state_dict(self, state, strict: bool = True, copy: bool = True) -> None:
        # Note: Module.load_state_dict on a *parent* assigns parameters
        # directly and never calls this override — RNTrajRec.load_state_dict
        # clears the cache for that path; this covers direct encoder loads.
        self.clear_road_features()
        super().load_state_dict(state, strict=strict, copy=copy)

    def _road_features(self) -> Tensor:
        """X_road — recomputed per forward while training (parameters move
        between steps and gradients must flow), memoized under
        ``eval() + no_grad`` where it is a pure function of frozen weights.
        This turns the road-network encoder into a one-off cost per served
        model instead of a per-request cost."""
        if self.training or is_grad_enabled():
            self._road_cache = None
            with profile.section("encoder.road_features"):
                return as_tensor(self.road_encoder())
        generation = self._road_cache_generation
        cached = self._road_cache  # local read: a concurrent clear() between
        if cached is None:         # check and return must not yield None
            with profile.section("encoder.road_features"):
                cached = as_tensor(self.road_encoder())  # computed on arrays
            if self._road_cache_generation == generation:
                # Only publish if no invalidation (checkpoint load, train()
                # flip) landed while we computed — else the result is stale.
                self._road_cache = cached
        return cached

    def forward(self, batch: Batch) -> EncoderOutput:
        road_features = self._road_features()
        if not is_grad_enabled():  # the array path, entry to exit
            road_features = road_features.data

        # w/o GRL and w/o GCL still use road-aware point features (the
        # paper's w/o GRL variant keeps the input embedding, only drops the
        # refinement layers); the sub-graphs go no further.
        graphs: Optional[SubGraphBatch] = self.subgraph_generator.batch(batch.input_xy)
        hidden, node_features = self._input_features(batch, road_features, graphs)
        if not (self.config.use_grl or self.config.use_graph_loss):
            graphs = node_features = None

        hidden = self.positional(hidden)
        with profile.section("encoder.blocks"):
            for block in self.blocks:
                hidden, node_features = block(hidden, node_features, graphs)

        pooled = F.mean(hidden, axis=1)
        trajectory = self.context_proj(nn.concat([pooled, self._environment(batch)], axis=-1))
        return EncoderOutput(
            point_features=as_tensor(hidden),
            trajectory_feature=as_tensor(trajectory),
            node_features=None if node_features is None else as_tensor(node_features),
            graphs=graphs,
        )
