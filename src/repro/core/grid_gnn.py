"""GridGNN — grid-partitioned road network representation (§IV-B).

Every road segment is described two ways at once:

1. the sequence of 50 m grid cells its geometry passes through, encoded by
   a GRU over grid-cell embeddings (Eq. 1), added to a per-segment ID
   embedding (Eq. 2);
2. M stacked GAT layers over the segment connectivity graph (Eqs. 3-4).

The result is concatenated with the 11 static features f_r and projected
to ``hidden_dim`` (the final X_road).  Alternative encoders (plain
GCN/GIN/GAT over ID embeddings) implement the Fig. 7(a) comparison.
"""

from __future__ import annotations

import numpy as np

from .. import nn, profile
from ..nn import functional as F
from ..nn.tensor import Tensor
from ..geo.grid import Grid
from ..roadnet.network import RoadNetwork
from .config import RNTrajRecConfig


class GridGNN(nn.Module):
    """Road network encoder producing X_road ∈ R^{|V| × d}."""

    def __init__(self, network: RoadNetwork, grid: Grid, config: RNTrajRecConfig) -> None:
        super().__init__()
        self.network = network
        self.grid = grid
        self.config = config
        d = config.hidden_dim

        # Grid sequences are a static property of the geometry; the network
        # memoizes the padded (V, max_len) index matrix + validity mask so
        # every encoder over the same network+grid shares one pair (and
        # artifact-backed networks preload it without walking polylines).
        self._grid_seq, self._grid_mask = network.grid_sequences(grid)
        self._max_len = self._grid_seq.shape[1]
        num_segments = network.num_segments

        self.grid_embedding = nn.Embedding(grid.num_cells, d)
        self.road_embedding = nn.Embedding(num_segments, d)
        self.grid_gru = nn.GRUCell(d, d)
        self.gat_layers = nn.ModuleList(
            nn.GATLayer(d, d, num_heads=config.num_heads)
            for _ in range(config.num_road_gat_layers)
        )
        static = network.static_features()
        self._static = static
        self.fuse = nn.Linear(d + static.shape[1], d)

        # Self-loops keep isolated segments differentiable through GAT.
        # The looped index is memoized on the network and shared.
        self._edge_index = network.edge_index_loops()

    def grid_sequence(self, segment_id: int) -> np.ndarray:
        """The (unpadded) grid-cell index sequence of one segment."""
        length = int(self._grid_mask[segment_id].sum())
        return self._grid_seq[segment_id, :length]

    def forward(self) -> Tensor:
        """Compute X_road for the whole network in one pass."""
        d = self.config.hidden_dim
        num_segments = self.network.num_segments

        # --- Grid-sequence GRU (Eq. 1), batched over all segments -------
        with profile.section("road.grid_gru"):
            state = np.zeros((num_segments, d))
            for step in range(self._max_len):
                cell_embed = self.grid_embedding(self._grid_seq[:, step])
                candidate = self.grid_gru(cell_embed, state)
                # Only advance segments whose sequence is still running.
                mask = self._grid_mask[:, step][:, None]
                state = candidate * mask + state * (1.0 - mask)

        # --- Eq. 2: add the segment ID embedding ------------------------
        identity = self.road_embedding(np.arange(num_segments))
        hidden = F.relu(state + identity)

        # --- Eqs. 3-4: M GAT layers over the connectivity graph ---------
        with profile.section("road.gat"):
            edge_index, targets = nn.edge_targets(self._edge_index, num_segments)
            for layer in self.gat_layers:
                hidden = layer(hidden, edge_index, targets)

        # --- Static feature fusion --------------------------------------
        return self.fuse(nn.concat([hidden, self._static], axis=-1))


class PlainRoadEncoder(nn.Module):
    """Fig. 7(a) alternatives: GCN / GIN / GAT over ID embeddings only."""

    def __init__(self, network: RoadNetwork, config: RNTrajRecConfig, kind: str) -> None:
        super().__init__()
        d = config.hidden_dim
        self.network = network
        self.road_embedding = nn.Embedding(network.num_segments, d)
        self.stack = nn.GraphStack(kind, d, config.num_road_gat_layers, num_heads=config.num_heads)
        static = network.static_features()
        self._static = static
        self.fuse = nn.Linear(d + static.shape[1], d)
        self._edge_index = network.edge_index_loops()

    def forward(self) -> Tensor:
        hidden = self.road_embedding(np.arange(self.network.num_segments))
        hidden = self.stack(hidden, self._edge_index)
        return self.fuse(nn.concat([hidden, self._static], axis=-1))


def build_road_encoder(network: RoadNetwork, grid: Grid, config: RNTrajRecConfig) -> nn.Module:
    """Factory keyed on ``config.road_encoder``."""
    kind = config.road_encoder.lower()
    if kind == "gridgnn":
        return GridGNN(network, grid, config)
    return PlainRoadEncoder(network, config, kind)
