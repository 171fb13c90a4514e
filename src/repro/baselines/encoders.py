"""Encoder architectures of the end-to-end baselines (§VI-A4).

Each class maps a :class:`~repro.trajectory.dataset.Batch` to per-point
hidden states ``(b, l_τ, d)`` and is paired with the shared MTrajRec
decoder by :class:`~repro.baselines.seq2seq.Seq2SeqRecovery`:

* :class:`MTrajRecEncoder` — plain GRU (MTrajRec [11]);
* :class:`T2VecEncoder` — bidirectional GRU (t2vec [6] uses BiLSTM; the
  recurrent family is interchangeable at this scale);
* :class:`TransformerBaselineEncoder` — Vaswani encoder over grid/time
  inputs (the paper's "Transformer + Decoder");
* :class:`T3SEncoder` — self-attention branch + spatial LSTM branch,
  summed (T3S [8]);
* :class:`NeuTrajEncoder` — GRU with a spatial-memory attention over
  neighboring grid cells (NeuTraj [7]'s SAM, simplified);
* :class:`GTSEncoder` — GAT over the road graph; each point is represented
  by its nearest segment ("POI") embedding, then a GRU (GTS [10]).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor, gather_rows
from ..geo.grid import Grid
from ..roadnet.network import RoadNetwork
from ..trajectory.dataset import Batch
from ..core.config import RNTrajRecConfig
from .seq2seq import InputEmbedding


class MTrajRecEncoder(nn.Module):
    """GRU encoder of MTrajRec."""

    def __init__(self, grid: Grid, config: RNTrajRecConfig) -> None:
        super().__init__()
        d = config.hidden_dim
        self.embed = InputEmbedding(grid, d)
        self.rnn = nn.GRU(d, d)

    def forward(self, batch: Batch) -> Tensor:
        outputs, _ = self.rnn(self.embed(batch))
        return outputs


class T2VecEncoder(nn.Module):
    """Bidirectional recurrent encoder of t2vec."""

    def __init__(self, grid: Grid, config: RNTrajRecConfig) -> None:
        super().__init__()
        d = config.hidden_dim
        self.embed = InputEmbedding(grid, d)
        self.rnn = nn.BiGRU(d, d)

    def forward(self, batch: Batch) -> Tensor:
        outputs, _ = self.rnn(self.embed(batch))
        return outputs


class TransformerBaselineEncoder(nn.Module):
    """Transformer encoder over grid-cell and time inputs."""

    def __init__(self, grid: Grid, config: RNTrajRecConfig) -> None:
        super().__init__()
        d = config.hidden_dim
        self.embed = InputEmbedding(grid, d)
        self.transformer = nn.TransformerEncoder(
            d, config.num_heads, num_layers=config.num_gpsformer_layers,
            ffn_dim=2 * d, dropout=config.dropout,
        )

    def forward(self, batch: Batch) -> Tensor:
        return self.transformer(self.embed(batch))


class T3SEncoder(nn.Module):
    """T3S: structural self-attention + spatial LSTM, fused by addition."""

    def __init__(self, grid: Grid, config: RNTrajRecConfig) -> None:
        super().__init__()
        d = config.hidden_dim
        self.embed = InputEmbedding(grid, d)
        self.attention_layer = nn.TransformerEncoderLayer(d, config.num_heads, ffn_dim=2 * d)
        self.lstm = nn.LSTM(d, d)

    def forward(self, batch: Batch) -> Tensor:
        embedded = self.embed(batch)
        structural = self.attention_layer(embedded)
        spatial, _ = self.lstm(embedded)
        return structural + spatial


class NeuTrajEncoder(nn.Module):
    """NeuTraj: GRU + spatial-attention memory over neighboring cells.

    For each input point, the embeddings of its 3×3 grid-cell neighborhood
    form a small memory; additive attention with the GRU state as query
    produces a spatial context fused into the output (a faithful
    miniaturization of NeuTraj's spatial-memory augmentation).
    """

    def __init__(self, grid: Grid, config: RNTrajRecConfig) -> None:
        super().__init__()
        d = config.hidden_dim
        self.grid = grid
        self.embed = InputEmbedding(grid, d)
        self.rnn = nn.GRU(d, d)
        self.memory_attention = nn.AdditiveAttention(d)
        self.fuse = nn.Linear(2 * d, d)

    def _neighborhood_cells(self, batch: Batch) -> np.ndarray:
        rows, cols = self.grid.cell_of(batch.input_xy[..., 0], batch.input_xy[..., 1])
        offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
        stacked = []
        for dr, dc in offsets:
            r = np.clip(rows + dr, 0, self.grid.rows - 1)
            c = np.clip(cols + dc, 0, self.grid.cols - 1)
            stacked.append(self.grid.flat_index(r, c))
        return np.stack(stacked, axis=-1)  # (b, l, 9)

    def forward(self, batch: Batch) -> Tensor:
        embedded = self.embed(batch)
        outputs, _ = self.rnn(embedded)
        b, l, d = outputs.shape

        cells = self._neighborhood_cells(batch)  # (b, l, 9)
        memory = self.embed.cell_embedding(cells.reshape(b * l, 9))  # (b*l, 9, d)
        query = outputs.reshape(b * l, d)
        context = self.memory_attention(query, memory)  # (b*l, d)
        fused = F.relu(self.fuse(nn.concat([query, context], axis=-1)))
        return fused.reshape(b, l, d)


class GTSEncoder(nn.Module):
    """GTS: graph-based point representation in the spatial network.

    GTS embeds POIs with a GNN over the spatial network and represents
    each GPS point by its nearest POI.  Here segments play the POI role:
    a GAT stack over the road graph produces segment embeddings, each
    input point gathers its nearest segment's embedding, and a GRU models
    the sequence.
    """

    def __init__(self, network: RoadNetwork, grid: Grid, config: RNTrajRecConfig) -> None:
        super().__init__()
        d = config.hidden_dim
        self.network = network
        self.embed = InputEmbedding(grid, d)
        self.node_embedding = nn.Embedding(network.num_segments, d)
        self.gnn = nn.GraphStack("gat", d, num_layers=2, num_heads=config.num_heads)
        self.fuse = nn.Linear(2 * d, d)
        self.rnn = nn.GRU(d, d)
        self._edge_index = nn.add_self_loops(network.edge_index(), network.num_segments)
        self._nearest_cache: dict[tuple[int, int], int] = {}

    def _nearest_segments(self, batch: Batch) -> np.ndarray:
        flat = batch.input_xy.reshape(-1, 2)
        out = np.zeros(len(flat), dtype=np.int64)
        for i, (x, y) in enumerate(flat):
            key = (int(round(x)), int(round(y)))
            sid = self._nearest_cache.get(key)
            if sid is None:
                sid, _, _ = self.network.nearest_segment(float(x), float(y))
                self._nearest_cache[key] = sid
            out[i] = sid
        return out.reshape(batch.size, batch.input_length)

    def forward(self, batch: Batch) -> Tensor:
        node_features = self.gnn(
            self.node_embedding(np.arange(self.network.num_segments)), self._edge_index
        )
        nearest = self._nearest_segments(batch)
        point_graph = gather_rows(node_features, nearest)  # (b, l, d)
        embedded = self.embed(batch)
        fused = F.relu(self.fuse(nn.concat([embedded, point_graph], axis=-1)))
        outputs, _ = self.rnn(fused)
        return outputs
