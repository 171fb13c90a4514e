"""Graph Refinement Layer (GRL, §IV-D) and GraphNorm (Eqs. 8-9).

GRL is the spatial half of a GPSFormerBlock.  Per sub-layer the output is
``GraphNorm(x + SubLayer(x))`` where SubLayer is

* **GatedFusion** (Eq. 7): adaptively blends each node's features with the
  transformer output of its timestep, ``z ⊙ tr + (1-z) ⊙ Z``;
* **GraphForward**: P stacked GAT layers over the sub-graph edges.

Ablation switches substitute concat+FFN for gated fusion (w/o GF),
LayerNorm for GraphNorm (w/o GN), and an FFN for the GAT (w/o GAT),
matching Table V's variants.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import (Tensor, array_of, gather_rows, scatter_sum_array,
                         segment_mean, segment_sum)
from .config import RNTrajRecConfig
from .subgraph_gen import SubGraphBatch


class GraphNorm(nn.Module):
    """Normalization of Eq. 9: batch statistics computed graph-aware.

    μ_B averages the per-graph mean-pooled features (Eq. 8); σ_B is the
    variance of *node* features around μ_B.  Running estimates are kept for
    inference, mirroring batch norm.
    """

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.momentum = momentum
        self.gamma = nn.Parameter(np.ones(dim), name="graphnorm.gamma")
        self.beta = nn.Parameter(np.zeros(dim), name="graphnorm.beta")
        self.register_buffer("running_mean", np.zeros(dim))
        self.register_buffer("running_var", np.ones(dim))

    def forward(self, nodes: Tensor, graphs: SubGraphBatch) -> Tensor:
        if self.training:
            pooled = segment_mean(nodes, graphs.graph_index)
            mu = F.mean(pooled, axis=0)  # (d,) — Eq. 9 first line
            centered = nodes - mu
            var = F.mean(centered * centered, axis=0)  # over all nodes
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * array_of(mu)
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * array_of(var)
            normalized = centered / F.sqrt(var + self.eps)
        else:
            normalized = (nodes - self.running_mean) / np.sqrt(self.running_var + self.eps)
        return normalized * self.gamma + self.beta


class GatedFusion(nn.Module):
    """Eq. 7: z = σ(tr W1 + Z W2 + b); out = z ⊙ tr + (1 - z) ⊙ Z."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.w_tr = nn.Linear(dim, dim, bias=False)
        self.w_z = nn.Linear(dim, dim)

    def forward(self, node_features: Tensor, timestep_features: Tensor,
                graphs: SubGraphBatch) -> Tensor:
        # Broadcast each timestep's transformer output to its nodes.
        tr_per_node = gather_rows(timestep_features, graphs.graph_index)
        gate = F.sigmoid(self.w_tr(tr_per_node) + self.w_z(node_features))
        return gate * tr_per_node + (1.0 - gate) * node_features


class ConcatFusion(nn.Module):
    """The w/o-GF ablation: concatenation followed by a feed-forward net."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.ffn = nn.Sequential(nn.Linear(2 * dim, dim))

    def forward(self, node_features: Tensor, timestep_features: Tensor,
                graphs: SubGraphBatch) -> Tensor:
        tr_per_node = gather_rows(timestep_features, graphs.graph_index)
        return F.relu(self.ffn(nn.concat([tr_per_node, node_features], axis=-1)))


class GraphRefinementLayer(nn.Module):
    """One GRL: gated fusion + graph forward, each with residual + norm."""

    def __init__(self, config: RNTrajRecConfig) -> None:
        super().__init__()
        d = config.hidden_dim
        self.config = config

        if config.use_gated_fusion:
            self.fusion = GatedFusion(d)
        else:
            self.fusion = ConcatFusion(d)

        if config.use_gat_forward:
            self.graph_forward = nn.ModuleList(
                nn.GATLayer(d, d, num_heads=config.num_heads)
                for _ in range(config.num_grl_gat_layers)
            )
        else:
            self.graph_forward = nn.ModuleList([nn.FeedForward(d, 2 * d)])

        if config.use_graph_norm:
            self.norm1 = GraphNorm(d)
            self.norm2 = GraphNorm(d)
        else:
            self.norm1 = nn.LayerNorm(d)
            self.norm2 = nn.LayerNorm(d)

    def _normalize(self, norm: nn.Module, nodes: Tensor, graphs: SubGraphBatch) -> Tensor:
        if isinstance(norm, GraphNorm):
            return norm(nodes, graphs)
        return norm(nodes)

    def forward(self, timestep_features: Tensor, node_features: Tensor,
                graphs: SubGraphBatch) -> Tensor:
        fused = self.fusion(node_features, timestep_features, graphs)
        nodes = self._normalize(self.norm1, node_features + fused, graphs)

        forwarded = nodes
        for layer in self.graph_forward:
            if isinstance(layer, nn.GATLayer):
                forwarded = layer(forwarded, graphs.edge_index, graphs.target_index)
            else:
                forwarded = layer(forwarded)
        nodes = self._normalize(self.norm2, nodes + forwarded, graphs)
        return nodes


def weighted_graph_readout(nodes: Tensor, graphs: SubGraphBatch) -> Tensor:
    """Eq. 6 pooling: influence-weighted mean of node features per graph."""
    totals = segment_sum(nodes * graphs.node_weights[:, None], graphs.graph_index)
    denom = scatter_sum_array(graphs.node_weights, graphs.graph_index)
    return totals * (1.0 / np.maximum(denom, 1e-12))[:, None]


def mean_graph_readout(nodes: Tensor, graphs: SubGraphBatch) -> Tensor:
    """Eq. 8 / Eq. 13 GraphReadout: plain mean pooling per sub-graph."""
    return segment_mean(nodes, graphs.graph_index)
