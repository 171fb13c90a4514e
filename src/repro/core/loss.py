"""Multi-task training losses (§V, Eqs. 16-19).

* ``L_id`` — constrained cross entropy over road segments (Eq. 16);
* ``L_rate`` — mean squared error of moving ratios (Eq. 17);
* ``L_enc`` — graph classification with constraint weights over the final
  sub-graph node features (Eq. 18), supervising the encoder directly;
* total: ``L_id + λ1 L_rate + λ2 L_enc`` (Eq. 19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor, gather_rows, segment_max_array, segment_sum
from ..trajectory.dataset import Batch
from .decoder import DecoderOutput
from .subgraph_gen import SubGraphBatch


@dataclass
class LossBreakdown:
    """Total plus components, as plain floats for logging."""

    total: Tensor
    id_loss: float
    rate_loss: float
    graph_loss: float

    def summary(self) -> Dict[str, float]:
        return {
            "total": self.total.item(),
            "L_id": self.id_loss,
            "L_rate": self.rate_loss,
            "L_enc": self.graph_loss,
        }


def segment_id_loss(output: DecoderOutput, batch: Batch) -> Tensor:
    """Eq. 16: NLL of the true segment under the masked softmax."""
    b, l, v = output.segment_log_probs.shape
    flat_log_probs = output.segment_log_probs.reshape(b * l, v)
    targets = batch.target_segments.reshape(-1)
    return F.nll_loss(flat_log_probs, targets)


def rate_loss(output: DecoderOutput, batch: Batch) -> Tensor:
    """Eq. 17: MSE between predicted and true moving ratios."""
    return F.mse_loss(output.rates, batch.target_ratios)


def graph_classification_loss(
    node_features: Tensor,
    graphs: SubGraphBatch,
    projection: Tensor,
    batch: Batch,
) -> Tensor:
    """Eq. 18: weighted softmax over each input point's sub-graph nodes.

    The true class of sub-graph (i, j) is the node whose road segment is
    the ground-truth segment at that observed timestep; points whose true
    segment fell outside the δ-ball contribute nothing (their influence
    weight would be zero anyway).
    """
    scores = (node_features @ projection).reshape(-1)  # (total_nodes,)
    masked_scores = scores + np.log(np.maximum(graphs.node_weights, 1e-12))

    # log softmax within each sub-graph.
    num_graphs, index = graphs.num_graphs, graphs.graph_index
    shifted = masked_scores - segment_max_array(masked_scores.data, index)[graphs.graph_ids]
    exp = shifted.exp()
    denom = segment_sum(exp.reshape(-1, 1), index).reshape(-1)
    log_denom = (denom + 1e-12).log()

    # Ground-truth segment per input point: target at the observed steps.
    b, l_tau = batch.observed_steps.shape
    true_segments = np.take_along_axis(
        batch.target_segments, batch.observed_steps, axis=1
    ).reshape(-1)  # (b * l_τ,)

    target_per_graph = true_segments[graphs.graph_ids]
    hit = graphs.node_segments == target_per_graph
    if not hit.any():
        return Tensor(np.zeros(()))

    node_log_probs = shifted - gather_rows(log_denom.reshape(-1, 1), index).reshape(-1)
    picked = node_log_probs * hit.astype(np.float64)
    # One hit per graph at most; average over graphs that have one.
    graphs_with_hit = max(int(np.bincount(graphs.graph_ids[hit], minlength=num_graphs).astype(bool).sum()), 1)
    return -picked.sum() * (1.0 / graphs_with_hit)


def total_loss(
    output: DecoderOutput,
    batch: Batch,
    node_features: Optional[Tensor],
    graphs: Optional[SubGraphBatch],
    graph_projection: Optional[Tensor],
    lambda_rate: float,
    lambda_graph: float,
    use_graph_loss: bool,
) -> LossBreakdown:
    """Eq. 19 with component logging."""
    id_term = segment_id_loss(output, batch)
    rate_term = rate_loss(output, batch)
    total = id_term + lambda_rate * rate_term

    graph_value = 0.0
    if use_graph_loss and node_features is not None and graphs is not None and graph_projection is not None:
        graph_term = graph_classification_loss(node_features, graphs, graph_projection, batch)
        total = total + lambda_graph * graph_term
        graph_value = float(graph_term.item())

    return LossBreakdown(
        total=total,
        id_loss=float(id_term.item()),
        rate_loss=float(rate_term.item()),
        graph_loss=graph_value,
    )
