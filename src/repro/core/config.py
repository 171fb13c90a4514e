"""Configuration for RNTrajRec and its ablation variants (§VI-A3, §VI-G).

Defaults follow the paper where they are computationally feasible on CPU:
M = N = 2 stacked layers, P = 1 GAT in the graph refinement layer,
δ = 400 m receptive field, γ = 30 m influence scale, β = 15 m constraint
kernel, λ1 = 10, λ2 = 0.1, 8 attention heads.  The hidden size defaults to
32 instead of the paper's 512 — the substrate is numpy on CPU, and the
benchmark harness compares methods at matched capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class RNTrajRecConfig:
    """Hyper-parameters of the full model; flags switch ablation variants."""

    hidden_dim: int = 32
    num_heads: int = 4
    num_road_gat_layers: int = 2    # M — GAT depth in GridGNN
    num_gpsformer_layers: int = 2   # N — GPSFormerBlock count
    num_grl_gat_layers: int = 1     # P — GAT depth in graph refinement
    receptive_delta: float = 400.0  # δ meters, sub-graph radius
    influence_gamma: float = 30.0   # γ meters, Eq. 5 kernel
    constraint_beta: float = 15.0   # β meters, Eq. 16 mask kernel
    lambda_rate: float = 10.0       # λ1
    lambda_graph: float = 0.1       # λ2
    grid_cell_size: float = 50.0
    dropout: float = 0.1
    max_subgraph_nodes: int = 48    # cap per sub-graph for tractability

    # Ablation switches (Table V) — all True for the full model.
    use_grl: bool = True            # w/o GRL: plain transformer stack
    use_gated_fusion: bool = True   # w/o GF: concat + FFN
    use_graph_norm: bool = True     # w/o GN: layer norm
    use_gat_forward: bool = True    # w/o GAT: feed-forward graph update
    use_graph_loss: bool = True     # w/o GCL: drop L_enc

    # Fig. 7(a): road-network encoder choice.
    road_encoder: str = "gridgnn"   # gridgnn | gcn | gin | gat

    # §VI-I (Discussion): refine per-node sub-graph weights from the
    # refined embeddings before each graph readout.  The paper reports this
    # *hurts* (linear transformation too weak without supervision); kept to
    # reproduce that negative result.  none | sigmoid | softmax.
    weight_refinement: str = "none"

    # Spatial-consistency decoding (k-hop reachability mask at inference;
    # 0 disables).  Applied to every learned method by the harness.
    reachability_hops: int = 2

    # Decode-time position prior: unobserved steps multiply the candidate
    # mask by exp(-d²/scale²) where d is the segment's distance to the
    # linearly interpolated position.  A Bayesian combination of the
    # learned logits with the uniform-speed prior; shared by all learned
    # methods so the comparison isolates the encoders.  0 disables.
    decode_prior_scale: float = 150.0
    decode_prior_floor: float = 0.005

    def __post_init__(self) -> None:
        if not self.decode_prior_scale >= 0:
            raise ValueError(
                f"decode_prior_scale must be >= 0, got {self.decode_prior_scale}")
        if not 0.0 <= self.decode_prior_floor <= 1.0:
            raise ValueError(
                f"decode_prior_floor must be in [0, 1], got {self.decode_prior_floor}")

    @classmethod
    def from_dict(cls, fields: Dict[str, Any]) -> "RNTrajRecConfig":
        """The config a saved ``asdict`` form describes (a bundle sidecar,
        an artifact manifest); keys this version does not know are
        ignored, so a newer writer's extra fields never break a reader."""
        return cls(**{k: v for k, v in fields.items()
                      if k in cls.__dataclass_fields__})

    def variant(self, **overrides) -> "RNTrajRecConfig":
        """A copy with some fields replaced (ablation helper)."""
        return replace(self, **overrides)

    def ablation(self, name: str) -> "RNTrajRecConfig":
        """Named Table-V variants: 'grl', 'gf', 'gat', 'gn', 'gcl'."""
        mapping = {
            "grl": {"use_grl": False},
            "gf": {"use_gated_fusion": False},
            "gat": {"use_gat_forward": False},
            "gn": {"use_graph_norm": False},
            "gcl": {"use_graph_loss": False},
        }
        if name not in mapping:
            raise ValueError(f"unknown ablation {name!r}; expected one of {sorted(mapping)}")
        return self.variant(**mapping[name])
