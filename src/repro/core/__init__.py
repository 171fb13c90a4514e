"""RNTrajRec core: the paper's primary contribution."""

from .config import RNTrajRecConfig
from .decoder import DecodeConstraint, DecoderOutput, GreedyCarry, RecoveryDecoder
from .gps_former import ENV_CONTEXT_DIM, EncoderOutput, GPSFormer, GPSFormerBlock
from .graph_refinement import (
    ConcatFusion,
    GatedFusion,
    GraphNorm,
    GraphRefinementLayer,
    mean_graph_readout,
    weighted_graph_readout,
)
from .grid_gnn import GridGNN, PlainRoadEncoder, build_road_encoder
from .loss import LossBreakdown, graph_classification_loss, rate_loss, segment_id_loss, total_loss
from .model import ModelSnapshot, RNTrajRec
from .subgraph_gen import PointSubGraph, SubGraphBatch, SubGraphGenerator

__all__ = [
    "RNTrajRecConfig",
    "DecodeConstraint",
    "DecoderOutput",
    "GreedyCarry",
    "RecoveryDecoder",
    "ENV_CONTEXT_DIM",
    "EncoderOutput",
    "GPSFormer",
    "GPSFormerBlock",
    "ConcatFusion",
    "GatedFusion",
    "GraphNorm",
    "GraphRefinementLayer",
    "mean_graph_readout",
    "weighted_graph_readout",
    "GridGNN",
    "PlainRoadEncoder",
    "build_road_encoder",
    "LossBreakdown",
    "graph_classification_loss",
    "rate_loss",
    "segment_id_loss",
    "total_loss",
    "RNTrajRec",
    "ModelSnapshot",
    "PointSubGraph",
    "SubGraphBatch",
    "SubGraphGenerator",
]
