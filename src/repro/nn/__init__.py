"""``repro.nn`` — a pure-numpy neural network substrate.

The RNTrajRec paper builds on PyTorch; PyTorch is not available in this
environment, so this package reimplements the needed subset: a reverse-mode
autograd :class:`~repro.nn.tensor.Tensor`, standard layers (Linear,
Embedding, LayerNorm, BatchNorm, dropout), recurrent cells (GRU/LSTM,
bidirectional), multi-head and additive attention, transformer encoder
layers, graph neural networks (GAT/GCN/GIN) over batched edge lists, and
optimizers (Adam/SGD).
"""

from . import functional, init
from .attention import AdditiveAttention, MultiHeadAttention
from .graph import (
    GATLayer,
    GCNLayer,
    GINLayer,
    GraphStack,
    add_self_loops,
    edge_targets,
    ragged_positions,
)
from .layers import BatchNorm, Dropout, Embedding, FeedForward, LayerNorm, Linear
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, clip_grad_norm
from .rnn import GRU, LSTM, BiGRU, GRUCell, LSTMCell
from .serialization import load_archive, load_checkpoint, save_archive, save_checkpoint
from .tensor import (
    Segments,
    Tensor,
    as_tensor,
    concat,
    gather_rows,
    is_grad_enabled,
    no_grad,
    segment_mean,
    segment_softmax,
    segment_sum,
    stack,
    where,
)
from .transformer import PositionalEncoding, TransformerEncoder, TransformerEncoderLayer, sinusoidal_positions

__all__ = [
    "functional",
    "init",
    "Tensor",
    "Segments",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "concat",
    "stack",
    "where",
    "gather_rows",
    "segment_sum",
    "segment_mean",
    "segment_softmax",
    "Module",
    "ModuleList",
    "Sequential",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "BatchNorm",
    "FeedForward",
    "GRUCell",
    "GRU",
    "BiGRU",
    "LSTMCell",
    "LSTM",
    "MultiHeadAttention",
    "AdditiveAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "PositionalEncoding",
    "sinusoidal_positions",
    "GATLayer",
    "GCNLayer",
    "GINLayer",
    "GraphStack",
    "add_self_loops",
    "edge_targets",
    "ragged_positions",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_checkpoint",
    "load_checkpoint",
    "save_archive",
    "load_archive",
]
