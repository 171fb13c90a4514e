"""Recurrent layers: GRU (Eq. 1 of the paper), LSTM, and bidirectional GRU.

The paper uses GRU cells in three places — GridGNN's grid-sequence encoder,
the MTrajRec-style decoder, and several baselines — and (Bi)LSTM/(Bi)GRU in
the t2vec/T3S/NeuTraj baselines.  Cells operate on a whole batch per step;
sequence wrappers loop over time in Python, which is acceptable at the
sequence lengths used here (tens of steps).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import init
from .functional import sigmoid, tanh
from .module import Module, Parameter
from .tensor import Tensor, concat, stack


class GRUCell(Module):
    """Gated recurrent unit cell following Eq. 1.

    ``z`` (update), ``r`` (reset) and candidate ``c`` gates over the
    concatenation ``[h, x]`` with sigmoid/tanh activations.
    """

    def __init__(self, input_dim: int, hidden_dim: int) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        total = input_dim + hidden_dim
        self.w_z = Parameter(init.xavier_uniform(total, hidden_dim), name="gru.w_z")
        self.b_z = Parameter(init.zeros((hidden_dim,)), name="gru.b_z")
        self.w_r = Parameter(init.xavier_uniform(total, hidden_dim), name="gru.w_r")
        self.b_r = Parameter(init.zeros((hidden_dim,)), name="gru.b_r")
        self.w_c = Parameter(init.xavier_uniform(total, hidden_dim), name="gru.w_c")
        self.b_c = Parameter(init.zeros((hidden_dim,)), name="gru.b_c")

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        hx = concat([h, x], axis=-1)
        z = sigmoid(hx @ self.w_z + self.b_z)
        r = sigmoid(hx @ self.w_r + self.b_r)
        rhx = concat([r * h, x], axis=-1)
        c = tanh(rhx @ self.w_c + self.b_c)
        return (1.0 - z) * h + z * c

    def initial_state(self, batch: int) -> np.ndarray:
        return np.zeros((batch, self.hidden_dim))


class LSTMCell(Module):
    """Standard LSTM cell (Hochreiter & Schmidhuber)."""

    def __init__(self, input_dim: int, hidden_dim: int) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        total = input_dim + hidden_dim
        self.w_i = Parameter(init.xavier_uniform(total, hidden_dim), name="lstm.w_i")
        self.b_i = Parameter(init.zeros((hidden_dim,)), name="lstm.b_i")
        self.w_f = Parameter(init.xavier_uniform(total, hidden_dim), name="lstm.w_f")
        self.b_f = Parameter(init.ones((hidden_dim,)), name="lstm.b_f")
        self.w_o = Parameter(init.xavier_uniform(total, hidden_dim), name="lstm.w_o")
        self.b_o = Parameter(init.zeros((hidden_dim,)), name="lstm.b_o")
        self.w_g = Parameter(init.xavier_uniform(total, hidden_dim), name="lstm.w_g")
        self.b_g = Parameter(init.zeros((hidden_dim,)), name="lstm.b_g")

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h, c = state
        hx = concat([h, x], axis=-1)
        i = sigmoid(hx @ self.w_i + self.b_i)
        f = sigmoid(hx @ self.w_f + self.b_f)
        o = sigmoid(hx @ self.w_o + self.b_o)
        g = tanh(hx @ self.w_g + self.b_g)
        c_next = f * c + i * g
        h_next = o * tanh(c_next)
        return h_next, c_next

    def initial_state(self, batch: int) -> Tuple[np.ndarray, np.ndarray]:
        return np.zeros((batch, self.hidden_dim)), np.zeros((batch, self.hidden_dim))


class GRU(Module):
    """Unidirectional GRU over ``(batch, time, features)`` inputs."""

    def __init__(self, input_dim: int, hidden_dim: int) -> None:
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor, h0: Optional[Tensor] = None) -> Tuple[Tensor, Tensor]:
        """Return (outputs ``(batch, time, hidden)``, final state)."""
        batch, steps = x.shape[0], x.shape[1]
        h = h0 if h0 is not None else self.cell.initial_state(batch)
        outputs: List[Tensor] = []
        for t in range(steps):
            h = self.cell(x[:, t, :], h)
            outputs.append(h)
        return stack(outputs, axis=1), h


class LSTM(Module):
    """Unidirectional LSTM over ``(batch, time, features)`` inputs."""

    def __init__(self, input_dim: int, hidden_dim: int) -> None:
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor, state=None) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        batch, steps = x.shape[0], x.shape[1]
        if state is None:
            state = self.cell.initial_state(batch)
        h, c = state
        outputs: List[Tensor] = []
        for t in range(steps):
            h, c = self.cell(x[:, t, :], (h, c))
            outputs.append(h)
        return stack(outputs, axis=1), (h, c)


class BiGRU(Module):
    """Bidirectional GRU; outputs concatenate forward and backward passes.

    t2vec's BiLSTM role is filled by this layer (the paper itself swaps GRU
    and LSTM freely between baselines).
    """

    def __init__(self, input_dim: int, hidden_dim: int) -> None:
        super().__init__()
        if hidden_dim % 2:
            raise ValueError("BiGRU hidden_dim must be even (split across directions)")
        half = hidden_dim // 2
        self.forward_rnn = GRU(input_dim, half)
        self.backward_rnn = GRU(input_dim, half)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        fwd_out, fwd_h = self.forward_rnn(x)
        reversed_x = x[:, ::-1, :]
        bwd_out, bwd_h = self.backward_rnn(reversed_x)
        bwd_out = bwd_out[:, ::-1, :]
        outputs = concat([fwd_out, bwd_out], axis=-1)
        final = concat([fwd_h, bwd_h], axis=-1)
        return outputs, final
