"""DHTR + HMM — deep hybrid two-stage recovery (Wang et al. [19]).

DHTR first recovers the *coordinates* of the high-sample trajectory with a
seq2seq model (attention GRU decoder over the ε_ρ grid), refines them with
a constant-velocity Kalman filter, and finally map-matches with HMM.  The
coordinate decoder is trained with MSE on normalized positions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor, as_tensor, no_grad
from ..geo.grid import Grid
from ..mapmatch.hmm import HMMConfig, HMMMapMatcher
from ..roadnet.network import RoadNetwork
from ..roadnet.shortest_path import ShortestPathEngine
from ..trajectory.dataset import Batch
from ..trajectory.trajectory import MatchedTrajectory
from ..core.config import RNTrajRecConfig
from ..core.loss import LossBreakdown
from .kalman import ConstantVelocityKalman, KalmanConfig
from .seq2seq import InputEmbedding


class DHTRRecovery(nn.Module):
    """Seq2seq coordinate recovery + Kalman smoothing + HMM matching."""

    def __init__(self, network: RoadNetwork, config: Optional[RNTrajRecConfig] = None,
                 grid: Optional[Grid] = None) -> None:
        super().__init__()
        self.network = network
        self.config = config or RNTrajRecConfig()
        self.grid = grid or network.make_grid(self.config.grid_cell_size)
        d = self.config.hidden_dim

        self.embed = InputEmbedding(self.grid, d)
        self.encoder_rnn = nn.GRU(d, d)
        self.attention = nn.AdditiveAttention(d)
        self.decoder_cell = nn.GRUCell(2 + d, d)
        self.coord_head = nn.Linear(d, 2)

        self.kalman = ConstantVelocityKalman(KalmanConfig())
        self.matcher = HMMMapMatcher(network, HMMConfig())
        x0, y0, x1, y1 = network.bounds()
        self._origin = np.array([x0, y0])
        self._scale = max(x1 - x0, y1 - y0, 1.0)

    # ------------------------------------------------------------------
    def _normalize(self, xy: np.ndarray) -> np.ndarray:
        return (xy - self._origin) / self._scale

    def _denormalize(self, xy: np.ndarray) -> np.ndarray:
        return xy * self._scale + self._origin

    def _decode_coordinates(self, batch: Batch) -> Tensor:
        """Predict normalized (x, y) for every ε_ρ step: (b, l_ρ, 2)."""
        embedded = self.embed(batch)
        encoder_outputs, state = self.encoder_rnn(embedded)
        b = batch.size
        prev = self._normalize(batch.input_xy[:, 0, :])

        steps: List[Tensor] = []
        for _ in range(batch.target_length):
            context = self.attention(state, encoder_outputs)
            state = self.decoder_cell(nn.concat([prev, context], axis=-1), state)
            prev = self.coord_head(state)
            steps.append(prev)
        return as_tensor(nn.stack(steps, axis=1))

    # ------------------------------------------------------------------
    def compute_loss(self, batch: Batch, teacher_forcing_ratio: float = 0.5,
                     rng: Optional[np.random.Generator] = None) -> LossBreakdown:
        """Coordinate MSE against the true ε_ρ-grid positions."""
        predictions = self._decode_coordinates(batch)
        truth = np.stack(
            [sample.target.positions(self.network) for sample in batch.samples]
        )
        loss = F.mse_loss(predictions, self._normalize(truth))
        return LossBreakdown(total=loss, id_loss=0.0, rate_loss=float(loss.item()), graph_loss=0.0)

    def recover_trajectories(self, batch: Batch) -> List[MatchedTrajectory]:
        with no_grad():
            coords = self._denormalize(self._decode_coordinates(batch).data)
        out: List[MatchedTrajectory] = []
        for i, sample in enumerate(batch.samples):
            times = sample.target.times
            smoothed = self.kalman.smooth(coords[i], times)
            # Pin the observed fixes back to their measured positions.
            obs = sample.observed_steps
            smoothed[obs] = sample.raw_low.xy
            from ..trajectory.trajectory import RawTrajectory

            matched = self.matcher.match(RawTrajectory(smoothed, times))
            if matched is None:
                segments = np.zeros(len(times), dtype=np.int64)
                ratios = np.zeros(len(times))
                for j, (x, y) in enumerate(smoothed):
                    sid, _, ratio = self.network.nearest_segment(float(x), float(y))
                    segments[j] = sid
                    ratios[j] = min(ratio, 1.0 - 1e-9)
                matched = MatchedTrajectory(segments, ratios, times)
            out.append(matched)
        return out

    def recover(self, batch: Batch) -> Tuple[np.ndarray, np.ndarray]:
        recovered = self.recover_trajectories(batch)
        return (
            np.stack([t.segments for t in recovered]),
            np.stack([t.ratios for t in recovered]),
        )
