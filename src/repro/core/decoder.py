"""Attention GRU decoder with constraint mask and multi-task heads
(§IV-G, §V; architecture from MTrajRec [11], reused by every end-to-end
baseline per the paper's Remark 2).

Per output timestep j:

1. additive attention (Eq. 14) over encoder outputs yields context a(j);
2. the GRU consumes [x(j-1) ‖ r(j-1) ‖ a(j)] (Eq. 15) where x is the
   embedding of the previous road segment and r its moving ratio;
3. the **segment head** scores all |V| segments, multiplied by the
   constraint mask c_j (Eq. 16) — observed timestamps restrict candidates
   to segments near the observed fix;
4. the **rate head** predicts the moving ratio via
   σ([x(j) ‖ h(j)] · w_rate) (Eq. 17).

Training uses teacher forcing (ground-truth x/r inputs); inference decodes
greedily with the same constraint masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, List, Optional, Tuple

import numpy as np

from .. import nn, profile
from ..nn import functional as F
from ..nn.graph import ragged_positions, sort_unique
from ..nn.tensor import Tensor, sigmoid_array as _sigmoid  # Tensor.sigmoid's own forward
from ..trajectory.dataset import Batch
from .config import RNTrajRecConfig


_LOG_FLOOR = float(np.log(1e-12))   # log of the smallest mask value a row keeps
# The certified argmax's error model, derived in greedy_step's docstring:
_SCREEN_UNIT = 1.01 * 2.0 ** -24    # float32 unit roundoff, second-order terms in
_FLOAT64_SLACK = 2.0 ** -36         # every float64 rounding on either side
_TINY = 2.0 ** -63                  # on both factors: float32 underflow
_NO_IDS, _NO_WEIGHTS = np.zeros(0, dtype=np.int64), np.zeros(0)
# Rows narrower than this cost less to evaluate in float64 than to certify
# (break-even near 900 columns at hidden_dim 32; the ledger has both sides).
_SCREEN_WIDTH = 1024


@dataclass
class DecoderOutput:
    """Stacked per-step decoder outputs."""

    segment_log_probs: Tensor   # (b, l_ρ, |V|) — masked log softmax
    rates: Tensor               # (b, l_ρ)


@dataclass
class DeferredPrior:
    """The interpolation prior of a wide constraint's unobserved steps,
    kept as their interpolated positions until a step needs it.

    A row at least ``_SCREEN_WIDTH`` segments wide is screened, and the
    screen needs exact prior weights only on the columns that can win
    (:func:`_screened_argmax`): :meth:`column_weights` scores those, and
    :meth:`support` builds a whole step through the eager kernel."""

    network: Any
    scale: float
    floor: float
    positions: np.ndarray   # (b, T, 2) each step's interpolated position
    free: np.ndarray        # (b, T) steps whose prior is deferred
    _built: dict = field(default_factory=dict, repr=False)

    def support(self, i: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Step ``(i, j)``'s prior support (ids, weights), built once:
        :func:`_prior_support` at that one position, byte-equal to the
        slice the eager prior holds for it."""
        built = self._built.get((i, j))
        if built is None:
            profile.count("decode.prior_rows")
            _, _, ids, weights = _prior_support(
                self.positions[i, j][None], self.network, self.scale, self.floor)
            built = self._built[i, j] = (ids, weights)
        return built

    def column_weights(self, i: int, j: int,
                       segment_ids: np.ndarray) -> Optional[np.ndarray]:
        """Step ``(i, j)``'s prior weight on each of ``segment_ids``: the
        eager prior's distance kernel and ``dists <= radius`` rule, in one
        call.  ``None`` when a distance lies within 1e-9 of the radius,
        where a box test and a computed distance could round apart."""
        x, y = self.positions[i, j].tolist()
        dists = self.network.segment_distances(x, y, segment_ids)
        radius = self.radius
        if np.abs(dists - radius).min(initial=np.inf) <= 1e-9 * radius:
            return None
        return _weights_within(dists, radius, self.scale, self.floor)

    @cached_property
    def radius(self) -> float:
        """:func:`_prior_radius` of this prior's kernel."""
        return _prior_radius(self.scale, self.floor)

    @cached_property
    def any_free(self) -> List[bool]:
        """Per step, whether any row's prior is deferred there."""
        return self.free.any(axis=0).tolist()


@dataclass(frozen=True)
class DecodeConstraint:
    """The constraint mask of a (b, T) span of grid steps, the only form
    training and decoding hold it in, sparse: row ``(i, j)`` is
    ``base[i, j]`` except on ``ids[lo[i, j]:hi[i, j]]``, where it is the
    matching ``weights`` — or, where ``prior`` defers the step, on the
    support :meth:`DeferredPrior.support` builds for it.  Steps may share
    a slice (rows that interpolate to one position do), so this is
    O(b·T + support) numbers; nothing |V|-wide exists until :meth:`row`
    builds one step's rows (``tests/reference.py`` keeps the full dense
    tensor for tests)."""

    base: np.ndarray       # (b, T) mask value off the step's support
    lo: np.ndarray         # (b, T) support slice start into ids / weights
    hi: np.ndarray         # (b, T) support slice end
    ids: np.ndarray        # pooled support segment ids
    weights: np.ndarray    # pooled support mask values
    num_segments: int
    prior: Optional[DeferredPrior] = None  # unobserved steps built on demand

    @cached_property
    def log_span(self) -> float:
        """Width of the range of ``log max(m, 1e-12)`` over this mask's
        values m, down-weighted by an escape weight ≤ 1 or not.  A deferred
        step's prior weights lie in [floor, max(1, floor)], and its base
        is that floor: they cannot widen it."""
        peak = max(self.base.max(initial=1.0), self.weights.max(initial=1.0))
        return float(np.log(peak)) - _LOG_FLOOR

    def support(self, i: int, j: int) -> Tuple[float, np.ndarray, np.ndarray]:
        """Row ``i``, step ``j``: (base, support ids, their mask values)."""
        if self.prior is not None and self.prior.free[i, j]:
            return (self.base[i, j], *self.prior.support(i, j))
        hits = slice(self.lo[i, j], self.hi[i, j])
        return self.base[i, j], self.ids[hits], self.weights[hits]

    def row(self, j: int) -> np.ndarray:
        """Step ``j``'s mask rows, dense (b, |V|)."""
        out = np.empty((len(self.base), self.num_segments))
        for i, row in enumerate(out):
            base, ids, weights = self.support(i, j)
            row[:] = base
            row[ids] = weights
        return out


def _immutable(array) -> bool:
    """Whether ``array`` is read-only down to a read-only buffer (a
    read-only memory map) — unlike a cleared ``writeable`` flag on owned
    memory, which the owner can set again."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is not None and memoryview(array).readonly


def screening_head(head: np.ndarray) -> Tuple[np.ndarray, float]:
    """(float32 copy of the (d, |V|) segment head, max_j ‖head_j‖₂): what
    :func:`greedy_step` screens with, and its error scale."""
    return (head.astype(np.float32),
            float(np.sqrt(np.einsum("ij,ij->j", head, head).max())))


@dataclass
class GreedyWeights:
    """Raw arrays of every parameter the greedy kernel touches, unpacked once.

    The run-to-completion kernel unpacks these at the top of each decode
    call, the continuous-batching engine (``repro.serve.engine``) once per
    admitted job, so the per-step cost is pure math.  The arrays are
    references to (not copies of) the decoder's parameters, except the
    screening pair derived from ``head`` (:func:`screening_head`); a bundle
    is only valid for as long as the model generation it was built from.
    """

    w_h: np.ndarray          # attention key projection (d, d)
    w_g: np.ndarray          # attention query projection (d, d)
    v: np.ndarray            # attention energy vector (d,)
    w_z: np.ndarray          # GRU update gate (3d+1, d)
    b_z: np.ndarray
    w_r: np.ndarray          # GRU reset gate
    b_r: np.ndarray
    w_c: np.ndarray          # GRU candidate
    b_c: np.ndarray
    head: np.ndarray         # segment head (d, |V|)
    head32: Optional[np.ndarray]  # float32 copy of ``head``: the argmax screen
    head_bound: float        # max_j ‖head_j‖₂: the screen's error scale
    rate_w: np.ndarray       # rate head (2d, 1)
    rate_b: np.ndarray
    embed_table: np.ndarray  # segment embeddings (|V|, d)
    start: np.ndarray        # learned start embedding (d,)
    num_segments: int
    hidden_dim: int

    @classmethod
    def from_decoder(cls, decoder: "RecoveryDecoder") -> "GreedyWeights":
        attention, gru = decoder.attention, decoder.gru
        head32, head_bound = decoder.screening_head()
        return cls(
            w_h=attention.w_h.weight.data,
            w_g=attention.w_g.weight.data,
            v=attention.v.data,
            w_z=gru.w_z.data, b_z=gru.b_z.data,
            w_r=gru.w_r.data, b_r=gru.b_r.data,
            w_c=gru.w_c.data, b_c=gru.b_c.data,
            head=decoder.segment_head.weight.data,
            head32=head32, head_bound=head_bound,
            rate_w=decoder.rate_head.weight.data,
            rate_b=decoder.rate_head.bias.data,
            embed_table=decoder.segment_embedding.weight.data,
            start=decoder.start_embedding.data,
            num_segments=decoder.num_segments,
            hidden_dim=decoder.config.hidden_dim,
        )

    def project_keys(self, enc: np.ndarray) -> np.ndarray:
        """W_h·enc — constant across a sequence's decode steps, so it is
        hoisted: once per kernel call here, once per *admission* in the
        continuous engine (amortized over every step of the slot)."""
        return enc @ self.w_h


def greedy_step(
    weights: GreedyWeights,
    enc: np.ndarray,
    keys: np.ndarray,
    carry: "GreedyCarry",
    constraint: Optional[DecodeConstraint],
    j: int,
    reachability: Optional["ReachabilityMask"],
) -> Tuple[np.ndarray, np.ndarray, "GreedyCarry"]:
    """One greedy decode step; returns (predicted (b,), rates (b,), carry).

    This is the loop body of :meth:`RecoveryDecoder.decode_greedy_from`,
    shared verbatim between the run-to-completion kernel and the continuous-
    batching engine's per-slot stepper so the two can never drift: a slot
    stepped ``n`` times replays the exact floating-point op sequence of an
    ``n``-step kernel call on the same carry.  ``constraint`` / ``j`` name
    the step's mask row; the reachability combine with
    ``carry.prev_segments`` happens inside.  Nothing given is mutated.

    **Certified argmax.**  The step is *defined* by the float64 row
    ``s = x @ head + log max(m, 1e-12)`` (x the new GRU state, m the mask
    row after the combine) but consumes only its ``argmax``, so it screens
    in float32: ``ŝ = fl32(x) @ head32``, plus ``fl32(log max(m_j, 1e-12) −
    c)`` on the columns where m_j is not the row's off-support, unreachable
    value (whose log is c), and keeps the leader k iff ``ŝ_k − ŝ_j > 2δ``
    for all j ≠ k.  ``δ = 1.01·2⁻²⁴·((d+3)·‖x‖₂·max_j‖head_j‖₂ + 2·span) +
    2⁻³⁶`` bounds ``|ŝ_j − (s_j − c)|``: d+2 roundings of relative size
    2⁻²⁴ in ``fl32(x̃·h̃_j)`` whatever the summation order, one for the
    addend (at most span) and one for the add, 2⁻³⁶ for every float64
    rounding on either side (``docs/serving.md`` spells it out).  A
    certified k is therefore what ``np.argmax`` returns on *any* float64
    evaluation of the row, uniquely.  Anything else — a near-tie, a NaN, an
    overflow — runs the defining row itself and bumps
    ``profile.count("decode.full_row")``.  A step whose prior is deferred
    (:class:`DeferredPrior`) and that has a previous segment is screened
    first against a bound on every unreachable column, with exact prior
    weights on the reachable ones; one that bound cannot certify builds
    its row and screens it in full.  δ only errs toward that, and
    state, rates and carry never see float32: outputs cannot depend on
    which path picked the index.
    """
    state, prev_embed, prev_rate = carry.state, carry.prev_embed, carry.prev_rate
    previous = carry.prev_segments if reachability is not None else None
    b, length = enc.shape[0], enc.shape[1]
    # Additive attention (Eq. 14), mirroring AdditiveAttention.
    energy = np.tanh((state @ weights.w_g).reshape(b, 1, -1) + keys) @ weights.v
    scores = energy.reshape(b, length)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    attn = exp / exp.sum(axis=-1, keepdims=True)
    context = (attn.reshape(b, 1, -1) @ enc).reshape(b, -1)
    # GRU cell (Eq. 15), mirroring nn.GRUCell.forward.
    x = np.concatenate([prev_embed, prev_rate, context], axis=-1)
    hx = np.concatenate([state, x], axis=-1)
    z = _sigmoid(hx @ weights.w_z + weights.b_z)
    r = _sigmoid(hx @ weights.w_r + weights.b_r)
    rhx = np.concatenate([r * state, x], axis=-1)
    c = np.tanh(rhx @ weights.w_c + weights.b_c)
    state = (1.0 - z) * state + z * c
    # Segment head + Eq. 16 mask, argmax only: screened where a row is wide
    # enough for the float64 product to cost more than certifying it.
    predicted = None
    if weights.num_segments >= _SCREEN_WIDTH:
        predicted = _screened_argmax(weights, state, constraint, j,
                                     reachability, previous)
        if predicted is None:
            profile.count("decode.full_row")
    if predicted is None:
        mask_row = constraint.row(j) if constraint is not None else None
        if previous is not None:
            mask_row = reachability.combine(mask_row, previous,
                                            weights.num_segments)
        logits = state @ weights.head
        if mask_row is not None:
            logits = logits + np.log(np.maximum(mask_row, 1e-12))
        predicted = np.argmax(logits, axis=-1)
    # Rate head (Eq. 17), mirroring _rate.
    prev_embed = weights.embed_table[predicted]
    rate = _sigmoid(
        np.concatenate([prev_embed, state], axis=-1) @ weights.rate_w
        + weights.rate_b
    )
    rates = np.minimum(np.maximum(rate.reshape(b), 0.0), 1.0 - 1e-9)
    return predicted, rates, GreedyCarry(state, prev_embed, rates[:, None],
                                         predicted)


def _screened_argmax(weights: GreedyWeights, state: np.ndarray,
                     constraint: Optional[DecodeConstraint], j: int,
                     reachability: Optional["ReachabilityMask"],
                     previous: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """:func:`greedy_step`'s float32 screen: the (b,) leaders if every row's
    is certified, else ``None``.  A step with a deferred prior and a
    previous segment tries :func:`_bounded_screen` first; if that cannot
    certify it, the full screen builds the step's row
    (``docs/serving.md`` derives the bound)."""
    screen = state.astype(np.float32) @ weights.head32
    escape = reachability.escape_weight if previous is not None else 1.0
    if constraint is None and previous is None:
        return _certified(weights, state, screen, 0.0)
    span = -_LOG_FLOOR if constraint is None else constraint.log_span
    prior = constraint.prior if constraint is not None else None
    if previous is not None and prior is not None and prior.any_free[j]:
        predicted = _bounded_screen(weights, state, screen, span, constraint,
                                    j, reachability, previous)
        if predicted is not None:
            return predicted
    for i, row in enumerate(screen):
        _mask_screen_row(row, constraint, i, j, reachability, previous, escape)
    return _certified(weights, state, screen, span)


def _mask_screen_row(row: np.ndarray, constraint: Optional[DecodeConstraint],
                     i: int, j: int, reachability: Optional["ReachabilityMask"],
                     previous: Optional[np.ndarray], escape: float) -> None:
    """Add row ``i``'s log-mask offsets to its screen, in place: ``fl32(log
    max(m_j, 1e-12) − c)`` on every column whose mask value m_j is not the
    row's off-support, unreachable value (whose log is c)."""
    base, ids, mask = (constraint.support(i, j) if constraint is not None
                       else (1.0, _NO_IDS, _NO_WEIGHTS))
    if previous is not None:
        # A reachable column keeps its raw mask value: the base, or the
        # support weight scattered over it.  Listed after the support, its
        # term is the one the (gather, add, scatter) below lets stand.
        reach = reachability.reachable(previous[i])
        raw = np.empty(len(row))
        raw[reach] = base
        raw[ids] = mask
        ids = np.concatenate((ids, reach))
        mask = np.concatenate((mask * escape, raw[reach]))
    row[ids] += (np.log(np.maximum(mask, 1e-12))
                 - math.log(max(base * escape, 1e-12))).astype(np.float32)


def _bounded_screen(weights: GreedyWeights, state: np.ndarray,
                    screen: np.ndarray, span: float,
                    constraint: DecodeConstraint, j: int,
                    reachability: "ReachabilityMask",
                    previous: np.ndarray) -> Optional[np.ndarray]:
    """The screen with the deferred rows' prior evaluated only where it can
    win: a reachable column gets the exact offset the full screen would
    add, every other column its upper bound ``fl32(ŝ_j + fl32(U))`` with U
    the offset of the largest mask value such a column can hold.  The
    leaders if each is certified against the bounds and, in a deferred
    row, reachable; else ``None``."""
    escape, prior = reachability.escape_weight, constraint.prior
    bounded, reaches = np.empty_like(screen), []
    for i, row in enumerate(screen):
        if not prior.free[i, j]:
            bounded[i] = row
            _mask_screen_row(bounded[i], constraint, i, j, reachability,
                             previous, escape)
            continue
        reach = reachability.reachable(previous[i])
        exact = prior.column_weights(i, j, reach)
        if exact is None:
            return None
        base = constraint.base[i, j]
        shift = math.log(max(base * escape, 1e-12))
        # Off the reachable set a prior weight w ∈ [floor, max(1, floor)]
        # is down-weighted to w·escape.
        np.add(row, np.float32(math.log(max(max(base, 1.0) * escape, 1e-12))
                               - shift), out=bounded[i])
        bounded[i, reach] = row[reach] + (np.log(np.maximum(exact, 1e-12))
                                          - shift).astype(np.float32)
        reaches.append((i, reach))
    predicted = _certified(weights, state, bounded, span)
    if predicted is None or not all((reach == predicted[i]).any()
                                    for i, reach in reaches):
        return None
    return predicted


def _certified(weights: GreedyWeights, state: np.ndarray, screen: np.ndarray,
               span: float) -> Optional[np.ndarray]:
    """The (b,) leaders of a masked screen if each clears every other
    column of its row by 2δ, else ``None``; overwrites each leader."""
    predicted = screen.argmax(axis=-1)
    tops = []
    for i, k in enumerate(predicted.tolist()):
        tops.append(float(screen[i, k]))
        screen[i, k] = -np.inf  # the runner-up is the best of all the others
    seconds = np.maximum.reduce(screen, axis=-1).tolist()
    norms = np.sqrt(np.vecdot(state, state)).tolist()
    scale = 2.0 * _SCREEN_UNIT * (weights.hidden_dim + 3) * (weights.head_bound + _TINY)
    slack = 2.0 * (_SCREEN_UNIT * 2.0 * span + _FLOAT64_SLACK)
    # Python floats: inf - inf is a quiet nan, and a nan or an infinite gap
    # fails the comparison.
    certified = all(scale * (norm + _TINY) + slack < top - second < np.inf
                    for top, second, norm in zip(tops, seconds, norms))
    return predicted if certified else None


@dataclass
class GreedyCarry:
    """Raw recurrent state of the greedy kernel between two decode spans.

    Greedy decoding is stepwise-causal: everything step j needs from steps
    < j is this carry — the GRU state, the previous segment's embedding and
    rate (the step's inputs), and the previous segment id (for the
    reachability mask).  Splitting a decode at any step and resuming from
    the carry therefore replays the exact floating-point op sequence of the
    unsplit decode, which is what the streaming engine's checkpointed
    suffix decode builds on (asserted bit-for-bit by ``tests/test_stream.py``).
    """

    state: np.ndarray                     # (b, d) GRU hidden state
    prev_embed: np.ndarray                # (b, d) previous segment embedding
    prev_rate: np.ndarray                 # (b, 1) previous moving ratio
    prev_segments: Optional[np.ndarray]   # (b,) previous segment ids (None
                                          # before the first decoded step)


class RecoveryDecoder(nn.Module):
    """Multi-task GRU decoder over road segments and moving ratios."""

    def __init__(self, num_segments: int, config: RNTrajRecConfig) -> None:
        super().__init__()
        d = config.hidden_dim
        self.num_segments = num_segments
        self.config = config

        self.segment_embedding = nn.Embedding(num_segments, d)
        self.start_embedding = nn.Parameter(nn.init.normal((d,), std=0.02), name="decoder.start")
        self.attention = nn.AdditiveAttention(d)
        self.gru = nn.GRUCell(2 * d + 1, d)
        self.segment_head = nn.Linear(d, num_segments, bias=False)
        self.rate_head = nn.Linear(2 * d, 1)
        self._screen = None  # (head, screening_head(head)) of an immutable head

    def screening_head(self) -> Tuple[Optional[np.ndarray], float]:
        """:func:`screening_head` of the current segment head.  A copy
        outliving a weight update would make the step's certificate silently
        unsound, so it is derived per call — except over a head nothing in
        this process can write to (:func:`_immutable`; mmap'd artifact
        weights), whose pair is kept, keyed by the array itself."""
        if self.num_segments < _SCREEN_WIDTH:
            return None, 0.0  # rows this narrow are never screened
        head = self.segment_head.weight.data
        if self._screen is not None and self._screen[0] is head:
            return self._screen[1]
        screen = screening_head(head)
        if _immutable(head):
            self._screen = (head, screen)
        return screen

    # ------------------------------------------------------------------
    def _step(
        self,
        prev_embed: Tensor,
        prev_rate: Tensor,
        state: Tensor,
        encoder_outputs: Tensor,
        mask_row: Optional[np.ndarray],
        projected_keys: Optional[Tensor] = None,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """One decode step — attention, GRU, segment head, masked log
        softmax; returns (log_probs, new_state, context).

        ``projected_keys`` optionally carries the attention's W_h·enc
        projection, which is constant across steps — decode loops compute
        it once instead of per step.
        """
        context = self.attention(state, encoder_outputs, projected_keys=projected_keys)
        state = self.gru(nn.concat([prev_embed, prev_rate, context], axis=-1), state)
        logits = self.segment_head(state)
        if mask_row is not None:
            log_probs = F.masked_log_softmax(logits, mask_row, axis=-1)
        else:
            log_probs = F.log_softmax(logits, axis=-1)
        return log_probs, state, context

    def _rate(self, segment_embed: Tensor, state: Tensor) -> Tensor:
        """Eq. 17 head: sigmoid of a bilinear score."""
        return self.rate_head(nn.concat([segment_embed, state], axis=-1)).sigmoid()

    # ------------------------------------------------------------------
    def forward_teacher(
        self,
        encoder_outputs: Tensor,
        initial_state: Tensor,
        batch: Batch,
        constraint: DecodeConstraint,
        teacher_forcing_ratio: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> DecoderOutput:
        """Training pass with scheduled sampling (MTrajRec uses ratio 0.5).

        At each step the next-step input is the gold segment/ratio with
        probability ``teacher_forcing_ratio`` and the model's own greedy
        prediction otherwise, which closes the train/inference gap of pure
        teacher forcing.  Step j is masked with ``constraint.row(j)``, so
        one (b, |V|) mask row exists at a time.  The rate head is always supervised on the gold
        segment embedding (its target is the gold ratio).
        """
        rng = rng or np.random.default_rng(0)
        b, l_rho = batch.target_segments.shape
        state = initial_state
        prev_embed = self.start_embedding.reshape(1, -1) * Tensor(np.ones((b, 1)))
        prev_rate = Tensor(np.zeros((b, 1)))
        projected_keys = self.attention.project_keys(encoder_outputs)

        log_prob_steps: List[Tensor] = []
        rate_steps: List[Tensor] = []
        for j in range(l_rho):
            log_probs, state, _ = self._step(
                prev_embed, prev_rate, state, encoder_outputs, constraint.row(j),
                projected_keys=projected_keys,
            )
            log_prob_steps.append(log_probs)
            true_embed = self.segment_embedding(batch.target_segments[:, j])
            rate_steps.append(self._rate(true_embed, state).reshape(b))

            if teacher_forcing_ratio >= 1.0 or rng.random() < teacher_forcing_ratio:
                prev_embed = true_embed
                prev_rate = Tensor(batch.target_ratios[:, j][:, None])
            else:
                predicted = np.argmax(log_probs.data, axis=-1)
                prev_embed = self.segment_embedding(predicted)
                pred_rate = self._rate(prev_embed, state)
                prev_rate = Tensor(np.clip(pred_rate.data.reshape(b, 1), 0.0, 1.0 - 1e-9))

        return DecoderOutput(
            segment_log_probs=nn.stack(log_prob_steps, axis=1),
            rates=nn.stack(rate_steps, axis=1),
        )

    # ------------------------------------------------------------------
    def decode_greedy(
        self,
        encoder_outputs: Tensor,
        initial_state: Tensor,
        target_length: int,
        constraint: Optional[DecodeConstraint],
        reachability: Optional["ReachabilityMask"] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Greedy inference; returns (segments (b, l_ρ), rates (b, l_ρ)).

        ``reachability`` optionally enforces spatial consistency: after the
        first step, candidates at unobserved timestamps are restricted to
        segments reachable from the previous prediction within one ε_ρ
        interval (k-hop neighborhood).  Observed timestamps always keep the
        paper's distance-based constraint mask.

        Inference needs neither gradients nor normalized probabilities
        (the log-softmax normalizer is constant per row), so the loop is a
        raw-numpy kernel: each :func:`greedy_step` replays the floating-point
        operations of :meth:`_step` on plain arrays and selects
        ``argmax(logits + log mask)`` (bit-identical outputs, asserted by
        ``tests/test_vectorized_equivalence.py``).
        """
        segments, rates, _ = self.decode_greedy_from(
            encoder_outputs, self.initial_carry(initial_state.data),
            target_length, constraint, reachability)
        return segments, rates

    # ------------------------------------------------------------------
    # Split greedy decoding (the streaming engine's primitives)
    # ------------------------------------------------------------------
    def initial_carry(self, initial_state: np.ndarray) -> GreedyCarry:
        """The carry a greedy decode starts from: the encoder's trajectory
        feature as GRU state, the learned start embedding, rate 0."""
        initial_state = np.asarray(initial_state)
        b = initial_state.shape[0]
        return GreedyCarry(
            state=initial_state,
            prev_embed=self.start_embedding.data.reshape(1, -1) * np.ones((b, 1)),
            prev_rate=np.zeros((b, 1)),
            prev_segments=None,
        )

    def decode_greedy_from(
        self,
        encoder_outputs,
        carry: GreedyCarry,
        num_steps: int,
        constraint: Optional[DecodeConstraint],
        reachability: Optional["ReachabilityMask"] = None,
    ) -> Tuple[np.ndarray, np.ndarray, GreedyCarry]:
        """Greedy-decode ``num_steps`` more steps from a carry.

        ``constraint`` covers exactly the decoded span — its step 0 is the
        first step decoded here — not the whole grid.  With ``carry = initial_carry(...)`` this IS
        :meth:`decode_greedy`; with the carry a previous call returned it
        continues that decode bit-identically to the unsplit run (the
        reachability mask at the first step uses ``carry.prev_segments``,
        exactly as the full decode would use the prefix's last prediction).

        Weight unpacking + key projection happen once per call; each loop
        iteration is one :func:`greedy_step`, the same primitive the
        continuous-batching engine drives slot by slot.
        """
        with profile.section("decode.greedy"):
            enc = getattr(encoder_outputs, "data", encoder_outputs)
            weights = GreedyWeights.from_decoder(self)
            keys = weights.project_keys(enc)  # W_h·enc, constant per decode
            b = enc.shape[0]
            segments = np.zeros((b, num_steps), dtype=np.int64)
            rates = np.zeros((b, num_steps))
            for j in range(num_steps):
                predicted, step_rates, carry = greedy_step(
                    weights, enc, keys, carry, constraint, j, reachability)
                segments[:, j] = predicted
                rates[:, j] = step_rates
            return segments, rates, carry


def _prior_radius(scale: float, floor: float) -> float:
    """Query radius of the interpolation prior: 3·scale, or the kernel's
    support scale·sqrt(ln(1/floor)) where that is smaller.  Past the
    support exp(-d²/scale²) < ``floor``, so a hit would only rewrite
    ``floor`` with ``floor``; the 1e-9 relative pad keeps the first dropped
    hit's weight ~1e-8·floor below ``floor``, far beyond any rounding in
    the kernel, so the shrunk query is exact.  ``floor`` ≥ 1 clamps every
    weight (empty support); ``floor`` ≤ 0 clamps none."""
    if floor >= 1.0:
        return 0.0
    radius = 3.0 * scale
    if floor > 0.0:
        radius = min(radius, scale * np.sqrt(-np.log(floor)) * (1.0 + 1e-9))
    return radius


def _prior_weights(dists: np.ndarray, scale: float, floor: float) -> np.ndarray:
    """Eq. 5's kernel exp(-d²/scale²), clamped from below at ``floor``."""
    return np.maximum(np.exp(-(dists / scale) ** 2), floor)


def _weights_within(dists: np.ndarray, radius: float, scale: float,
                    floor: float) -> np.ndarray:
    """The prior's weight at each distance: the kernel within ``radius``,
    ``floor`` past it, as off the prior's own support."""
    return np.where(dists <= radius, _prior_weights(dists, scale, floor), floor)


def _grid_positions(batch: Batch, start: int) -> np.ndarray:
    """(b, l_ρ − start, 2): each sample's low-sample fixes linearly
    interpolated at grid steps ``[start:]``."""
    positions = np.empty((batch.size, batch.target_length - start, 2))
    for i, sample in enumerate(batch.samples):
        low = sample.raw_low
        times = batch.target_times[i, start:]
        positions[i, :, 0] = np.interp(times, low.times, low.xy[:, 0])
        positions[i, :, 1] = np.interp(times, low.times, low.xy[:, 1])
    return positions


def _prior_support(points: np.ndarray, network, scale: float, floor: float):
    """The interpolation prior at (n, 2) ``points``: per point a slice
    (lo (n,), hi (n,)) into the pooled support (ids, weights).  Equal
    points — clamped tails, padded grids, stationary spans, anywhere in the
    batch — share one slice, and all distinct points go through one call:
    the scan index cut to the union box of their query squares, a bbox test
    per point over what is left, one batched, cache-blocked distance pass
    (bit-equal to a per-point loop)."""
    first, inverse = sort_unique(points, return_index=True)
    indptr, ids, dists = network.segments_within_batch(
        points[first], _prior_radius(scale, floor))
    return (indptr[inverse], indptr[inverse + 1], ids,
            _prior_weights(dists, scale, floor))


def interpolation_prior(batch: Batch, network, scale: float, floor: float,
                        start: int = 0) -> DecodeConstraint:
    """The (b, l_ρ − start) decode prior from linear position interpolation.

    For each target timestamp the low-sample input is linearly interpolated
    to an approximate position; segments within the kernel's support
    (:func:`_prior_radius`) receive weight exp(-d²/scale²) (Eq. 5's kernel)
    and everything else ``floor``.  Combining this prior with the learned
    logits is a Bayesian product of experts: the uniform-speed prior anchors
    positions while the model disambiguates direction, route and timing.
    A step's row depends on its position alone, so building only steps
    ``[start:]`` is bit-equal to slicing the full-grid prior.
    """
    with profile.section("decode.prior"):
        positions = _grid_positions(batch, start)
        shape = positions.shape[:2]
        lo, hi, ids, weights = _prior_support(
            positions.reshape(-1, 2), network, scale, floor)
        return DecodeConstraint(np.full(shape, floor), lo.reshape(shape),
                                hi.reshape(shape), ids, weights,
                                network.num_segments)


def decode_constraint(batch: Batch, network, scale: float, floor: float,
                      start: int = 0) -> DecodeConstraint:
    """The constraint mask for grid steps ``[start:]``, by definition the
    paper's Eq. 16 tensor times the interpolation prior: every row is 1.0
    at an unobserved step and, at an observed one, 0 off the fix's entry
    and its weights on it (``tests/reference.py`` spells this tensor
    out), multiplied by ``interpolation_prior(..., start)`` when
    ``scale`` > 0.  With ``scale`` = 0 it is the Eq. 16 mask alone, which
    training uses.

    An unobserved step's product row *is* the prior row (1.0·p == p).  An
    observed step's is zero off its Eq. 16 entry and ``weight · prior`` on
    it: base 0 and the entry's few segments as support, the prior there
    from the distance kernel, radius and clamp the prior's own support
    uses — so the prior is queried at the unobserved steps only.

    On a network at least ``_SCREEN_WIDTH`` segments wide, whose rows the
    decode step screens, the unobserved steps keep their interpolated
    positions instead (:class:`DeferredPrior`): the screen scores the
    prior on the columns that can win, and :meth:`DecodeConstraint.support`
    / :meth:`DecodeConstraint.row` build a step on demand, byte-equal to
    the eager row.  Narrower networks build the prior here.
    """
    shape = (batch.size, batch.target_length - start)
    base = np.full(shape, floor if scale > 0 else 1.0)
    lo, hi = np.zeros(shape, np.int64), np.zeros(shape, np.int64)
    ids, weights, free = _NO_IDS, _NO_WEIGHTS, np.ones(shape, dtype=bool)
    prior = None
    observed = batch.observed_entries(start)
    if observed is not None:
        rows_i, rows_j, counts, entry_ids, entry_weights = observed
        free[rows_i, rows_j] = False
    if scale > 0:
        positions = _grid_positions(batch, start)
        if network.num_segments >= _SCREEN_WIDTH:
            prior = DeferredPrior(network, scale, floor, positions, free)
        elif free.any():
            with profile.section("decode.prior"):
                lo[free], hi[free], ids, weights = _prior_support(
                    positions[free], network, scale, floor)
    if observed is not None:
        if scale > 0:
            at = positions[rows_i, rows_j].repeat(counts, axis=0)
            dists = network.segment_distances(at[:, 0], at[:, 1], entry_ids)
            entry_weights = entry_weights * _weights_within(
                dists, _prior_radius(scale, floor), scale, floor)
        stops = len(ids) + np.cumsum(counts)
        base[rows_i, rows_j] = 0.0
        lo[rows_i, rows_j], hi[rows_i, rows_j] = stops - counts, stops
        ids = np.concatenate([ids, entry_ids])
        weights = np.concatenate([weights, entry_weights])
    return DecodeConstraint(base, lo, hi, ids, weights, network.num_segments,
                            prior)


class ReachabilityMask:
    """k-hop forward reachability over the road graph for decoding.

    The set R(s) = {s} ∪ N_out(s) ∪ ... ∪ N_out^k(s) contains every segment
    a vehicle can occupy one ε_ρ interval after being on s.  Combining this
    with the observed-step constraint mask keeps greedy decoding spatially
    consistent — the motivation the paper gives for road-network awareness
    (§I); the original MTrajRec decoder omits it and relies on massive
    training data instead.
    """

    def __init__(self, network, hops: int = 2,
                 escape_weight: float = 0.02) -> None:
        """A view of ``network.khop_closure(hops)`` — the CSR closure is
        memoized on (or preloaded into) the network, so every mask over one
        network shares its arrays and building one costs nothing."""
        if not 0.0 <= escape_weight <= 1.0:
            raise ValueError(
                f"escape_weight must be in [0, 1]; got {escape_weight}")
        self.hops = hops
        self.escape_weight = escape_weight
        self.num_nodes = network.num_segments
        self._indptr, self._indices = network.khop_closure(hops)

    @property
    def _sets(self) -> List[np.ndarray]:
        """Per-node reachable-id arrays (introspection view)."""
        return np.split(self._indices, self._indptr[1:-1])

    def reachable(self, segment: int) -> np.ndarray:
        """The segments reachable from ``segment`` (a CSR slice)."""
        return self._indices[self._indptr[segment]:self._indptr[segment + 1]]

    def combine(self, mask_row: Optional[np.ndarray], previous: np.ndarray,
                num_segments: int) -> np.ndarray:
        """Down-weight (b, |V|) mask entries unreachable from ``previous``.

        Soft masking: unreachable segments keep ``escape_weight`` of their
        mask weight rather than zero, so a confident model can recover from
        an earlier wrong turn instead of being locked into it.  The batch
        dimension is handled with one ragged CSR gather + fancy-indexed
        restore instead of a per-row Python loop.
        """
        previous = np.asarray(previous, dtype=np.int64)
        b = len(previous)
        if mask_row is None:
            mask_row = np.ones((b, num_segments))
        out = mask_row * self.escape_weight
        if b == 1:
            # Engine slots decode batch-of-1: the reachable columns are one
            # contiguous CSR slice, no ragged gather needed.  Same columns,
            # same writes, same bits as the general path below.
            cols = self.reachable(int(previous[0]))
            out[0, cols] = mask_row[0, cols]
            return out
        starts = self._indptr[previous]
        counts = self._indptr[previous + 1] - starts
        rows = np.repeat(np.arange(b), counts)
        cols = self._indices[ragged_positions(starts, counts)]
        out[rows, cols] = mask_row[rows, cols]
        return out
