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

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import nn, profile
from ..nn import functional as F
from ..nn.graph import ragged_positions
from ..nn.tensor import Tensor, no_grad
from ..trajectory.dataset import Batch
from .config import RNTrajRecConfig


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Raw-array twin of :meth:`repro.nn.tensor.Tensor.sigmoid` — same
    clipping and branch structure, so values are bit-identical.  The clip
    is spelled as its ufunc definition (``minimum(maximum(x, lo), hi)``,
    bit-equal by construction) because ``np.clip``'s dispatch overhead is
    measurable at the (1, d) sizes the decode engine steps with."""
    clipped = np.minimum(np.maximum(x, -60.0), 60.0)
    exp_neg = np.exp(-np.abs(clipped))
    return np.where(clipped >= 0, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))


@dataclass
class DecoderOutput:
    """Stacked per-step decoder outputs."""

    segment_log_probs: Tensor   # (b, l_ρ, |V|) — masked log softmax
    rates: Tensor               # (b, l_ρ)


@dataclass
class GreedyWeights:
    """Raw arrays of every parameter the greedy kernel touches, unpacked once.

    The run-to-completion kernel unpacks these at the top of each decode
    call, the continuous-batching engine (``repro.serve.engine``) once per
    admitted job, so the per-step cost is pure math.  The arrays are
    references to (not copies of) the decoder's parameters — building a
    bundle is sixteen attribute reads, and it is only valid for as long as
    the model generation it was built from.
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
    rate_w: np.ndarray       # rate head (2d, 1)
    rate_b: np.ndarray
    embed_table: np.ndarray  # segment embeddings (|V|, d)
    start: np.ndarray        # learned start embedding (d,)
    num_segments: int
    hidden_dim: int

    @classmethod
    def from_decoder(cls, decoder: "RecoveryDecoder") -> "GreedyWeights":
        attention, gru = decoder.attention, decoder.gru
        return cls(
            w_h=attention.w_h.weight.data,
            w_g=attention.w_g.weight.data,
            v=attention.v.data,
            w_z=gru.w_z.data, b_z=gru.b_z.data,
            w_r=gru.w_r.data, b_r=gru.b_r.data,
            w_c=gru.w_c.data, b_c=gru.b_c.data,
            head=decoder.segment_head.weight.data,
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
    mask_row: Optional[np.ndarray],
    reachability: Optional["ReachabilityMask"],
) -> Tuple[np.ndarray, np.ndarray, "GreedyCarry"]:
    """One greedy decode step; returns (predicted (b,), rates (b,), carry).

    This is the loop body of :meth:`RecoveryDecoder.decode_greedy_from`,
    shared verbatim between the run-to-completion kernel and the continuous-
    batching engine's per-slot stepper so the two can never drift: a slot
    stepped ``n`` times replays the exact floating-point op sequence of an
    ``n``-step kernel call on the same carry.  ``mask_row`` is the step's
    raw constraint row (a view is fine — nothing here mutates it);
    the reachability combine with ``carry.prev_segments`` happens inside,
    exactly as the full kernel does it.
    """
    state, prev_embed, prev_rate = carry.state, carry.prev_embed, carry.prev_rate
    prev_segments = carry.prev_segments
    b, length = enc.shape[0], enc.shape[1]
    if reachability is not None and prev_segments is not None:
        mask_row = reachability.combine(mask_row, prev_segments,
                                        weights.num_segments)
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
    # Segment head + Eq. 16 mask, argmax only.
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
        """One decode step; returns (log_probs, new_state, context).

        ``projected_keys`` optionally carries the attention's W_h·enc
        projection, which is constant across steps — decode loops compute
        it once instead of per step.
        """
        logits, state, context = self._step_logits(
            prev_embed, prev_rate, state, encoder_outputs, projected_keys
        )
        if mask_row is not None:
            log_probs = F.masked_log_softmax(logits, mask_row, axis=-1)
        else:
            log_probs = F.log_softmax(logits, axis=-1)
        return log_probs, state, context

    def _step_logits(
        self,
        prev_embed: Tensor,
        prev_rate: Tensor,
        state: Tensor,
        encoder_outputs: Tensor,
        projected_keys: Optional[Tensor] = None,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Attention + GRU + segment head, without the softmax normalization
        (greedy decoding only needs the argmax, and log-softmax is a
        monotone per-row shift — see :meth:`decode_greedy`)."""
        context = self.attention(state, encoder_outputs, projected_keys=projected_keys)
        gru_input = nn.concat([prev_embed, prev_rate, context], axis=-1)
        state = self.gru(gru_input, state)
        return self.segment_head(state), state, context

    def _rate(self, segment_embed: Tensor, state: Tensor) -> Tensor:
        """Eq. 17 head: sigmoid of a bilinear score."""
        return self.rate_head(nn.concat([segment_embed, state], axis=-1)).sigmoid()

    # ------------------------------------------------------------------
    def forward_teacher(
        self,
        encoder_outputs: Tensor,
        initial_state: Tensor,
        batch: Batch,
        constraint: np.ndarray,
        teacher_forcing_ratio: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> DecoderOutput:
        """Training pass with scheduled sampling (MTrajRec uses ratio 0.5).

        At each step the next-step input is the gold segment/ratio with
        probability ``teacher_forcing_ratio`` and the model's own greedy
        prediction otherwise, which closes the train/inference gap of pure
        teacher forcing.  The rate head is always supervised on the gold
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
                prev_embed, prev_rate, state, encoder_outputs, constraint[:, j, :],
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
        constraint: Optional[np.ndarray],
        reachability: Optional["ReachabilityMask"] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Greedy inference; returns (segments (b, l_ρ), rates (b, l_ρ)).

        ``reachability`` optionally enforces spatial consistency: after the
        first step, candidates at unobserved timestamps are restricted to
        segments reachable from the previous prediction within one ε_ρ
        interval (k-hop neighborhood).  Observed timestamps always keep the
        paper's distance-based constraint mask.

        The step recurrence is inherently sequential, but inference needs
        neither gradients nor normalized probabilities, so the loop runs as
        a raw-numpy kernel: the attention key projection is hoisted out of
        the loop, each step replays the exact floating-point operations of
        :meth:`_step_logits` on plain arrays (bit-identical outputs,
        asserted by ``tests/test_vectorized_equivalence.py``), and greedy
        selection uses ``argmax(logits + log mask)`` — the log-softmax
        normalizer is a constant per row and cannot change the argmax.
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
        constraint: Optional[np.ndarray],
        reachability: Optional["ReachabilityMask"] = None,
    ) -> Tuple[np.ndarray, np.ndarray, GreedyCarry]:
        """Greedy-decode ``num_steps`` more steps from a carry.

        ``constraint`` covers exactly the decoded span — (b, num_steps, |V|)
        — not the whole grid.  With ``carry = initial_carry(...)`` this IS
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
                # No step mutates the mask, so a view (not a copy) is safe.
                mask_row = constraint[:, j, :] if constraint is not None else None
                predicted, step_rates, carry = greedy_step(
                    weights, enc, keys, carry, mask_row, reachability)
                segments[:, j] = predicted
                rates[:, j] = step_rates
            return segments, rates, carry

    # ------------------------------------------------------------------
    def decode_beam(
        self,
        encoder_outputs: Tensor,
        initial_state: Tensor,
        target_length: int,
        constraint: Optional[np.ndarray],
        beam_width: int = 4,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Beam-search decoding (extension; the paper decodes greedily).

        Tracks ``beam_width`` hypotheses per trajectory, scoring by summed
        masked log-probabilities.  All live hypotheses of one trajectory are
        stacked into the *batch axis* of a single :meth:`_step` call, and
        expansion is one top-k over the flattened (beams × |V|) score matrix
        — no per-beam Python candidate lists.  Selecting the global top
        ``beam_width`` of that matrix is equivalent to the classic
        per-beam-top-k-then-merge: a candidate outside its own beam's top
        ``beam_width`` is outranked by ``beam_width`` siblings and can never
        make the global cut.  The rate head runs once along the winning
        hypothesis.
        """
        with no_grad(), profile.section("decode.beam"):
            batch_size = encoder_outputs.shape[0]
            num_segments = self.num_segments
            segments = np.zeros((batch_size, target_length), dtype=np.int64)
            rates = np.zeros((batch_size, target_length))
            enc_data = encoder_outputs.data
            keys_data = self.attention.project_keys(encoder_outputs).data

            for i in range(batch_size):
                scores = np.zeros(1)
                histories = np.zeros((1, 0), dtype=np.int64)
                state = initial_state[i : i + 1]
                prev_embed = self.start_embedding.reshape(1, -1)
                prev_rate = Tensor(np.zeros((1, 1)))
                for j in range(target_length):
                    k = len(scores)
                    enc_k = Tensor(np.broadcast_to(enc_data[i], (k,) + enc_data[i].shape))
                    keys_k = Tensor(np.broadcast_to(keys_data[i], (k,) + keys_data[i].shape))
                    mask_row = None
                    if constraint is not None:
                        mask_row = np.broadcast_to(constraint[i, j, :], (k, num_segments))
                    log_probs, new_state, _ = self._step(
                        prev_embed, prev_rate, state, enc_k, mask_row,
                        projected_keys=keys_k,
                    )
                    flat = (scores[:, None] + log_probs.data).reshape(-1)
                    if flat.size > beam_width:
                        top = np.argpartition(-flat, beam_width - 1)[:beam_width]
                    else:
                        top = np.arange(flat.size)
                    # Deterministic ranking: score descending, index tiebreak.
                    top = top[np.lexsort((top, -flat[top]))]
                    beam_idx, sids = top // num_segments, top % num_segments
                    scores = flat[top]
                    histories = np.concatenate(
                        [histories[beam_idx], sids[:, None]], axis=1
                    )
                    state = Tensor(new_state.data[beam_idx])
                    prev_embed = self.segment_embedding(sids)
                    rate = self._rate(prev_embed, state)
                    prev_rate = Tensor(np.clip(rate.data.reshape(-1, 1), 0.0, 1.0 - 1e-9))
                segments[i] = histories[int(np.argmax(scores))]
                # Re-run the rate head along the winning path for per-step rates.
                enc_i = encoder_outputs[i : i + 1]
                keys_i = Tensor(keys_data[i : i + 1])
                state = initial_state[i : i + 1]
                prev_embed = self.start_embedding.reshape(1, -1)
                prev_rate = Tensor(np.zeros((1, 1)))
                for j in range(target_length):
                    # Only the recurrent state matters here (the path is
                    # fixed), so skip the softmax entirely.
                    _, state, _ = self._step_logits(
                        prev_embed, prev_rate, state, enc_i, projected_keys=keys_i,
                    )
                    prev_embed = self.segment_embedding(segments[i, j : j + 1])
                    rate = self._rate(prev_embed, state)
                    rates[i, j] = float(np.clip(rate.data.reshape(-1)[0], 0.0, 1.0 - 1e-9))
                    prev_rate = Tensor(np.full((1, 1), rates[i, j]))
            return segments, rates


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


def interpolation_prior(batch: Batch, network, scale: float, floor: float,
                        start: int = 0) -> np.ndarray:
    """(b, l_ρ − start, |V|) decode prior from linear position interpolation.

    For each target timestamp the low-sample input is linearly interpolated
    to an approximate position; segments within the kernel's support
    (:func:`_prior_radius` — at most 3·scale meters, and no further than
    the weight can exceed ``floor``, which leaves the array unchanged)
    receive weight exp(-d²/scale²) (Eq. 5's kernel) and everything else
    ``floor``.
    Combining this prior with the learned logits at decode time is a
    Bayesian product of experts: the uniform-speed prior anchors positions
    while the model disambiguates direction, route and timing.

    Steps that interpolate to the same position (clamped tails past the
    last fix, padded serving grids, stationary spans — deduplicated across
    the *whole batch*, not just consecutive steps) share one R-tree query,
    all distinct positions go through one batched distance pass (bit-equal
    to a per-position loop), and each row's hits land in one fancy-indexed
    assignment.

    Only grid steps ``[start:]`` are materialized (a streaming suffix
    decode needs no more); a step's row depends on that step's position
    alone, so the result is bit-equal to slicing the full-grid prior.
    """
    with profile.section("decode.prior"):
        b = batch.size
        l_rho = batch.target_length - start
        num_segments = network.num_segments
        prior = np.full((b * l_rho, num_segments), floor)

        positions = np.empty((b, l_rho, 2))
        for i, sample in enumerate(batch.samples):
            low = sample.raw_low
            times = batch.target_times[i, start:]
            positions[i, :, 0] = np.interp(times, low.times, low.xy[:, 0])
            positions[i, :, 1] = np.interp(times, low.times, low.xy[:, 1])

        flat = positions.reshape(-1, 2)
        _, first, inverse = np.unique(flat, axis=0, return_index=True,
                                      return_inverse=True)
        indptr, ids, dists = network.segments_within_batch(
            flat[first], _prior_radius(scale, floor))
        weights = np.maximum(np.exp(-(dists / scale) ** 2), floor)
        for row, u in enumerate(inverse.reshape(-1)):
            hits = slice(indptr[u], indptr[u + 1])
            prior[row, ids[hits]] = weights[hits]
        return prior.reshape(b, l_rho, num_segments)


def decode_constraint(batch: Batch, network, scale: float, floor: float,
                      start: int = 0) -> np.ndarray:
    """The (b, l_ρ − start, |V|) decode-time mask for grid steps
    ``[start:]``: the paper's Eq. 16 distance constraint, sharpened by the
    interpolation prior when ``scale`` > 0 — by definition
    ``batch.constraint_tensor(|V|, start) * interpolation_prior(..., start)``,
    built in the prior's one allocation instead of three.

    An unobserved step's constraint row is all ones, so its product row
    *is* the prior row (1.0·p == p).  An observed step's row is zero off
    its Eq. 16 entry (0.0·p == 0.0) and ``weight · prior`` on it, so that
    row is rewritten in place from the entry's few segments.
    """
    if scale <= 0:
        return batch.constraint_tensor(network.num_segments, start)
    out = interpolation_prior(batch, network, scale, floor, start)
    for i, sample in enumerate(batch.samples):
        for j, entry in enumerate(sample.constraints[start:]):
            if entry is not None:
                ids, weights = entry
                kept = weights * out[i, j, ids]
                out[i, j] = 0.0
                out[i, j, ids] = kept
    return out


class ReachabilityMask:
    """k-hop forward reachability over the road graph for decoding.

    The set R(s) = {s} ∪ N_out(s) ∪ ... ∪ N_out^k(s) contains every segment
    a vehicle can occupy one ε_ρ interval after being on s.  Combining this
    with the observed-step constraint mask keeps greedy decoding spatially
    consistent — the motivation the paper gives for road-network awareness
    (§I); the original MTrajRec decoder omits it and relies on massive
    training data instead (see DESIGN.md).
    """

    def __init__(self, network, hops: int = 2,
                 escape_weight: float = 0.02) -> None:
        """A view of ``network.khop_closure(hops)`` — the CSR closure is
        memoized on (or preloaded into) the network, so every mask over one
        network shares its arrays and building one costs nothing."""
        self.hops = hops
        self.escape_weight = escape_weight
        self.num_nodes = network.num_segments
        self._indptr, self._indices = network.khop_closure(hops)

    @property
    def _sets(self) -> List[np.ndarray]:
        """Per-node reachable-id arrays (introspection view)."""
        return np.split(self._indices, self._indptr[1:-1])

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
            p = int(previous[0])
            cols = self._indices[self._indptr[p]:self._indptr[p + 1]]
            out[0, cols] = mask_row[0, cols]
            return out
        starts = self._indptr[previous]
        counts = self._indptr[previous + 1] - starts
        rows = np.repeat(np.arange(b), counts)
        cols = self._indices[ragged_positions(starts, counts)]
        out[rows, cols] = mask_row[rows, cols]
        return out
