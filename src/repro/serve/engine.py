"""Decode engine: the shard-level slot table.

A run-to-completion scheduler admits a batch and decodes all of it —
a short request admitted behind a long one waits for the whole decode.
This module is the LLM-serving-style alternative: a
:class:`ContinuousEngine` holds a fixed pool of decode *slots*, each one
in-flight greedy decode whose carry lives in the table between steps, and
:meth:`ContinuousEngine.step` advances the slots it is given (by default
every active one) one decode step.  Finished slots retire the moment
their own sequence ends, and new arrivals splice into freed slots
mid-flight.  Which slot to step next is the caller's policy — the serving
path's :class:`~repro.serve.batching.ContinuousScheduler` steps the
decode with the earliest solo finish and leaves the others parked.

Bit-identity is the design constraint, not an aspiration.  On this
platform OpenBLAS GEMM results are *not* row-stable — ``(A @ B)[i]``
differs bitwise from ``A[i:i+1] @ B`` — so stacking slots into one
``(b, d)`` GEMM would make a request's output depend on what else is in
flight.  The engine therefore advances each slot with the exact
batch-of-1 op sequence of ``decode_greedy`` (:func:`~repro.core.decoder.\
greedy_step` on that slot's row views), which makes interleaving
unobservable *by construction*: any admission order, step order,
retirement order or splice pattern replays precisely the floating-point
ops of a solo run-to-completion decode.  What the slot table buys is
therefore scheduling freedom — no head-of-line blocking, a decode can be
parked mid-flight at no cost, no padding to a group's longest grid,
per-sequence weight unpacking and attention-key projection hoisted to
admission — not cross-slot GEMM fusion.

The slot table packs per-sequence carries into contiguous arrays
(``state``/``prev_embed``/``prev_rate``/``prev_segment`` rows) with a
LIFO free list, so slot reuse is O(1) and the hot step loop works on row
views without allocation.  Every job comes from :func:`build_job`, and
streaming sessions join the same table: a job built from a session's
carry checkpoint (with ``checkpoint_at`` marking the commit boundary)
decodes next to fresh one-shot requests, and its boundary carry is
snapshotted in-flight.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .. import profile
from ..core.decoder import GreedyCarry, GreedyWeights, greedy_step
from ..core.model import RNTrajRec
from ..nn.tensor import no_grad
from ..trajectory.dataset import RecoverySample, make_batch


class EngineError(RuntimeError):
    """A decode job the engine cannot run (bad shape, saturated table)."""


def copy_carry(carry: GreedyCarry) -> GreedyCarry:
    """A deep copy — safe to hand out after the slot's rows are reused."""
    return GreedyCarry(
        state=np.array(carry.state, copy=True),
        prev_embed=np.array(carry.prev_embed, copy=True),
        prev_rate=np.array(carry.prev_rate, copy=True),
        prev_segments=(None if carry.prev_segments is None
                       else np.array(carry.prev_segments, copy=True)),
    )


@dataclass
class DecodeJob:
    """One sequence's decode work, self-contained and model-resolved.

    ``enc`` is the (1, l_τ, d) encoder output, ``carry`` the starting
    :class:`GreedyCarry` (``initial_carry`` for one-shot requests, a
    session checkpoint for streaming joins), ``constraint`` the
    (1, num_steps, |V|) mask rows for exactly the decoded span (or
    ``None``).  ``weights`` is the model's unpacked parameter bundle.
    ``keys`` is the hoisted attention-key projection; leave it
    ``None`` and admission computes ``weights.project_keys(enc)`` once.
    ``checkpoint_at`` ≥ 0 asks for a carry snapshot after that many steps
    (the streaming commit boundary); −1 disables it.
    """

    enc: np.ndarray
    carry: GreedyCarry
    num_steps: int
    constraint: Optional[np.ndarray]
    weights: GreedyWeights
    reachability: Any = None
    tag: str = ""
    keys: Optional[np.ndarray] = None
    checkpoint_at: int = -1


def build_job(model: RNTrajRec, sample: RecoverySample, tag: str, *,
              start: int = 0, carry: Optional[GreedyCarry] = None,
              checkpoint_at: int = -1) -> DecodeJob:
    """The decode of ``sample``'s grid steps ``[start:]`` under ``model``.

    The one place a decode is assembled — one-shot admissions, streaming
    suffix decodes and ``finalize`` all come through here: a batch-of-1
    encode, the starting carry (``initial_carry`` unless a session
    checkpoint is given) and the constraint rows of the decoded span,
    replaying exactly the ops ``RNTrajRec.recover`` runs before its decode
    — the structural half of the engine's bit-identity guarantee (the
    other half is the shared per-step kernel).
    """
    with no_grad():
        batch = make_batch([sample])
        with profile.section("model.encode"):
            encoded = model.encode(batch)
        if carry is None:
            carry = model.decoder.initial_carry(encoded.trajectory_feature.data)
        return DecodeJob(
            enc=encoded.point_features.data,
            carry=carry,
            num_steps=batch.target_length - start,
            constraint=model.decode_constraint(batch, start),
            weights=GreedyWeights.from_decoder(model.decoder),
            reachability=model.reachability,
            tag=tag,
            checkpoint_at=checkpoint_at,
        )


@dataclass
class DecodeResult:
    """What retiring a slot yields.

    ``segments``/``rates`` are (num_steps,) arrays, bit-identical to row 0
    of the equivalent ``decode_greedy``/``decode_greedy_from`` call.
    ``carry`` is the final carry (deep copy — the slot is already free),
    ``checkpoint`` the carry after ``checkpoint_at`` steps when the job
    asked for one.
    """

    segments: np.ndarray
    rates: np.ndarray
    carry: GreedyCarry
    checkpoint: Optional[GreedyCarry] = None


class SlotTable:
    """Packed ragged-batch state: one row per in-flight sequence.

    Carry components live in contiguous ``(capacity, d)`` arrays so the
    step loop reads and writes row views without per-step allocation;
    per-slot objects (job, hoisted keys, output buffers) live in parallel
    lists.  Slot ids are recycled through a LIFO free list — the most
    recently retired slot is reused first, keeping the active rows dense
    and cache-warm under steady traffic.
    """

    def __init__(self, capacity: int, hidden_dim: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1; got {capacity}")
        self.capacity = int(capacity)
        self.hidden_dim = int(hidden_dim)
        s, d = self.capacity, self.hidden_dim
        self.state = np.zeros((s, d))
        self.prev_embed = np.zeros((s, d))
        self.prev_rate = np.zeros((s, 1))
        self.prev_segment = np.zeros(s, dtype=np.int64)
        self.has_prev = np.zeros(s, dtype=bool)
        self.step = np.zeros(s, dtype=np.int64)
        self.active = np.zeros(s, dtype=bool)
        self.jobs: List[Optional[DecodeJob]] = [None] * s
        self.keys: List[Optional[np.ndarray]] = [None] * s
        self.segments_out: List[Optional[np.ndarray]] = [None] * s
        self.rates_out: List[Optional[np.ndarray]] = [None] * s
        self.checkpoints: List[Optional[GreedyCarry]] = [None] * s
        self._free = list(range(s - 1, -1, -1))  # LIFO: pop() yields slot 0 first
        self._active_ids: List[int] = []  # ascending; mirrors ``active``
        # The row views never move (the arrays are allocated once), so the
        # per-slot carry views are built here and reused every sweep
        # instead of being resliced per step.  Two variants per slot: with
        # and without the previous-segment row (``prev_segments`` is None
        # until the slot's first decoded step).
        self._view_prev = [GreedyCarry(
            state=self.state[i:i + 1], prev_embed=self.prev_embed[i:i + 1],
            prev_rate=self.prev_rate[i:i + 1],
            prev_segments=self.prev_segment[i:i + 1]) for i in range(s)]
        self._view_no_prev = [GreedyCarry(
            state=self.state[i:i + 1], prev_embed=self.prev_embed[i:i + 1],
            prev_rate=self.prev_rate[i:i + 1], prev_segments=None)
            for i in range(s)]

    @property
    def inflight(self) -> int:
        return self.capacity - len(self._free)

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def active_slots(self) -> np.ndarray:
        return np.asarray(self._active_ids, dtype=np.int64)

    def active_ids(self) -> List[int]:
        """Active slot ids, ascending — a copy, safe to iterate while
        retiring."""
        return list(self._active_ids)

    def admit(self, job: DecodeJob, keys: np.ndarray) -> int:
        """Seat a job in a free slot; returns the slot id."""
        if not self._free:
            raise EngineError("slot table is full")
        i = self._free.pop()
        carry = job.carry
        self.state[i] = carry.state[0]
        self.prev_embed[i] = carry.prev_embed[0]
        self.prev_rate[i] = carry.prev_rate[0]
        if carry.prev_segments is None:
            self.has_prev[i] = False
        else:
            self.prev_segment[i] = carry.prev_segments[0]
            self.has_prev[i] = True
        self.step[i] = 0
        self.jobs[i] = job
        self.keys[i] = keys
        self.segments_out[i] = np.zeros(job.num_steps, dtype=np.int64)
        self.rates_out[i] = np.zeros(job.num_steps)
        # checkpoint_at == 0: the commit boundary is the admitted carry
        # itself (a streaming append whose committing chunk is empty).
        self.checkpoints[i] = copy_carry(carry) if job.checkpoint_at == 0 else None
        self.active[i] = True
        bisect.insort(self._active_ids, i)
        return i

    def carry_view(self, i: int) -> GreedyCarry:
        """The slot's carry as (1, ·) row views — zero-copy reads; the
        step writes back through :meth:`store_carry`."""
        return (self._view_prev[i] if self.has_prev[i]
                else self._view_no_prev[i])

    def store_carry(self, i: int, carry: GreedyCarry) -> None:
        self.state[i] = carry.state[0]
        self.prev_embed[i] = carry.prev_embed[0]
        self.prev_rate[i] = carry.prev_rate[0]
        if carry.prev_segments is None:
            self.has_prev[i] = False
        else:
            self.prev_segment[i] = carry.prev_segments[0]
            self.has_prev[i] = True

    def retire(self, i: int) -> None:
        """Free the slot: scrub its rows and push it back on the free list."""
        if not self.active[i]:
            raise EngineError(f"slot {i} is not active")
        self.active[i] = False
        self._active_ids.remove(i)
        self.state[i] = 0.0
        self.prev_embed[i] = 0.0
        self.prev_rate[i] = 0.0
        self.prev_segment[i] = 0
        self.has_prev[i] = False
        self.step[i] = 0
        self.jobs[i] = None
        self.keys[i] = None
        self.segments_out[i] = None
        self.rates_out[i] = None
        self.checkpoints[i] = None
        self._free.append(i)


@dataclass
class Retirement:
    """One slot finishing (or failing) during a :meth:`ContinuousEngine.step`."""

    slot: int
    job: DecodeJob
    result: Optional[DecodeResult] = None
    error: Optional[BaseException] = None


class ContinuousEngine:
    """Admit / step / retire over a :class:`SlotTable`.

    Single-threaded by design: one engine belongs to one scheduler worker
    (one per :class:`~repro.serve.RecoveryService`, so one per shard
    replica).  The table is (re)built lazily from the first admitted
    job's hidden dim; a job with a different hidden dim (a hot swap to a
    differently-sized architecture) waits until the table drains —
    :meth:`admit` returns ``None`` to signal "defer, retry when empty".
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"engine capacity must be >= 1; got {capacity}")
        self.capacity = int(capacity)
        self.table: Optional[SlotTable] = None
        self.steps = 0        # step() calls that advanced a slot
        self.slot_steps = 0   # per-slot decode steps run
        self.admitted = 0
        self.retired = 0

    @property
    def inflight(self) -> int:
        return self.table.inflight if self.table is not None else 0

    @property
    def free_slots(self) -> int:
        return self.table.free_slots if self.table is not None else self.capacity

    def admit(self, job: DecodeJob) -> Optional[int]:
        """Seat a job; returns its slot id, or ``None`` when the job's
        hidden dim conflicts with in-flight work (retry after a drain).
        Raises :class:`EngineError` when the table is full."""
        if job.num_steps < 1:
            raise EngineError(
                f"decode jobs need >= 1 step; got {job.num_steps}")
        if job.enc.ndim != 3 or job.enc.shape[0] != 1:
            raise EngineError(
                f"job enc must be (1, l, d); got {job.enc.shape}")
        if job.checkpoint_at > job.num_steps:
            raise EngineError(
                f"checkpoint_at {job.checkpoint_at} beyond num_steps "
                f"{job.num_steps}")
        d = int(job.enc.shape[2])
        if self.table is None or (self.table.hidden_dim != d
                                  and self.table.inflight == 0):
            self.table = SlotTable(self.capacity, d)
        elif self.table.hidden_dim != d:
            return None
        keys = job.keys if job.keys is not None else job.weights.project_keys(job.enc)
        slot = self.table.admit(job, keys)
        self.admitted += 1
        return slot

    def step(self, slots: Optional[Sequence[int]] = None) -> List[Retirement]:
        """Advance the given active slots (default: every active slot) one
        decode step; returns retirements.

        Each slot runs :func:`greedy_step` on its own (1, ·) row views —
        the exact batch-of-1 op sequence of the run-to-completion kernel —
        so results cannot depend on co-residents, nor on which slots a
        call steps.  A slot whose step raises retires with the error; the
        others are unaffected.
        """
        table = self.table
        if table is None:
            return []
        if slots is None:
            slots = table.active_ids()
        if not slots:
            return []
        retirements: List[Retirement] = []
        with profile.section("engine.step"):
            for i in slots:
                job = table.jobs[i]
                j = int(table.step[i])
                try:
                    mask_row = (job.constraint[:, j, :]
                                if job.constraint is not None else None)
                    predicted, step_rates, carry = greedy_step(
                        job.weights, job.enc, table.keys[i],
                        table.carry_view(i), mask_row, job.reachability)
                    table.segments_out[i][j] = predicted[0]
                    table.rates_out[i][j] = step_rates[0]
                    table.store_carry(i, carry)
                    table.step[i] = j + 1
                    if j + 1 == job.checkpoint_at:
                        table.checkpoints[i] = copy_carry(carry)
                    if j + 1 == job.num_steps:
                        result = DecodeResult(
                            segments=table.segments_out[i],
                            rates=table.rates_out[i],
                            carry=copy_carry(carry),
                            checkpoint=table.checkpoints[i],
                        )
                        retirements.append(Retirement(i, job, result=result))
                        table.retire(i)
                except Exception as exc:  # quarantine the slot, keep stepping
                    retirements.append(Retirement(i, job, error=exc))
                    table.retire(i)
        self.steps += 1
        self.slot_steps += len(slots)
        self.retired += len(retirements)
        return retirements

    def abort(self) -> List[Retirement]:
        """Drop every in-flight slot (shutdown without drain); returns the
        abandoned slots as error retirements."""
        table = self.table
        if table is None:
            return []
        dropped: List[Retirement] = []
        for i in table.active_ids():
            job = table.jobs[i]
            dropped.append(Retirement(
                i, job, error=EngineError("engine aborted before completion")))
            table.retire(i)
        self.retired += len(dropped)
        return dropped

    def stats(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "inflight": self.inflight,
            "engine_steps": self.steps,
            "slot_steps": self.slot_steps,
            "admitted": self.admitted,
            "retired": self.retired,
        }


def run_to_completion(engine: ContinuousEngine,
                      jobs: List[DecodeJob]) -> List[DecodeResult]:
    """Admit what fits, step until drained, admitting as slots free up.

    A synchronous convenience for tests and offline use — the serving
    path drives the engine from :class:`~repro.serve.batching.\
ContinuousScheduler` instead.  Results come back in ``jobs`` order.
    """
    results: List[Optional[DecodeResult]] = [None] * len(jobs)
    slot_to_index: Dict[int, int] = {}
    pending = list(enumerate(jobs))
    pending.reverse()  # pop() from the front of the original order

    def _admit_available() -> None:
        while pending and engine.free_slots > 0:
            index, job = pending[-1]
            slot = engine.admit(job)
            if slot is None:
                return  # dim conflict: head-of-line waits for a drain
            pending.pop()
            slot_to_index[slot] = index

    _admit_available()
    while slot_to_index:
        for retirement in engine.step():
            index = slot_to_index.pop(retirement.slot)
            if retirement.error is not None:
                raise retirement.error
            results[index] = retirement.result
        _admit_available()
    return [result for result in results if result is not None]
