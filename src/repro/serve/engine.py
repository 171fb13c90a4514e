"""Decode engine: the shard-level slot table.

A run-to-completion scheduler admits a batch and decodes all of it —
a short request admitted behind a long one waits for the whole decode.
This module is the LLM-serving-style alternative: a
:class:`ContinuousEngine` holds a fixed pool of decode *slots*, each one
in-flight greedy decode parked between steps, and
:meth:`ContinuousEngine.step` advances the slots it is given (by default
every occupied one) one decode step.  Finished slots retire the moment
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
greedy_step` on that slot's own carry), which makes interleaving
unobservable *by construction*: any admission order, step order,
retirement order or splice pattern replays precisely the floating-point
ops of a solo run-to-completion decode.  What the slot table buys is
therefore scheduling freedom — no head-of-line blocking, a decode can be
parked mid-flight at no cost, no padding to a group's longest grid,
per-sequence weight unpacking and attention-key projection hoisted to
admission — not cross-slot GEMM fusion.

A slot holds nothing but its own sequence: the job, the hoisted keys, the
:class:`~repro.core.decoder.GreedyCarry` its last step returned, and its
output buffers.  The kernel allocates what it returns and never writes to
what it is given, so a carry is immutable once it exists — a checkpoint or
a retired result's final carry is a reference, not a copy — and slots
share no array, so jobs of any hidden width sit side by side.  Slot ids
are recycled through a LIFO free list.  Every job comes from
:func:`build_job`, and streaming sessions join the same table: a job
built from a session's carry checkpoint (with ``checkpoint_at`` marking
the commit boundary) decodes next to fresh one-shot requests, and its
boundary carry is kept as the decode passes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .. import profile
from ..core.decoder import DecodeConstraint, GreedyCarry, GreedyWeights, greedy_step
from ..core.model import RNTrajRec
from ..nn.tensor import no_grad
from ..trajectory.dataset import RecoverySample, make_batch


class EngineError(RuntimeError):
    """A decode job the engine cannot run (bad shape, saturated table)."""


@dataclass
class DecodeJob:
    """One sequence's decode work, self-contained and model-resolved.

    ``enc`` is the (1, l_τ, d) encoder output, ``carry`` the starting
    :class:`GreedyCarry` (``initial_carry`` for one-shot requests, a
    session checkpoint for streaming joins), ``constraint`` the sparse
    mask of exactly the decoded span's ``num_steps`` steps (or ``None``).
    ``weights`` is the model's unpacked parameter bundle.
    ``checkpoint_at`` ≥ 0 asks for the carry after that many steps (the
    streaming commit boundary); −1 disables it.  The engine only ever
    reads a job's arrays.
    """

    enc: np.ndarray
    carry: GreedyCarry
    num_steps: int
    constraint: Optional[DecodeConstraint]
    weights: GreedyWeights
    reachability: Any = None
    tag: str = ""
    checkpoint_at: int = -1


def build_job(model: RNTrajRec, sample: RecoverySample, tag: str, *,
              start: int = 0, carry: Optional[GreedyCarry] = None,
              checkpoint_at: int = -1) -> DecodeJob:
    """The decode of ``sample``'s grid steps ``[start:]`` under ``model``.

    The one place a decode is assembled — one-shot admissions, streaming
    suffix decodes and ``finalize`` all come through here: a batch-of-1
    encode, the starting carry (``initial_carry`` unless a session
    checkpoint is given) and the sparse constraint of the decoded span,
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
    ``carry`` is the final carry, ``checkpoint`` the carry after
    ``checkpoint_at`` steps when the job asked for one — the very objects
    the kernel returned, which nothing writes to afterwards.
    """

    segments: np.ndarray
    rates: np.ndarray
    carry: GreedyCarry
    checkpoint: Optional[GreedyCarry] = None


@dataclass
class _Slot:
    """One in-flight decode: its job, the attention keys hoisted at
    admission, the carry the last :func:`greedy_step` returned (the job's
    own until the first step), and where its outputs go."""

    job: DecodeJob
    keys: np.ndarray
    carry: GreedyCarry
    segments: np.ndarray
    rates: np.ndarray
    checkpoint: Optional[GreedyCarry]
    step: int = 0


@dataclass
class Retirement:
    """One slot finishing (or failing) during a :meth:`ContinuousEngine.step`."""

    slot: int
    result: Optional[DecodeResult] = None
    error: Optional[BaseException] = None


class ContinuousEngine:
    """Admit / step / retire over ``capacity`` decode slots.

    Single-threaded by design: one engine belongs to one scheduler worker
    (one per :class:`~repro.serve.RecoveryService`, so one per
    in-process shard or worker process).  Slots share nothing, so a job
    of any hidden width is seated next to whatever is in flight (a hot
    swap to a differently-sized architecture needs no drain).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"engine capacity must be >= 1; got {capacity}")
        self.capacity = int(capacity)
        self._slots: List[Optional[_Slot]] = [None] * self.capacity
        self._free = list(range(self.capacity - 1, -1, -1))  # LIFO: pop() yields slot 0 first
        self.steps = 0        # step() calls that advanced a slot
        self.slot_steps = 0   # per-slot decode steps run
        self.resident_steps = 0  # occupied slots, summed over those calls
        self.admitted = 0
        self.retired = 0

    @property
    def inflight(self) -> int:
        return self.capacity - len(self._free)

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def admit(self, job: DecodeJob) -> int:
        """Seat a job in a free slot; returns the slot id.  Raises
        :class:`EngineError` on a malformed job or a full table."""
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
        if not self._free:
            raise EngineError("slot table is full")
        keys = job.weights.project_keys(job.enc)
        slot = self._free.pop()
        self._slots[slot] = _Slot(
            job=job, keys=keys, carry=job.carry,
            segments=np.zeros(job.num_steps, dtype=np.int64),
            rates=np.zeros(job.num_steps),
            # checkpoint_at == 0: the commit boundary is the admitted carry
            # itself (a streaming append whose committing chunk is empty).
            checkpoint=job.carry if job.checkpoint_at == 0 else None)
        self.admitted += 1
        return slot

    def _release(self, i: int) -> None:
        """Free the slot: drop everything it held, recycle its id."""
        self._slots[i] = None
        self._free.append(i)

    def step(self, slots: Optional[Sequence[int]] = None) -> List[Retirement]:
        """Advance the given occupied slots (default: every occupied slot,
        ascending) one decode step; returns retirements.

        Each slot runs :func:`greedy_step` on its own carry and keeps the
        carry that comes back — the exact batch-of-1 op sequence of the
        run-to-completion kernel — so results cannot depend on
        co-residents, nor on which slots a call steps.  A slot whose step
        raises retires with the error; the others are unaffected.
        """
        if slots is None:
            slots = [i for i, slot in enumerate(self._slots) if slot is not None]
        if not slots:
            return []
        resident = self.inflight
        retirements: List[Retirement] = []
        with profile.section("engine.step"):
            for i in slots:
                slot = self._slots[i]
                if slot is None:
                    raise EngineError(f"slot {i} is not active")
                job, j = slot.job, slot.step
                try:
                    predicted, step_rates, slot.carry = greedy_step(
                        job.weights, job.enc, slot.keys, slot.carry,
                        job.constraint, j, job.reachability)
                    slot.segments[j] = predicted[0]
                    slot.rates[j] = step_rates[0]
                    slot.step = j + 1
                    if slot.step == job.checkpoint_at:
                        slot.checkpoint = slot.carry
                    if slot.step == job.num_steps:
                        retirements.append(Retirement(i, result=DecodeResult(
                            slot.segments, slot.rates, slot.carry,
                            slot.checkpoint)))
                        self._release(i)
                except Exception as exc:  # quarantine the slot, keep stepping
                    retirements.append(Retirement(i, error=exc))
                    self._release(i)
        self.steps += 1
        self.slot_steps += len(slots)
        self.resident_steps += resident
        self.retired += len(retirements)
        return retirements

    def abort(self) -> List[Retirement]:
        """Drop every in-flight slot (shutdown without drain); returns the
        abandoned slots as error retirements."""
        dropped: List[Retirement] = []
        for i, slot in enumerate(self._slots):
            if slot is not None:
                dropped.append(Retirement(
                    i, error=EngineError("engine aborted before completion")))
                self._release(i)
        self.retired += len(dropped)
        return dropped

    def stats(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "inflight": self.inflight,
            "engine_steps": self.steps,
            "slot_steps": self.slot_steps,
            "resident_steps": self.resident_steps,
            "admitted": self.admitted,
            "retired": self.retired,
        }
