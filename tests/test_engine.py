"""Continuous-batching engine: the equivalence-first test harness.

The engine's contract is absolute: every sequence's output is
bit-identical to a solo run-to-completion ``decode_greedy`` /
``decode_greedy_from`` over the same inputs, **regardless of what else is
in flight** — co-residents, admission order, splice timing and slot reuse
must all be unobservable.  The matrix below drives batch sizes × length
mixes × arrival patterns through the raw engine, then repeats the
guarantee at the scheduler, service and streaming-join layers.

``REPRO_ENGINE_MATRIX=smoke`` trims the matrix for the CI hot-path smoke
(small batch sizes, two arrival patterns) without weakening any single
assertion.
"""

import dataclasses
import gc
import os
import threading
import weakref

import numpy as np
import pytest

import reference
from reference import run_to_completion
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.core.decoder import DecodeConstraint, GreedyWeights
from repro.nn.tensor import no_grad
from repro.roadnet import CityConfig, generate_city
from repro.serve import (
    ContinuousEngine,
    ContinuousScheduler,
    DecodeJob,
    EngineError,
    RecoveryRequest,
    RecoveryService,
    ServeConfig,
)
from repro.stream import StreamingRecoveryService
from repro.trajectory import (
    DatasetConfig,
    SimulationConfig,
    TrajectorySimulator,
    build_samples,
    make_batch,
)

CFG = RNTrajRecConfig(hidden_dim=16, num_heads=2, max_subgraph_nodes=24,
                      receptive_delta=300.0, dropout=0.0)
_SMOKE = os.environ.get("REPRO_ENGINE_MATRIX", "") == "smoke"

BATCH_SIZES = (1, 3) if _SMOKE else (1, 3, 8)
MIXES = ("uniform", "short_long", "straggler")
PATTERNS = (("all_at_once", "staggered") if _SMOKE
            else ("all_at_once", "staggered", "retire_then_admit"))


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1200, height=1200, block=250,
                                    minor_fraction=0.5, seed=9))


@pytest.fixture(scope="module")
def model(city):
    model = RNTrajRec(city, CFG)
    model.eval()
    return model


@pytest.fixture(scope="module")
def wide_model(city):
    """A second architecture on the same city, twice as wide — what a hot
    swap to a differently-sized model puts next to in-flight work."""
    model = RNTrajRec(city, dataclasses.replace(CFG, hidden_dim=32))
    model.eval()
    return model


@pytest.fixture(scope="module")
def pools(city):
    """Sample pools by duration class — 'short' and 'long' trajectories
    decode on very different ε_ρ grids, which is what the length mixes
    permute."""
    pools = {}
    for label, points, seed in (("short", 9, 2), ("long", 29, 3)):
        sim = TrajectorySimulator(
            city, SimulationConfig(target_points=points, seed=seed))
        pools[label] = build_samples(sim.simulate(8), city,
                                     DatasetConfig(keep_every=4))
    return pools


@pytest.fixture(scope="module")
def solo(model):
    """Memoized solo baselines: the batch-of-1 run-to-completion decode."""
    cache = {}

    def baseline(sample):
        key = id(sample)
        if key not in cache:
            seg, rate = model.recover(make_batch([sample]))
            cache[key] = (seg[0], rate[0])
        return cache[key]

    return baseline


def job_for(model, sample, weights=None, checkpoint_at=-1):
    """The engine admission of one sample — exactly the ops the service's
    queued closure runs through ``build_job``."""
    batch = make_batch([sample])
    with no_grad():
        encoded = model.encode(batch)
        return DecodeJob(
            enc=encoded.point_features.data,
            carry=model.decoder.initial_carry(encoded.trajectory_feature.data),
            num_steps=batch.target_length,
            constraint=model.decode_constraint(batch),
            weights=weights or GreedyWeights.from_decoder(model.decoder),
            reachability=model.reachability,
            checkpoint_at=checkpoint_at,
        )


def carry_arrays(carry):
    return [array for array in (carry.state, carry.prev_embed,
                                carry.prev_rate, carry.prev_segments)
            if array is not None]


def frozen(job):
    """``job`` with every array the engine is handed made read-only: the
    engine keeps references (a slot starts on the job's own carry, results
    and checkpoints are the kernel's own outputs), so an in-place write
    anywhere on the step path must raise, not corrupt a neighbour."""
    constraint = [value for value in vars(job.constraint).values()
                  if isinstance(value, np.ndarray)]
    for array in [job.enc] + constraint + carry_arrays(job.carry):
        array.flags.writeable = False
    return job


@pytest.fixture(scope="module")
def jobs_for(model):
    """Memoized admission jobs: a job is immutable (the engine only reads
    enc / constraint / carry — enforced here by freezing them), so the same
    job can be admitted across matrix cells without re-encoding."""
    weights = GreedyWeights.from_decoder(model.decoder)
    cache = {}

    def build(samples):
        out = []
        for sample in samples:
            key = id(sample)
            if key not in cache:
                cache[key] = frozen(job_for(model, sample, weights=weights))
            out.append(cache[key])
        return out

    return build


def pick_mix(pools, mix, size):
    short, long_ = pools["short"], pools["long"]
    if mix == "uniform":
        chosen = [long_[i % len(long_)] for i in range(size)]
    elif mix == "short_long":
        chosen = [(short if i % 2 == 0 else long_)[i % len(short)]
                  for i in range(size)]
    else:  # straggler: one long sequence among shorts
        chosen = [short[i % len(short)] for i in range(size)]
        chosen[size // 2] = long_[0]
    return chosen


def drive(engine, jobs, admit_when):
    """Step the engine to completion, admitting job *i* only once
    ``admit_when(i, engine)`` allows; returns results in ``jobs`` order."""
    results = [None] * len(jobs)
    slot_map = {}
    next_index = 0
    while next_index < len(jobs) or slot_map:
        while (next_index < len(jobs) and engine.free_slots > 0
               and admit_when(next_index, engine)):
            slot_map[engine.admit(jobs[next_index])] = next_index
            next_index += 1
        if not slot_map:  # nothing in flight: force progress
            slot_map[engine.admit(jobs[next_index])] = next_index
            next_index += 1
        for retirement in engine.step():
            assert retirement.error is None, retirement.error
            results[slot_map.pop(retirement.slot)] = retirement.result
    return results


def on_each_step(scheduler, hook):
    """Call ``hook(admitted)`` on the scheduler's worker before every
    engine step, ``admitted`` being the decodes in the slot table (the
    running one plus the preempted ones)."""
    step = scheduler.engine.step

    def stepped(slots=None):
        hook(scheduler.engine.inflight)
        return step(slots)

    scheduler.engine.step = stepped


def run_pattern(jobs, pattern):
    if pattern == "all_at_once":
        engine = ContinuousEngine(capacity=len(jobs))
        return drive(engine, jobs, lambda i, e: True)
    if pattern == "staggered":
        # Splice job i in only after i kernel sweeps have already run —
        # every admission lands mid-flight of its predecessors.
        engine = ContinuousEngine(capacity=len(jobs))
        return drive(engine, jobs, lambda i, e: e.steps >= i)
    # retire_then_admit: a saturated 2-slot table; admissions can only
    # ride retirements, exercising free-list reuse under load.
    engine = ContinuousEngine(capacity=min(2, len(jobs)))
    return drive(engine, jobs, lambda i, e: True)


# ---------------------------------------------------------------------------
# The equivalence matrix
# ---------------------------------------------------------------------------
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("mix", MIXES)
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_engine_bit_identical_to_solo_decode(self, pools, solo, jobs_for,
                                                 size, mix, pattern):
        samples = pick_mix(pools, mix, size)
        results = run_pattern(jobs_for(samples), pattern)
        for sample, result in zip(samples, results):
            seg_solo, rate_solo = solo(sample)
            assert np.array_equal(result.segments, seg_solo)
            assert np.array_equal(result.rates, rate_solo)

    def test_run_to_completion_helper_matches(self, model, pools, solo):
        samples = pick_mix(pools, "short_long", 6)
        engine = ContinuousEngine(capacity=3)  # forces splicing
        results = run_to_completion(
            engine, [job_for(model, sample) for sample in samples])
        for sample, result in zip(samples, results):
            seg_solo, rate_solo = solo(sample)
            assert np.array_equal(result.segments, seg_solo)
            assert np.array_equal(result.rates, rate_solo)
        assert engine.inflight == 0
        assert engine.free_slots == engine.capacity


# ---------------------------------------------------------------------------
# Streaming-carry joins: decode_greedy_from equivalence
# ---------------------------------------------------------------------------
class TestStreamingCarryJoins:
    def _split_inputs(self, model, sample, split):
        batch = make_batch([sample])
        with no_grad():
            encoded = model.encode(batch)
            enc = encoded.point_features.data
            constraint = model.decode_constraint(batch)
            carry0 = model.decoder.initial_carry(
                encoded.trajectory_feature.data)
            # The committed prefix: decoded locally, its carry checkpointed.
            _, _, carry = model.decoder.decode_greedy_from(
                enc, carry0, split, constraint,
                reachability=model.reachability)
        return batch, enc, constraint, carry

    def test_suffix_job_matches_decode_greedy_from(self, model, pools):
        """A mid-sequence carry spliced into a busy engine decodes its
        suffix bit-identically to a local ``decode_greedy_from``."""
        sample = pools["long"][1]
        batch, enc, constraint, carry = self._split_inputs(model, sample, 5)
        length = batch.target_length
        with no_grad():
            seg_ref, rate_ref, carry_ref = model.decoder.decode_greedy_from(
                enc, carry, length - 5, model.decode_constraint(batch, 5),
                reachability=model.reachability)

        suffix = DecodeJob(
            enc=enc, carry=carry, num_steps=length - 5,
            constraint=model.decode_constraint(batch, 5),
            weights=GreedyWeights.from_decoder(model.decoder),
            reachability=model.reachability,
        )
        fresh = [job_for(model, s) for s in pools["short"][:3]]
        engine = ContinuousEngine(capacity=4)
        results = run_to_completion(engine, fresh + [suffix])
        result = results[-1]
        assert np.array_equal(result.segments, seg_ref[0])
        assert np.array_equal(result.rates, rate_ref[0])
        for field in ("state", "prev_embed", "prev_rate", "prev_segments"):
            assert np.array_equal(getattr(result.carry, field),
                                  getattr(carry_ref, field)), field

    def test_checkpoint_carry_matches_split_boundary(self, model, pools):
        """``checkpoint_at`` snapshots in-flight exactly the carry the PR 6
        two-chunk path checkpoints at the commit boundary."""
        sample = pools["long"][2]
        batch = make_batch([sample])
        length = batch.target_length
        boundary = length - 4
        with no_grad():
            encoded = model.encode(batch)
            enc = encoded.point_features.data
            constraint = model.decode_constraint(batch)
            carry0 = model.decoder.initial_carry(
                encoded.trajectory_feature.data)
            _, _, carry_ref = model.decoder.decode_greedy_from(
                enc, carry0, boundary, constraint,
                reachability=model.reachability)

        job = job_for(model, sample, checkpoint_at=boundary)
        engine = ContinuousEngine(capacity=2)
        result = run_to_completion(engine, [job])[0]
        assert result.checkpoint is not None
        for field in ("state", "prev_embed", "prev_rate", "prev_segments"):
            assert np.array_equal(getattr(result.checkpoint, field),
                                  getattr(carry_ref, field)), field

    def test_checkpoint_at_zero_returns_admitted_carry(self, model, pools):
        job = job_for(model, pools["short"][0], checkpoint_at=0)
        expected = {field: np.array(getattr(job.carry, field))
                    for field in ("state", "prev_embed", "prev_rate")}
        result = run_to_completion(ContinuousEngine(capacity=1), [job])[0]
        assert result.checkpoint is not None
        assert result.checkpoint.prev_segments is None
        for field, value in expected.items():
            assert np.array_equal(getattr(result.checkpoint, field), value)

    def test_resuming_from_a_checkpoint_leaves_its_bytes_unchanged(
            self, model, pools):
        """A session keeps the checkpoint it resumes from (and, with
        ``checkpoint_at=0``, gets the very same object back): the slot
        starts on that carry by reference, so running the resumed job to
        completion must not touch a byte of it."""
        sample = pools["long"][1]
        batch, enc, constraint, carry = self._split_inputs(model, sample, 5)
        before = [array.tobytes() for array in carry_arrays(carry)]
        suffix = DecodeJob(
            enc=enc, carry=carry, num_steps=batch.target_length - 5,
            constraint=model.decode_constraint(batch, 5),
            weights=GreedyWeights.from_decoder(model.decoder),
            reachability=model.reachability, checkpoint_at=0,
        )
        result = run_to_completion(ContinuousEngine(capacity=1), [suffix])[0]
        assert result.checkpoint is carry
        assert result.carry is not carry
        assert [array.tobytes() for array in carry_arrays(carry)] == before


# ---------------------------------------------------------------------------
# Slot table mechanics
# ---------------------------------------------------------------------------
class TestSlotTableMechanics:
    def test_built_job_holds_no_dense_constraint(self, model, pools):
        """``build_job`` — the serving path's one decode builder — hands
        the engine O(T + support) constraint numbers: per step a base and
        a slice, plus the pooled support; nothing of size T·|V|."""
        from repro.serve.engine import build_job

        sample = pools["long"][0]
        job = build_job(model, sample, "tag")
        constraint, steps = job.constraint, job.num_steps
        width = model.network.num_segments
        arrays = {name: value for name, value in vars(constraint).items()
                  if isinstance(value, np.ndarray)}
        assert set(arrays) == {"base", "lo", "hi", "ids", "weights"}
        for name in ("base", "lo", "hi"):
            assert arrays[name].shape == (1, steps)
        support = int((constraint.hi - constraint.lo).max())
        assert 0 < support < width
        assert len(constraint.ids) == len(constraint.weights) <= steps * support
        assert sum(a.size for a in arrays.values()) < steps * width
        assert reference.dense(constraint).shape == (1, steps, width)

    def test_saturation_raises_and_reuse_is_lifo(self, model, pools):
        jobs = [job_for(model, s) for s in pools["short"][:3]]
        engine = ContinuousEngine(capacity=2)
        first = engine.admit(jobs[0])
        second = engine.admit(jobs[1])
        with pytest.raises(EngineError):
            engine.admit(jobs[2])
        # Retire one by stepping to completion, then the freed slot is
        # reused first (LIFO free list).
        freed = None
        while freed is None:
            for retirement in engine.step():
                freed = retirement.slot
        assert freed in (first, second)
        assert engine.admit(jobs[2]) == freed

    def test_job_validation(self, model, pools):
        engine = ContinuousEngine(capacity=1)
        job = job_for(model, pools["short"][0])
        bad_steps = DecodeJob(enc=job.enc, carry=job.carry, num_steps=0,
                              constraint=None, weights=job.weights)
        with pytest.raises(EngineError):
            engine.admit(bad_steps)
        bad_checkpoint = DecodeJob(enc=job.enc, carry=job.carry,
                                   num_steps=job.num_steps, constraint=None,
                                   weights=job.weights,
                                   checkpoint_at=job.num_steps + 1)
        with pytest.raises(EngineError):
            engine.admit(bad_checkpoint)

    def test_resident_steps_sum_occupied_slots_per_step(self, model, pools):
        """``resident_steps`` counts co-residency once, in the engine: jobs
        of 3 and 5 steps stepped together occupy 2 + 2 + 2 + 1 + 1 slots;
        a parked slot counts while another one steps, as under the
        scheduler."""
        base = job_for(model, pools["short"][0])
        jobs = [dataclasses.replace(base, num_steps=n) for n in (3, 5)]
        engine = ContinuousEngine(capacity=2)
        run_to_completion(engine, jobs)
        stats = engine.stats()
        assert stats["resident_steps"] == 8
        assert stats["engine_steps"] == 5 and stats["slot_steps"] == 8

        engine = ContinuousEngine(capacity=2)
        _, long_ = (engine.admit(job) for job in jobs)
        for _ in range(5):
            engine.step((long_,))
        assert engine.stats()["resident_steps"] == 10
        assert engine.stats()["slot_steps"] == 5 and engine.inflight == 1

    def test_mixed_widths_co_reside(self, model, wide_model, pools, solo):
        """Slots share no array, so a job of another hidden width is seated
        next to in-flight work — no drain — and interleaved stepping gives
        each its own model's solo result."""
        sample = pools["short"][0]
        engine = ContinuousEngine(capacity=2)
        narrow = engine.admit(job_for(model, sample))
        wide = engine.admit(job_for(wide_model, sample))
        assert narrow is not None and wide is not None and narrow != wide
        assert engine.inflight == 2
        results = {}
        while engine.inflight:  # one step of each per call
            for retirement in engine.step():
                assert retirement.error is None, retirement.error
                results[retirement.slot] = retirement.result
        seg_wide, rate_wide = wide_model.recover(make_batch([sample]))
        for result, (seg, rate) in ((results[narrow], solo(sample)),
                                    (results[wide], (seg_wide[0], rate_wide[0]))):
            assert np.array_equal(result.segments, seg)
            assert np.array_equal(result.rates, rate)

    def test_retired_slot_holds_nothing(self, model, pools):
        """Retirement — by finishing, by a step error, by ``abort`` — frees
        the slot and drops everything it held: once the caller lets go of
        the job, its constraint tensor is collectable."""
        def job_and_ref(**changes):
            job = dataclasses.replace(job_for(model, pools["short"][0]),
                                      **changes)
            return job, weakref.ref(job.constraint)

        engine = ContinuousEngine(capacity=1)
        job, finished = job_and_ref()
        result = run_to_completion(engine, [job])[0]
        # Two constraint rows for a longer decode: step 2 raises.
        job, failed = job_and_ref(constraint=reference.constraint_from_dense(
            np.ones((1, 2, model.network.num_segments))))
        engine.admit(job)
        retired = []
        while not retired:
            retired = engine.step()
        assert isinstance(retired[0].error, IndexError)
        job, aborted = job_and_ref()
        engine.admit(job)
        engine.step()
        assert isinstance(engine.abort()[0].error, EngineError)

        assert engine.inflight == 0 and engine.free_slots == 1
        assert engine.step() == []
        assert engine.admitted == engine.retired == 3
        del job, retired  # the error's traceback still reaches its job
        gc.collect()
        assert finished() is None and failed() is None and aborted() is None
        assert len(result.segments) == pools["short"][0].target_length


# ---------------------------------------------------------------------------
# ContinuousScheduler: completion-order independence
# ---------------------------------------------------------------------------
class TestContinuousScheduler:
    def test_late_short_request_completes_before_earlier_long(self, model,
                                                              pools, solo):
        """The regression for the FIFO-completion assumption: futures are
        slot-keyed, so a short request admitted *after* a long one resolves
        first — with the right result on each."""
        long_sample, short_sample = pools["long"][0], pools["short"][0]
        order = []
        scheduler = ContinuousScheduler(max_slots=4)
        try:
            futures = {
                "long": scheduler.submit(long_sample.target_length,
                                         lambda: job_for(model, long_sample)),
                "short": scheduler.submit(short_sample.target_length,
                                          lambda: job_for(model, short_sample)),
            }
            for name, future in futures.items():
                future.add_done_callback(
                    lambda _, name=name: order.append(name))
            resolved = {name: future.result(timeout=120.0)
                        for name, future in futures.items()}
        finally:
            scheduler.close()
        assert order == ["short", "long"]
        for name, sample in (("long", long_sample), ("short", short_sample)):
            result = resolved[name]
            seg_solo, rate_solo = solo(sample)
            assert np.array_equal(result.segments, seg_solo)
            assert np.array_equal(result.rates, rate_solo)

    # -- earliest-solo-finish-first order --------------------------------
    # Order is forced, never timed: ``prepare`` is gated so entries queue
    # before anything steps, and later arrivals are injected from an
    # ``on_each_step`` hook at an exact value of the step clock.

    @staticmethod
    def _sized_jobs(model, sample, lengths):
        """Unconstrained decodes of exact lengths off one encoding, each
        with its own solo (fresh single-slot engine) result."""
        base = job_for(model, sample)
        jobs = [dataclasses.replace(base, num_steps=n, constraint=None)
                for n in lengths]
        solos = [run_to_completion(ContinuousEngine(capacity=1), [job])[0]
                 for job in jobs]
        return jobs, solos

    def test_gated_burst_resolves_by_grid_length_fifo_among_equals(
            self, model, pools):
        lengths = (65, 9, 33, 9, 17)
        jobs, solos = self._sized_jobs(model, pools["short"][0], lengths)
        gate = threading.Event()
        order = []

        def prepare(index):
            gate.wait(timeout=60.0)
            return jobs[index]

        scheduler = ContinuousScheduler(max_slots=8)
        try:
            futures = [scheduler.submit(n, lambda i=i: prepare(i))
                       for i, n in enumerate(lengths)]
            for i, future in enumerate(futures):
                future.add_done_callback(lambda _, i=i: order.append(i))
            gate.set()
            results = [future.result(timeout=120.0) for future in futures]
            stats = scheduler.stats()
        finally:
            scheduler.close()
        assert order == [1, 3, 4, 2, 0]  # 9, 9 (FIFO), 17, 33, 65
        assert stats["slot_steps"] == sum(lengths)  # work-conserving
        for result, reference in zip(results, solos):
            assert np.array_equal(result.segments, reference.segments)
            assert np.array_equal(result.rates, reference.rates)

    def test_short_arrival_preempts_long_mid_decode(self, model, pools, solo):
        long_sample, short_sample = pools["long"][0], pools["short"][0]
        order, futures = [], {}

        def watch(name, future):
            futures[name] = future
            future.add_done_callback(lambda _: order.append(name))

        def on_step(admitted):
            if scheduler.engine.slot_steps == 5:  # long is 5 steps in
                watch("short", scheduler.submit(
                    short_sample.target_length,
                    lambda: job_for(model, short_sample)))

        scheduler = ContinuousScheduler(max_slots=4)
        on_each_step(scheduler, on_step)
        try:
            watch("long", scheduler.submit(
                long_sample.target_length,
                lambda: job_for(model, long_sample)))
            long_result = futures["long"].result(timeout=120.0)
            short_result = futures["short"].result(timeout=120.0)
            stats = scheduler.stats()
        finally:
            scheduler.close()
        assert order == ["short", "long"]
        assert stats["preemptions"] == 1
        assert stats["slot_steps"] == (long_sample.target_length
                                       + short_sample.target_length)
        for sample, result in ((long_sample, long_result),
                               (short_sample, short_result)):
            seg_solo, rate_solo = solo(sample)
            assert np.array_equal(result.segments, seg_solo)
            assert np.array_equal(result.rates, rate_solo)

    def test_long_entry_is_overtaken_only_inside_its_own_window(self, model,
                                                                pools):
        """The starvation bound: a long entry keyed ``due = 0 + S`` is
        overtaken only by short entries enqueued before the clock reaches
        ``S - short``; under a dense stream of short arrivals it still
        runs ahead of every later one (pure shortest-remaining-first
        would hold it back until the stream ends)."""
        long_steps, short_steps, every, until = 33, 5, 4, 80
        (long_job, short_job), _ = self._sized_jobs(
            model, pools["short"][0], (long_steps, short_steps))
        order, arrivals = [], {}

        def on_step(admitted):
            clock = scheduler.engine.slot_steps
            if clock % every == 0 and clock < until:
                arrivals[clock] = scheduler.submit(short_steps,
                                                   lambda: short_job)
                arrivals[clock].add_done_callback(
                    lambda _, clock=clock: order.append(clock))

        scheduler = ContinuousScheduler(max_slots=8)
        on_each_step(scheduler, on_step)
        try:
            long_future = scheduler.submit(long_steps, lambda: long_job)
            long_future.add_done_callback(lambda _: order.append("long"))
            long_future.result(timeout=120.0)
            while scheduler.pending:  # the hook enqueues while we flush
                scheduler.flush()
            stats = scheduler.stats()
        finally:
            scheduler.close()
        position = order.index("long")
        ahead, behind = order[:position], order[position + 1:]
        assert ahead and behind
        assert all(clock + short_steps < long_steps for clock in ahead)
        assert all(clock + short_steps >= long_steps for clock in behind)
        assert sorted(ahead + behind) == sorted(arrivals)
        assert stats["slot_steps"] == long_steps + short_steps * len(arrivals)

    def test_flush_close_and_pending(self, model, pools):
        scheduler = ContinuousScheduler(max_slots=2)
        futures = [scheduler.submit(s.target_length,
                                    lambda s=s: job_for(model, s))
                   for s in pools["short"][:4]]
        scheduler.flush()
        assert all(f.done() for f in futures)
        assert scheduler.pending == 0
        stats = scheduler.stats()
        assert stats["admitted"] == 4 and stats["retired"] == 4
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.submit(1, lambda: job_for(model, pools["short"][0]))

    def test_close_without_drain_fails_pending_futures(self, model, pools):
        entered, release = threading.Event(), threading.Event()

        def slow_prepare(sample):
            entered.set()
            release.wait(timeout=60.0)
            return job_for(model, sample)

        scheduler = ContinuousScheduler(max_slots=2)
        futures = [scheduler.submit(s.target_length,
                                    lambda s=s: slow_prepare(s))
                   for s in pools["short"][:3]]
        assert entered.wait(timeout=60.0)  # the worker is inside slow_prepare
        release.set()
        scheduler.close(drain=False)
        for future in futures:
            with pytest.raises((RuntimeError, Exception)):
                future.result(timeout=60.0)
            assert future.done()

    def test_wide_job_is_admitted_beside_inflight_narrow(
            self, model, wide_model, pools, solo):
        """A hot swap to a model of another width blocks nobody: its first
        job is admitted *while* a long job of the old width is in flight,
        preempts it (it is shorter), and nothing waits for a drain."""
        wide_sample = pools["short"][0]
        wide_job = job_for(wide_model, wide_sample)
        entered, gate = threading.Event(), threading.Event()
        occupancy, order = [], []

        def prepare(sample):
            entered.set()
            gate.wait(timeout=60.0)
            return job_for(model, sample)

        scheduler = ContinuousScheduler(max_slots=4)
        on_each_step(scheduler, occupancy.append)
        try:
            # The gate holds the worker inside the long job's prepare, so
            # the other two are queued by the time it is seated.
            futures = {"first": scheduler.submit(
                pools["long"][0].target_length,
                lambda: prepare(pools["long"][0]))}
            assert entered.wait(timeout=60.0)
            futures["wide"] = scheduler.submit(wide_job.num_steps,
                                               lambda: wide_job)
            futures["behind"] = scheduler.submit(
                pools["short"][1].target_length,
                lambda: prepare(pools["short"][1]))
            for name, future in futures.items():
                future.add_done_callback(
                    lambda _, name=name: order.append(name))
            gate.set()
            results = {name: future.result(timeout=300.0)
                       for name, future in futures.items()}
            assert scheduler.pending == 0
            stats = scheduler.stats()
        finally:
            scheduler.close()
        assert stats["admitted"] == 3 and stats["preemptions"] == 2
        assert max(occupancy) == 2  # never drained to make room
        assert order == ["wide", "behind", "first"]
        for sample, name in ((pools["long"][0], "first"),
                             (pools["short"][1], "behind")):
            seg_solo, rate_solo = solo(sample)
            assert np.array_equal(results[name].segments, seg_solo)
            assert np.array_equal(results[name].rates, rate_solo)
        seg_wide, rate_wide = wide_model.recover(make_batch([wide_sample]))
        assert np.array_equal(results["wide"].segments, seg_wide[0])
        assert np.array_equal(results["wide"].rates, rate_wide[0])

    def test_resolved_jobs_are_released(self, model, pools):
        """Neither engine nor scheduler retains a retired job: once its
        future has resolved — normally, with a step error, or through
        ``close(drain=False)`` — and the caller drops its own references,
        the job's constraint tensor is garbage."""
        base = job_for(model, pools["short"][0])
        stepping = threading.Event()

        def submit(scheduler, num_steps, rows):
            nothing = np.zeros((1, rows), dtype=np.int64)
            job = dataclasses.replace(
                base, num_steps=num_steps, constraint=DecodeConstraint(
                    np.ones((1, rows)), nothing, nothing, nothing[0, :0],
                    np.zeros(0), model.network.num_segments))
            return (scheduler.submit(num_steps, lambda: job),
                    weakref.ref(job.constraint))

        scheduler = ContinuousScheduler(max_slots=2)
        done, finished = submit(scheduler, 4, 4)
        assert len(done.result(timeout=60.0).segments) == 4
        error, failed = submit(scheduler, 4, 2)  # step 2 has no row
        assert isinstance(error.exception(timeout=60.0), IndexError)
        scheduler.close()

        scheduler = ContinuousScheduler(max_slots=2)
        on_each_step(scheduler, lambda admitted: stepping.set())
        dropped, abandoned = submit(scheduler, 50_000, 50_000)
        assert stepping.wait(timeout=60.0)
        scheduler.close(drain=False)
        assert isinstance(dropped.exception(timeout=60.0), RuntimeError)

        del error  # a step error's traceback reaches the frame that ran it
        gc.collect()
        assert finished() is None and failed() is None
        assert abandoned() is None

    def test_prepare_error_fails_only_that_future(self, model, pools):
        def prepare(sample):
            if sample is pools["short"][1]:
                raise ValueError("boom")
            return job_for(model, sample)

        scheduler = ContinuousScheduler(max_slots=4)
        try:
            good = scheduler.submit(pools["short"][0].target_length,
                                    lambda: prepare(pools["short"][0]))
            bad = scheduler.submit(pools["short"][1].target_length,
                                   lambda: prepare(pools["short"][1]))
            assert good.result(timeout=120.0) is not None
            with pytest.raises(ValueError):
                bad.result(timeout=120.0)
        finally:
            scheduler.close()


# ---------------------------------------------------------------------------
# Service-level equivalence: mixed-length traffic through RecoveryService
# ---------------------------------------------------------------------------
def _request(sample, request_id):
    return RecoveryRequest(xy=sample.raw_low.xy, times=sample.raw_low.times,
                           hour=sample.hour, holiday=sample.holiday,
                           request_id=request_id)


class TestServiceEquivalence:
    def test_mixed_length_responses_bit_identical_to_solo(self, model, pools,
                                                          city):
        """End to end through ``RecoveryService`` under the continuous
        scheduler: a mixed-length burst, every response bit-identical to
        the solo one-shot recover of its own request."""
        samples = pick_mix(pools, "short_long", 6)
        service = RecoveryService.from_model(
            model, ServeConfig(interval=12.0, beta=15.0, max_gps_error=100.0))
        try:
            requests = [_request(s, f"r{i}") for i, s in enumerate(samples)]
            responses = service.recover_many(requests, timeout=300.0)
            stats = service.stats()
        finally:
            service.close()
        assert stats["engine"]["admitted"] == len(samples)
        for sample, response in zip(samples, responses):
            seg, rate = model.recover(make_batch([sample]))
            assert np.array_equal(response.trajectory.segments, seg[0])
            assert np.array_equal(response.trajectory.ratios, rate[0])


# ---------------------------------------------------------------------------
# Streaming joins at the service layer
# ---------------------------------------------------------------------------
class TestStreamingJoin:
    def test_streaming_appends_identical_with_and_without_join(self, model,
                                                               pools):
        """A streaming session whose suffix decodes join a busy continuous
        scheduler streams exactly the bits a twin on an idle second
        service streams — while one-shot traffic shares the busy one's
        slot table."""
        serve = RecoveryService.from_model(
            model, ServeConfig(interval=12.0, beta=15.0, max_gps_error=100.0))
        idle = RecoveryService.from_model(
            model, ServeConfig(interval=12.0, beta=15.0, max_gps_error=100.0))
        joined = StreamingRecoveryService(serve, commit_horizon=4)
        local = StreamingRecoveryService(idle, commit_horizon=4)
        sample = pools["long"][3]
        xy, times = sample.raw_low.xy, sample.raw_low.times
        try:
            sid_j = joined.open(hour=sample.hour)
            sid_l = local.open(hour=sample.hour)
            # Keep one-shot traffic in flight while the session appends.
            noise = [serve.submit(_request(s, f"bg{i}"))
                     for i, s in enumerate(pools["short"][:4])]
            for i in range(len(times)):
                update_j = joined.append(sid_j, xy[i], [times[i]])
                update_l = local.append(sid_l, xy[i], [times[i]])
                if update_l.trajectory is None:
                    assert update_j.trajectory is None
                    continue
                assert np.array_equal(update_j.trajectory.segments,
                                      update_l.trajectory.segments)
                assert np.array_equal(update_j.trajectory.ratios,
                                      update_l.trajectory.ratios)
                assert update_j.committed_steps == update_l.committed_steps
                assert update_j.revised_from == update_l.revised_from
            final_j = joined.finalize(sid_j)
            final_l = local.finalize(sid_l)
            for future in noise:
                future.result(timeout=300.0)
        finally:
            joined.close()
            local.close()
            serve.close()
            idle.close()
        assert np.array_equal(final_j.trajectory.segments,
                              final_l.trajectory.segments)
        assert np.array_equal(final_j.trajectory.ratios,
                              final_l.trajectory.ratios)
