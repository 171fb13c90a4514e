"""Cross-cutting property-based tests on core invariants (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import reference
from repro.core.subgraph_gen import GENERATION_BATCHES
from repro.geo.distance import gaussian_weight, point_along_polyline, project_point_to_polyline
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.roadnet import CityConfig, ShortestPathEngine, generate_city
from repro.trajectory import MatchedTrajectory, RawTrajectory
from repro.trajectory.resample import (
    downsample_indices,
    downsample_matched,
    downsample_raw,
)


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))


@pytest.fixture(scope="module")
def engine(city):
    return ShortestPathEngine(city)


class TestMaskedSoftmaxProperties:
    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=12),
           st.integers(0, 11))
    @settings(max_examples=40, deadline=None)
    def test_hard_mask_zeroes_probability(self, logits, masked_idx):
        logits = np.asarray(logits)
        masked_idx = masked_idx % len(logits)
        mask = np.ones(len(logits))
        mask[masked_idx] = 0.0
        if mask.sum() == 0:
            return
        log_probs = F.masked_log_softmax(Tensor(logits[None, :]), mask[None, :]).data[0]
        probs = np.exp(log_probs)
        assert probs[masked_idx] < 1e-6
        assert np.isclose(probs.sum(), 1.0, atol=1e-6)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_uniform_mask_equals_plain_softmax(self, logits):
        logits = np.asarray(logits)
        plain = F.log_softmax(Tensor(logits[None, :])).data
        masked = F.masked_log_softmax(Tensor(logits[None, :]), np.ones((1, len(logits)))).data
        assert np.allclose(plain, masked, atol=1e-9)


class TestRoadDistanceProperties:
    @given(st.integers(0, 10_000), st.floats(0.0, 0.999), st.floats(0.0, 0.999))
    @settings(max_examples=30, deadline=None)
    def test_position_distance_nonnegative(self, seed, ra, rb):
        rng = np.random.default_rng(seed)
        # Draw segments lazily per example from a shared module city.
        city = generate_city(CityConfig(width=750, height=750, block=250, seed=9))
        engine = ShortestPathEngine(city)
        a = int(rng.integers(0, city.num_segments))
        b = int(rng.integers(0, city.num_segments))
        d = engine.position_distance(a, ra, b, rb)
        assert d >= -1e-9 or not np.isfinite(d)

    def test_identity_distance_zero(self, city, engine):
        for sid in range(0, city.num_segments, 29):
            assert engine.position_distance(sid, 0.3, sid, 0.3) == pytest.approx(0.0)

    def test_triangle_like_monotonicity(self, city, engine):
        """Moving the target forward along one segment increases distance."""
        sid = 0
        nxt = city.out_neighbors[sid][0]
        d_near = engine.position_distance(sid, 0.0, nxt, 0.1)
        d_far = engine.position_distance(sid, 0.0, nxt, 0.9)
        assert d_far > d_near


class TestGeometryProperties:
    @given(st.floats(0, 1), st.floats(10, 500))
    @settings(max_examples=40, deadline=None)
    def test_weight_kernel_bounds(self, ratio, scale):
        distance = ratio * 1000.0
        w = gaussian_weight(distance, scale)
        assert 0.0 <= w <= 1.0

    @given(st.lists(st.tuples(st.floats(-500, 500), st.floats(-500, 500)),
                    min_size=2, max_size=6, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_projection_distance_to_own_vertices_zero(self, vertices):
        poly = np.asarray(vertices)
        # Degenerate polylines (repeated points) are rejected elsewhere.
        if np.linalg.norm(np.diff(poly, axis=0), axis=1).min() < 1e-6:
            return
        for vertex in poly:
            dist, _, _ = project_point_to_polyline(vertex, poly)
            assert dist < 1e-6

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_point_along_monotone_in_ratio(self, r1, r2):
        poly = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0]])
        lo, hi = sorted([r1, r2])
        p_lo = point_along_polyline(poly, lo)
        p_hi = point_along_polyline(poly, hi)
        # Arc-length position is monotone: project back and compare.
        _, ratio_lo, _ = project_point_to_polyline(p_lo, poly)
        _, ratio_hi, _ = project_point_to_polyline(p_hi, poly)
        assert ratio_hi >= ratio_lo - 1e-9


class TestResampleProperties:
    @given(st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    def test_keep_every_one_is_identity(self, length):
        idx = downsample_indices(length, 1)
        assert np.array_equal(idx, np.arange(length))

    @given(st.integers(1, 60), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_indices_strictly_increasing_with_endpoints(self, keep_every, length):
        idx = downsample_indices(length, keep_every)
        assert idx[0] == 0 and idx[-1] == length - 1
        assert np.all(np.diff(idx) > 0)
        assert np.all(np.diff(idx) <= keep_every)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_composition_equals_product_on_aligned_lengths(self, a, b, k):
        """Downsampling by a then b equals one stride of a*b whenever the
        final point lands on the coarse grid (length ≡ 1 mod a*b) — the
        forced always-keep-last endpoint is what breaks it elsewhere."""
        length = a * b * k + 1
        first = downsample_indices(length, a)
        composed = first[downsample_indices(len(first), b)]
        assert np.array_equal(composed, downsample_indices(length, a * b))

    @given(st.integers(2, 120), st.integers(1, 16), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_raw_and_matched_downsample_consistently(self, length, keep_every, seed):
        """Aligned raw/matched pairs stay aligned: both slices take the
        same indices, so times match element-for-element."""
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.5, 5.0, size=length)) + 10.0
        raw = RawTrajectory(rng.uniform(0, 1000, size=(length, 2)), times)
        matched = MatchedTrajectory(
            rng.integers(0, 50, size=length).astype(np.int64),
            rng.uniform(0, 1, size=length), times)
        low_raw = downsample_raw(raw, keep_every)
        low_matched = downsample_matched(matched, keep_every)
        idx = downsample_indices(length, keep_every)
        assert len(low_raw) == len(low_matched) == len(idx)
        assert np.array_equal(low_raw.times, low_matched.times)
        assert np.array_equal(low_raw.xy, raw.xy[idx])
        assert np.array_equal(low_matched.segments, matched.segments[idx])
        assert np.array_equal(low_matched.ratios, matched.ratios[idx])


class TestConstraintMaskProperties:
    @given(st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_masks_cover_noisy_fix(self, seed):
        """The constraint search radius exceeds 5σ of GPS noise, so the
        mask is essentially never empty near a fix."""
        from repro.trajectory import (DatasetConfig, SimulationConfig,
                                      TrajectorySimulator, build_samples)

        city = generate_city(CityConfig(width=750, height=750, block=250, seed=9))
        sim = TrajectorySimulator(city, SimulationConfig(target_points=9, seed=seed,
                                                         gps_noise_std=12.0))
        pair = sim.simulate_one()
        if pair is None:
            return
        samples = build_samples([pair], city, DatasetConfig(keep_every=4))
        for sample in samples:
            for step in sample.observed_steps:
                entry = sample.constraints[int(step)]
                assert entry is not None
                ids, weights = entry
                assert len(ids) >= 1
                assert np.all(weights > 0)


class TestSubGraphMemoPurity:
    """The sub-graph memo is keyed by the 1 m-quantized point and built
    from that same point, so a point's sub-graph never depends on which
    sub-metre twin of its bucket the generator happened to see first."""

    _offset = st.floats(-0.49, 0.49)

    @given(st.integers(0, 1000), st.integers(0, 1000),
           _offset, _offset, _offset, _offset)
    @settings(max_examples=40, deadline=None)
    def test_bucket_twins_get_history_independent_subgraphs(
            self, city, x, y, ax, ay, bx, by):
        from repro.core import RNTrajRecConfig
        from repro.core.subgraph_gen import SubGraphGenerator

        twin_a, twin_b = (x + ax, y + ay), (x + bx, y + by)
        assume(twin_a != twin_b)
        config = RNTrajRecConfig(receptive_delta=300.0, max_subgraph_nodes=24)
        fields = ("node_segments", "node_weights", "graph_ids", "edge_index")

        def answers(first, second):
            """Each twin's batch and single-point sub-graph, ``first`` on a
            cold memo and ``second`` on the memo ``first`` warmed."""
            generator = SubGraphGenerator(city, config)
            out = {}
            for point in (first, second):
                batch = generator.batch(np.array([[point]]))
                single = generator.point_subgraph(*point)
                out[point] = ([getattr(batch, f) for f in fields]
                              + [single.segments, single.weights, single.edges])
            return out

        a_then_b, b_then_a = answers(twin_a, twin_b), answers(twin_b, twin_a)
        for point in (twin_a, twin_b):
            for cold_or_warm, warm_or_cold in zip(a_then_b[point], b_then_a[point]):
                assert np.array_equal(cold_or_warm, warm_or_cold)

    _cells = st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
                      min_size=1, max_size=6)
    _gap = st.integers(0, 2 * GENERATION_BATCHES + 1)  # up to two flips

    @given(_cells, _cells, _cells, _gap, _gap)
    @settings(max_examples=30, deadline=None)
    def test_batch_after_generation_flips_equals_a_fresh_generator(
            self, city, first, second, new, gap_a, gap_b):
        """A batch whose points sit in the current generation, the previous
        one, or neither (each memo generation lives ``GENERATION_BATCHES``
        batches) is byte-equal to the same batch on a cold generator."""
        from repro.core import RNTrajRecConfig
        from repro.core.subgraph_gen import SubGraphGenerator

        config = RNTrajRecConfig(receptive_delta=300.0, max_subgraph_nodes=24)
        fields = ("node_segments", "node_weights", "graph_ids", "edge_index")
        filler = np.array([[[-300.0, -300.0]]])
        generator = SubGraphGenerator(city, config)
        for cells, gap in ((first, gap_a), (second, gap_b)):
            generator.batch(np.array([cells], dtype=np.float64))
            for _ in range(gap):
                generator.batch(filler)
        query = np.array([first[:2] + second[-2:] + new], dtype=np.float64) + 0.3
        served = generator.batch(query)
        cold = SubGraphGenerator(city, config).batch(query)
        for name in fields:
            assert np.array_equal(getattr(served, name), getattr(cold, name))
        for point in query[0]:
            single = generator.point_subgraph(*point)
            fresh = SubGraphGenerator(city, config).point_subgraph(*point)
            for name in ("segments", "weights", "edges"):
                assert np.array_equal(getattr(single, name), getattr(fresh, name))


def random_greedy_weights(rng, d, num_segments, head_scale=1.0):
    """A random parameter bundle for the greedy kernel."""
    from repro.core.decoder import GreedyWeights, screening_head

    normal = rng.normal
    head = head_scale * normal(size=(d, num_segments))
    head32, head_bound = screening_head(head)
    return GreedyWeights(
        w_h=normal(size=(d, d)), w_g=normal(size=(d, d)), v=normal(size=d),
        w_z=normal(size=(3 * d + 1, d)), b_z=normal(size=d),
        w_r=normal(size=(3 * d + 1, d)), b_r=normal(size=d),
        w_c=normal(size=(3 * d + 1, d)), b_c=normal(size=d),
        head=head, head32=head32, head_bound=head_bound,
        rate_w=normal(size=(2 * d, 1)), rate_b=normal(size=1),
        embed_table=normal(size=(num_segments, d)), start=normal(size=d),
        num_segments=num_segments, hidden_dim=d,
    )


class TestSlotTableProperties:
    """Random admit/step/retire interleavings over the continuous-batching
    slot table: no slot leaks, no state aliasing between sequences, and
    free-list reuse never perturbs a sequence's result."""

    D, V, L = 4, 6, 5  # hidden dim, vocabulary, encoder length

    def _weights(self, rng):
        return random_greedy_weights(rng, self.D, self.V)

    def _job(self, rng, weights, num_steps):
        from repro.core.decoder import GreedyCarry
        from repro.serve.engine import DecodeJob

        arrays = dict(
            state=rng.normal(size=(1, self.D)),
            prev_embed=rng.normal(size=(1, self.D)),
            prev_rate=rng.uniform(0, 1, size=(1, 1)),
            enc=rng.normal(size=(1, self.L, self.D)),
            constraint=rng.uniform(0.1, 1.0, size=(1, num_steps, self.V)),
        )
        for array in arrays.values():
            # The engine and the solo reference share these by reference;
            # a write anywhere on the step path must raise, not alias.
            array.flags.writeable = False
        return DecodeJob(
            enc=arrays["enc"], num_steps=num_steps,
            carry=GreedyCarry(arrays["state"], arrays["prev_embed"],
                              arrays["prev_rate"], prev_segments=None),
            constraint=reference.constraint_from_dense(arrays["constraint"]),
            weights=weights,
        )

    def _solo(self, job):
        """The reference: batch-of-1 stepping outside any slot table."""
        from repro.core.decoder import greedy_step

        keys = job.weights.project_keys(job.enc)
        carry = job.carry
        segments = np.zeros(job.num_steps, dtype=np.int64)
        rates = np.zeros(job.num_steps)
        for j in range(job.num_steps):
            predicted, step_rates, carry = greedy_step(
                job.weights, job.enc, keys, carry, job.constraint, j, None)
            segments[j] = predicted[0]
            rates[j] = step_rates[0]
        return segments, rates

    @given(st.integers(0, 10_000),
           st.integers(1, 4),
           st.lists(st.tuples(st.booleans(), st.integers(1, 6)),
                    min_size=1, max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_random_interleavings_never_leak_or_alias(self, seed, capacity,
                                                      actions):
        from repro.serve.engine import ContinuousEngine

        rng = np.random.default_rng(seed)
        weights = self._weights(rng)
        engine = ContinuousEngine(capacity=capacity)
        slot_map, results = {}, {}
        jobs = []

        def check_invariants():
            # No leaks: the gauges and counters account for every slot, and
            # exactly the decodes this test is waiting on are in flight.
            assert engine.inflight + engine.free_slots == capacity
            assert engine.inflight == len(slot_map)
            assert engine.admitted - engine.retired == len(slot_map)

        for admit, steps in actions:
            if admit and engine.free_slots > 0:
                job = self._job(rng, weights, steps)
                slot = engine.admit(job)
                # No aliasing: an occupied slot is never handed out again.
                assert 0 <= slot < capacity and slot not in slot_map
                jobs.append(job)
                slot_map[slot] = len(jobs) - 1
            else:
                for retirement in engine.step():
                    assert retirement.error is None
                    index = slot_map.pop(retirement.slot)
                    results[index] = retirement.result
            check_invariants()

        while slot_map:  # drain what's still in flight
            for retirement in engine.step():
                assert retirement.error is None
                results[slot_map.pop(retirement.slot)] = retirement.result
            check_invariants()

        # Free-list reuse preserved every sequence's solo result bitwise.
        assert len(results) == len(jobs)
        assert engine.free_slots == capacity
        for index, job in enumerate(jobs):
            seg_solo, rate_solo = self._solo(job)
            assert np.array_equal(results[index].segments, seg_solo)
            assert np.array_equal(results[index].rates, rate_solo)

    @given(st.integers(0, 10_000),
           st.sampled_from([2, 8]),
           st.lists(st.tuples(st.integers(1, 12), st.integers(0, 30)),
                    min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_scheduler_serves_earliest_solo_finish_first(self, seed, capacity,
                                                         entries):
        """Random (length, arrival-clock) sequences through the scheduler:
        every result is bit-identical to solo, the work is conserved, and
        — while a slot is always free — entries outstanding together
        complete in key order.  Arrivals are injected before each engine
        step at exact values of the step clock, never by sleeping."""
        import threading
        import time

        from repro.serve import ContinuousScheduler

        rng = np.random.default_rng(seed)
        weights = self._weights(rng)
        entries = sorted(entries, key=lambda e: e[1])
        arrivals, work = [], 0
        for length, clock in entries:
            # Clamp into the busy period of the earlier entries, so the
            # hook is still firing when this one is due.
            arrivals.append(min(clock, max(work - 1, 0)))
            work += length
        jobs = [self._job(rng, weights, length) for length, _ in entries]
        keys = [(arrivals[i] + jobs[i].num_steps, i) for i in range(len(jobs))]
        gate = threading.Event()
        futures, done = {}, {}
        waiting = list(range(len(jobs)))

        def submit_due():
            while waiting and arrivals[waiting[0]] <= scheduler.engine.slot_steps:
                i = waiting.pop(0)
                futures[i] = scheduler.submit(jobs[i].num_steps,
                                              lambda i=i: prepare(i))
                futures[i].add_done_callback(lambda _, i=i: done.setdefault(
                    i, scheduler.engine.slot_steps))

        def prepare(i):
            gate.wait(timeout=60.0)
            return jobs[i]

        scheduler = ContinuousScheduler(max_slots=capacity)
        step = scheduler.engine.step

        def stepped(slots=None):
            submit_due()
            return step(slots)

        scheduler.engine.step = stepped
        try:
            submit_due()  # everything arriving at clock 0 queues first
            gate.set()
            deadline = time.monotonic() + 60.0
            while len(done) < len(jobs) and time.monotonic() < deadline:
                scheduler.flush()
            stats = scheduler.stats()
        finally:
            scheduler.close()

        assert len(done) == len(jobs)
        assert stats["slot_steps"] == work
        for i, job in enumerate(jobs):
            seg_solo, rate_solo = self._solo(job)
            assert np.array_equal(futures[i].result().segments, seg_solo)
            assert np.array_equal(futures[i].result().rates, rate_solo)
        if capacity >= len(jobs):
            for a in range(len(jobs)):
                for b in range(len(jobs)):
                    # a was queued before b's final round was chosen
                    if keys[a] < keys[b] and arrivals[a] <= done[b] - 2:
                        assert done[a] < done[b], (keys, arrivals, done)


def counted_full_rows(step, counter="decode.full_row"):
    """(what ``step()`` returns, how often ``counter`` was bumped)."""
    from repro import profile

    profile.reset()
    profile.enable()
    try:
        return step(), profile.stats()["counters"].get(counter, 0)
    finally:
        profile.disable()
        profile.reset()


class PointSegments:
    """A stub network of point "segments" 10 m apart on the x axis: the
    two queries the interpolation prior makes, through one distance
    formula."""

    def __init__(self, num_segments):
        self.num_segments = num_segments
        self.xs = 10.0 * np.arange(num_segments)

    def segment_distances(self, x, y, segment_ids):
        return np.hypot(x - self.xs[segment_ids], y)

    def segments_within_batch(self, points, radius):
        dists = np.hypot(points[:, :1] - self.xs, points[:, 1:])
        rows, ids = np.nonzero(dists <= radius)
        return (np.searchsorted(rows, np.arange(len(points) + 1)), ids,
                dists[rows, ids])


class TestCertifiedArgmax:
    """``greedy_step``'s float32-screened, certified argmax against
    ``reference_greedy_step`` (the dense float64 row on every step):
    adversarial heads, masks and planted near-ties — same index, same
    rates, same carry bytes on every draw, and the float64 fallback taken
    exactly when the certificate says it must be."""

    FLOOR = 0.005
    SCALE = 30.0  # the deferred prior's kernel scale over 10 m-spaced segments

    @staticmethod
    def _delta(state, head_bound, dense, masked):
        """The documented per-row error bound, restated (not imported):
        float32 unit roundoff 2⁻²⁴ over a (d+2)-rounding dot product, one
        rounded addend of at most ``span`` and one float32 add, plus the
        float64 slack."""
        span = 0.0
        if masked:
            peak = 1.0 if dense is None else max(1.0, dense.max())
            span = np.log(peak) - np.log(1e-12)
        norm = np.linalg.norm(state, axis=-1)
        return (1.01 * 2.0 ** -24 * ((state.shape[-1] + 3) * norm * head_bound
                                     + 2.0 * span) + 2.0 ** -36)

    def _reachability(self, rng, num_segments, neighbors=None):
        """The same 1-hop sets — random unless ``neighbors`` are given — as
        a loop-built reference mask and as a ``ReachabilityMask`` over a
        stub network's CSR closure."""
        from repro.core.decoder import ReachabilityMask

        if neighbors is None:
            neighbors = [rng.choice(num_segments, size=int(rng.integers(0, 4)))
                         .tolist() for _ in range(num_segments)]
        ref = reference.ReferenceReachability(neighbors, hops=1)

        class Stub:
            pass

        stub = Stub()
        stub.num_segments = num_segments
        lengths = [len(reached) for reached in ref._sets]
        closure = (np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
                   np.concatenate(ref._sets).astype(np.int64))
        stub.khop_closure = lambda hops: closure
        return ref, ReachabilityMask(stub, hops=1)

    def _mask(self, rng, b, num_segments, kind):
        """(dense (b, 1, |V|) mask, the same mask as a sparse constraint
        built here from base + support, not through ``from_dense``)."""
        from repro.core.decoder import DecodeConstraint

        base = rng.choice([0.0, self.FLOOR, 1.0], size=(b, 1))
        dense = np.repeat(base[:, :, None], num_segments, axis=2)
        lo, hi = np.zeros((b, 1), np.int64), np.zeros((b, 1), np.int64)
        ids, weights = [], []
        for i in range(b):
            size = int(rng.integers(0, num_segments + 1))
            support = rng.choice(num_segments, size=size, replace=False)
            values = {
                "uniform": rng.uniform(0.0, 1.0, size=size),
                "duplicates": rng.choice([0.0, self.FLOOR, 0.3, 1.0], size=size),
                "zeros": np.zeros(size),
            }[kind]
            dense[i, 0, support] = values
            lo[i, 0] = sum(len(block) for block in ids)
            hi[i, 0] = lo[i, 0] + size
            ids.append(support)
            weights.append(values)
        constraint = DecodeConstraint(
            base, lo, hi, np.concatenate(ids).astype(np.int64),
            np.concatenate(weights), num_segments)
        assert np.array_equal(reference.dense(constraint), dense)
        assert np.array_equal(
            reference.dense(reference.constraint_from_dense(dense)), dense)
        return dense, constraint

    def _deferred(self, rng, b, num_segments, positions=None):
        """(dense (b, 1, |V|) mask, the same mask as a constraint whose
        step holds a deferred interpolation prior over a stub network of
        point segments) — the dense one built from a second, equal
        constraint, so the returned one has built nothing yet."""
        from repro.core.decoder import DecodeConstraint, DeferredPrior

        network = PointSegments(num_segments)
        if positions is None:
            positions = np.stack([rng.uniform(0.0, network.xs[-1], size=b),
                                  rng.uniform(-40.0, 40.0, size=b)], axis=-1)
        positions = np.asarray(positions, dtype=np.float64).reshape(b, 1, 2)

        def constraint():
            empty = np.zeros((b, 1), np.int64)
            prior = DeferredPrior(network, self.SCALE, self.FLOOR, positions,
                                  np.ones((b, 1), dtype=bool))
            return DecodeConstraint(np.full((b, 1), self.FLOOR), empty, empty,
                                    np.zeros(0, np.int64), np.zeros(0),
                                    num_segments, prior)

        return reference.dense(constraint()), constraint()

    @given(seed=st.integers(0, 2 ** 31), d=st.integers(4, 64),
           num_segments=st.one_of(st.integers(2, 64), st.integers(65, 4096)),
           log_scale=st.floats(-3.0, 3.0), b=st.sampled_from([1, 3]),
           reach=st.booleans(),
           mask_kind=st.sampled_from(["none", "uniform", "duplicates", "zeros",
                                      "deferred"]),
           plant=st.sampled_from(["nothing", "tie", 0.1, 1.0, 10.0,
                                  "nan-state", "nan-head"]))
    @settings(max_examples=150, deadline=None)
    def test_same_index_rates_and_carry_as_the_float64_row(
            self, seed, d, num_segments, log_scale, b, reach, mask_kind, plant):
        import dataclasses
        from unittest import mock

        from repro.core import decoder
        from repro.core.decoder import GreedyCarry, greedy_step, screening_head

        rng = np.random.default_rng(seed)
        weights = random_greedy_weights(rng, d, num_segments, 10.0 ** log_scale)
        enc = rng.normal(size=(b, 5, d))
        keys = weights.project_keys(enc)
        carry = GreedyCarry(
            rng.normal(size=(b, d)), rng.normal(size=(b, d)),
            rng.uniform(0, 1, size=(b, 1)),
            rng.integers(num_segments, size=b) if reach else None)
        reach_ref, reach_new = (self._reachability(rng, num_segments)
                                if reach else (None, None))
        dense, constraint = None, None
        if mask_kind == "deferred":
            dense, constraint = self._deferred(rng, b, num_segments)
        elif mask_kind != "none":
            dense, constraint = self._mask(rng, b, num_segments, mask_kind)
        mask_row = dense[:, 0, :] if dense is not None else None

        def logits_row(head):
            """The defining float64 row and the post-GRU state."""
            probe = dataclasses.replace(weights, head=head)
            state = reference.reference_greedy_step(
                probe, enc, keys, carry, mask_row, reach_ref)[2].state
            combined = mask_row
            if reach:
                combined = reach_ref.combine(mask_row, carry.prev_segments,
                                             num_segments)
            row = state @ head
            if combined is not None:
                row = row + np.log(np.maximum(combined, 1e-12))
            return row, state, combined

        head = weights.head.copy()
        if plant == "nan-state":
            carry = dataclasses.replace(carry, state=carry.state.copy())
            carry.state[0, 0] = np.nan
        elif plant == "nan-head":
            head[rng.integers(d), rng.integers(num_segments)] = np.nan
        elif plant != "nothing":
            # Row 0's leader k and a rival j sharing its mask value: copy
            # k's head column into j (an exact tie in real arithmetic),
            # then for a near-tie lift k by gap·δ along the state, which
            # adds exactly that to its logit and moves no other column.
            row, state, combined = logits_row(head)
            k = int(np.argmax(row[0]))
            rivals = np.flatnonzero(
                (np.arange(num_segments) != k)
                & (True if combined is None else combined[0] == combined[0, k]))
            assume(len(rivals) > 0)
            head[:, rng.choice(rivals)] = head[:, k]
            if plant != "tie":
                x = state[0]
                lift = plant * self._delta(x, screening_head(head)[1], dense,
                                           combined is not None)
                head[:, k] += x * (lift / (x @ x))
        weights = dataclasses.replace(
            weights, head=head,
            **dict(zip(("head32", "head_bound"), screening_head(head))))

        expected = reference.reference_greedy_step(
            weights, enc, keys, carry, mask_row, reach_ref)
        # Screen at every width: the step skips rows too narrow to gain.
        with mock.patch.object(decoder, "_SCREEN_WIDTH", 0):
            got, full_rows = counted_full_rows(lambda: greedy_step(
                weights, enc, keys, carry, constraint, 0, reach_new))
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        for field in ("state", "prev_embed", "prev_rate", "prev_segments"):
            assert (getattr(got[2], field).tobytes()
                    == getattr(expected[2], field).tobytes()), field

        # The path taken: measured on the defining row, per batch row.
        row, state, combined = logits_row(head)
        if not np.all(np.isfinite(row)):
            event("nan: must fall back")
            assert full_rows == 1
            return
        ordered = np.sort(row, axis=-1)
        gaps = ordered[:, -1] - ordered[:, -2]
        deltas = self._delta(state, weights.head_bound, dense,
                             combined is not None)
        if np.any(gaps <= 0.5 * deltas):   # exact ties, sub-δ gaps
            event("near-tie: must fall back")
            assert full_rows == 1
        elif np.all(gaps > 4.0 * deltas):  # ŝ-gap ≥ gap − 2δ > 2δ: proven
            event("clear leader: must not fall back")
            assert full_rows == 0

    def test_narrow_rows_run_the_float64_row_uncounted(self):
        """Below ``_SCREEN_WIDTH`` columns the step evaluates its defining
        row directly — ``decode.full_row`` counts failed certificates only.
        Every head column is the same here, so a screen can certify
        nothing: a row one column wider is screened, and counted."""
        import dataclasses

        from repro.core import decoder
        from repro.core.decoder import GreedyCarry, greedy_step, screening_head

        rng = np.random.default_rng(0)
        for num_segments, counted in ((decoder._SCREEN_WIDTH - 1, 0),
                                      (decoder._SCREEN_WIDTH, 1)):
            weights = random_greedy_weights(rng, 8, num_segments)
            head = np.repeat(weights.head[:, :1], num_segments, axis=1)
            weights = dataclasses.replace(
                weights, head=head,
                **dict(zip(("head32", "head_bound"), screening_head(head))))
            enc = rng.normal(size=(1, 5, 8))
            keys = weights.project_keys(enc)
            carry = GreedyCarry(rng.normal(size=(1, 8)), rng.normal(size=(1, 8)),
                                rng.uniform(size=(1, 1)), None)
            expected = reference.reference_greedy_step(
                weights, enc, keys, carry, None, None)
            got, full_rows = counted_full_rows(lambda: greedy_step(
                weights, enc, keys, carry, None, 0, None))
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[2].state.tobytes() == expected[2].state.tobytes()
            assert full_rows == counted

    # Screened log-mask offsets at floor 0.005, escape 0.02: a reachable
    # column at the step's position (prior weight 1) gets −log(floor ·
    # escape) = 9.21, an unreachable one at most −log(floor) = 5.30.
    LEAD, BOUND = -math.log(0.005 * 0.02), -math.log(0.005)

    @pytest.mark.parametrize("case, plants, leader, built", [
        # Reachable segment 10 sits at the step's position: its 9.21 clears
        # every unreachable column's bound and its reachable rivals 11, 12
        # (10 m and 20 m away) by more than 2δ.
        ("leader clears every bound", {}, 10, 0),
        # Unreachable segment 40 is far (weight floor, offset 0): logit
        # 9.21 − 5.30 puts its bound level with the leader, its true value
        # 5.30 below.  The step builds its row and still keeps 10.
        ("bound within 2δ", {40: LEAD - BOUND}, 10, 1),
        # Unreachable segment 9 is 10 m away (weight 0.895, offset 5.19):
        # 0.5 more logit makes it the row's true argmax, which only the
        # built row can certify.
        ("bounded column wins", {9: LEAD - BOUND + 0.5}, 9, 1),
        # No previous segment, no reachable set: the step builds its row.
        ("first step", {}, None, 1),
    ])
    def test_deferred_prior_planted_cases(self, case, plants, leader, built):
        """A deferred step screens its reachable columns exactly and bounds
        the rest; it builds its row (``decode.prior_rows``) exactly when
        that bound cannot certify the leader, and every case matches
        ``reference_greedy_step`` on the dense row."""
        import dataclasses
        from unittest import mock

        from repro.core import decoder
        from repro.core.decoder import GreedyCarry, greedy_step, screening_head

        rng = np.random.default_rng(7)
        d, num_segments = 8, 64
        weights = random_greedy_weights(rng, d, num_segments)
        enc = rng.normal(size=(1, 5, d))
        keys = weights.project_keys(enc)
        first = case == "first step"
        carry = GreedyCarry(rng.normal(size=(1, d)), rng.normal(size=(1, d)),
                            rng.uniform(size=(1, 1)),
                            None if first else np.array([0]))
        neighbors = [[] for _ in range(num_segments)]
        neighbors[0] = [10, 11, 12]
        reach_ref, reach_new = self._reachability(rng, num_segments, neighbors)
        dense, constraint = self._deferred(rng, 1, num_segments, [100.0, 0.0])

        # Plant each logit x·h_j exactly where the case needs it: column j
        # of the head along the post-GRU state x, every other column 0.
        x = reference.reference_greedy_step(
            weights, enc, keys, carry, dense[:, 0], reach_ref)[2].state[0]
        head = np.zeros((d, num_segments))
        for j, logit in plants.items():
            head[:, j] = x * (logit / (x @ x))
        weights = dataclasses.replace(
            weights, head=head,
            **dict(zip(("head32", "head_bound"), screening_head(head))))

        expected = reference.reference_greedy_step(
            weights, enc, keys, carry, dense[:, 0], reach_ref)
        with mock.patch.object(decoder, "_SCREEN_WIDTH", 0):
            got, rows = counted_full_rows(lambda: greedy_step(
                weights, enc, keys, carry, constraint, 0, reach_new),
                counter="decode.prior_rows")
        assert got[0].tobytes() == expected[0].tobytes()
        for field in ("state", "prev_embed", "prev_rate", "prev_segments"):
            assert (getattr(got[2], field).tobytes()
                    == getattr(expected[2], field).tobytes()), field
        if leader is not None:
            assert got[0].tolist() == [leader]
        assert rows == built
