"""Tests for trajectory data structures, simulator, resampling, datasets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from repro.roadnet import CityConfig, ShortestPathEngine, generate_city
from repro.trajectory import (
    DatasetConfig,
    MatchedTrajectory,
    RawTrajectory,
    SimulationConfig,
    TrajectorySimulator,
    build_samples,
    downsample_indices,
    downsample_raw,
    epsilon_grid,
    iterate_batches,
    linear_interpolate,
    make_batch,
    train_val_test_split,
)


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))


@pytest.fixture(scope="module")
def pairs(city):
    sim = TrajectorySimulator(city, SimulationConfig(target_points=17, sample_interval=12, seed=2))
    return sim.simulate(12)


class TestRawTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            RawTrajectory(np.zeros((3, 3)), np.arange(3.0))
        with pytest.raises(ValueError):
            RawTrajectory(np.zeros((3, 2)), np.array([0.0, 2.0, 1.0]))

    def test_duration(self):
        traj = RawTrajectory(np.zeros((3, 2)), np.array([0.0, 10.0, 30.0]))
        assert np.isclose(traj.duration, 30.0)

    def test_slice(self):
        traj = RawTrajectory(np.arange(8.0).reshape(4, 2), np.arange(4.0))
        sub = traj.slice([0, 2])
        assert len(sub) == 2
        assert np.allclose(sub.times, [0.0, 2.0])


class TestMatchedTrajectory:
    def test_ratio_bounds_checked(self):
        with pytest.raises(ValueError):
            MatchedTrajectory(np.array([0]), np.array([1.5]), np.array([0.0]))

    def test_travel_path_dedupes_in_order(self):
        traj = MatchedTrajectory(
            np.array([3, 3, 5, 3, 7]), np.zeros(5), np.arange(5.0)
        )
        assert traj.travel_path().tolist() == [3, 5, 7]

    def test_positions_and_to_raw(self, city):
        traj = MatchedTrajectory(np.array([0, 0]), np.array([0.0, 0.5]), np.array([0.0, 12.0]))
        xy = traj.positions(city)
        assert xy.shape == (2, 2)
        raw = traj.to_raw(city, noise_std=0.0)
        assert np.allclose(raw.xy, xy)

    def test_to_raw_noise_applied(self, city):
        traj = MatchedTrajectory(np.array([0, 1]), np.array([0.2, 0.4]), np.array([0.0, 12.0]))
        rng = np.random.default_rng(0)
        noisy = traj.to_raw(city, noise_std=10.0, rng=rng)
        assert not np.allclose(noisy.xy, traj.positions(city))

    def test_interval(self):
        traj = MatchedTrajectory(np.array([0, 0, 0]), np.zeros(3), np.array([0.0, 12.0, 24.0]))
        assert traj.interval == 12.0


class TestSimulator:
    def test_output_shapes_and_alignment(self, pairs):
        for raw, matched in pairs:
            assert len(raw) == len(matched) == 17
            assert np.allclose(raw.times, matched.times)

    def test_fixed_sample_interval(self, pairs):
        for raw, _ in pairs:
            assert np.allclose(np.diff(raw.times), 12.0)

    def test_ratios_valid(self, pairs):
        for _, matched in pairs:
            assert np.all(matched.ratios >= 0.0)
            assert np.all(matched.ratios < 1.0)

    def test_consecutive_segments_connected(self, city, pairs):
        """The true trajectory must follow road connectivity."""
        for _, matched in pairs:
            for a, b in zip(matched.segments, matched.segments[1:]):
                if a == b:
                    continue
                # b must be reachable from a within a couple of hops
                hop1 = set(city.out_neighbors[a])
                hop2 = {n for s in hop1 for n in city.out_neighbors[s]}
                hop3 = {n for s in hop2 for n in city.out_neighbors[s]}
                assert int(b) in hop1 | hop2 | hop3

    def test_noise_statistics(self, city):
        sim = TrajectorySimulator(
            city, SimulationConfig(target_points=17, gps_noise_std=20.0, seed=4)
        )
        raw, matched = sim.simulate(1)[0]
        errors = np.linalg.norm(raw.xy - matched.positions(city), axis=1)
        assert 5.0 < errors.mean() < 60.0

    def test_deterministic_given_seed(self, city):
        a = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=5)).simulate(2)
        b = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=5)).simulate(2)
        assert np.allclose(a[0][0].xy, b[0][0].xy)
        assert np.array_equal(a[1][1].segments, b[1][1].segments)

    def test_seed_determinism_bit_identical(self, city):
        """Regression: same seed → *bit-identical* fixes, every field.

        The scenario suite (repro.scenarios) derives every degraded
        regime deterministically from simulator pairs; any float-level
        drift here would silently change scenario matrices and
        curriculum training streams."""
        config = SimulationConfig(target_points=17, sample_interval=12,
                                  gps_noise_std=12.0, seed=5)
        a = TrajectorySimulator(city, config).simulate(4)
        b = TrajectorySimulator(city, config).simulate(4)
        assert len(a) == len(b)
        for (raw_a, matched_a), (raw_b, matched_b) in zip(a, b):
            assert np.array_equal(raw_a.xy, raw_b.xy)
            assert np.array_equal(raw_a.times, raw_b.times)
            assert np.array_equal(matched_a.segments, matched_b.segments)
            assert np.array_equal(matched_a.ratios, matched_b.ratios)
            assert np.array_equal(matched_a.times, matched_b.times)

    def test_different_seeds_diverge(self, city):
        a = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=5)).simulate(2)
        b = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=6)).simulate(2)
        assert not all(np.array_equal(ra.xy, rb.xy)
                       for (ra, _), (rb, _) in zip(a, b))

    def test_elevated_preference_runs(self, city):
        sim = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=6))
        assert sim.simulate(2, prefer_elevated=True)

    @given(speed=st.one_of(
        st.floats(allow_nan=False),  # finite floats and ±inf
        st.sampled_from([1.0, 35.0, -0.0, *(float(np.nextafter(bound, toward))
                                            for bound in (1.0, 35.0)
                                            for toward in (0.0, 36.0))])))
    def test_speed_clamp_is_np_clip(self, speed):
        """The plain-float speed clamp returns ``np.clip``'s value, so the
        simulated traces stay bit-identical."""
        from repro.trajectory.simulate import _clamp_speed

        clamped = _clamp_speed(speed)
        assert type(clamped) is float
        assert clamped == float(np.clip(speed, 1.0, 35.0))


class TestResample:
    def test_downsample_indices_keep_first_last(self):
        idx = downsample_indices(25, 8)
        assert idx[0] == 0
        assert idx[-1] == 24
        assert idx.tolist() == [0, 8, 16, 24]

    def test_downsample_indices_non_divisible(self):
        idx = downsample_indices(23, 8)
        assert idx.tolist() == [0, 8, 16, 22]

    def test_downsample_validation(self):
        with pytest.raises(ValueError):
            downsample_indices(10, 0)

    def test_downsample_raw(self):
        traj = RawTrajectory(np.random.default_rng(0).normal(size=(17, 2)), np.arange(17.0))
        low = downsample_raw(traj, 8)
        assert len(low) == 3

    def test_linear_interpolate_endpoints(self):
        low = RawTrajectory(np.array([[0.0, 0.0], [100.0, 0.0]]), np.array([0.0, 10.0]))
        dense = linear_interpolate(low, [0.0, 5.0, 10.0])
        assert np.allclose(dense.xy, [[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]])

    def test_epsilon_grid(self):
        grid = epsilon_grid(0.0, 48.0, 12.0)
        assert np.allclose(grid, [0, 12, 24, 36, 48])
        with pytest.raises(ValueError):
            epsilon_grid(0.0, 10.0, 0.0)

    @given(st.integers(2, 40), st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_downsample_indices_properties(self, length, keep):
        idx = downsample_indices(length, keep)
        assert idx[0] == 0 and idx[-1] == length - 1
        assert np.all(np.diff(idx) > 0)
        assert np.all(np.diff(idx) <= keep)


class TestDataset:
    def test_build_samples_alignment(self, city, pairs):
        samples = build_samples(pairs, city, DatasetConfig(keep_every=8))
        for sample in samples:
            assert sample.input_length == 3
            assert sample.target_length == 17
            # Observed steps index into the target grid.
            assert np.allclose(
                sample.raw_low.times, sample.target.times[sample.observed_steps]
            )

    def test_constraint_masks_only_at_observed(self, city, pairs):
        samples = build_samples(pairs, city, DatasetConfig(keep_every=8))
        sample = samples[0]
        for step, entry in enumerate(sample.constraints):
            if step in sample.observed_steps:
                assert entry is not None
                ids, weights = entry
                assert len(ids) == len(weights)
                assert np.all(weights > 0)
            else:
                assert entry is None

    def test_constraint_matrix_dense(self, city, pairs):
        samples = build_samples(pairs, city, DatasetConfig(keep_every=8))
        mat = reference.reference_constraint_tensor(
            make_batch(samples[:1]), city.num_segments)[0]
        assert mat.shape == (17, city.num_segments)
        unobserved = [j for j in range(17) if j not in samples[0].observed_steps]
        assert np.allclose(mat[unobserved], 1.0)

    def test_ground_truth_usually_in_mask(self, city, pairs):
        """With σ=12 m noise the true segment should usually be inside the
        100 m constraint radius."""
        samples = build_samples(pairs, city, DatasetConfig(keep_every=8))
        hits = total = 0
        masks = reference.reference_constraint_tensor(
            make_batch(samples), city.num_segments)
        for sample, mat in zip(samples, masks):
            for step in sample.observed_steps:
                total += 1
                hits += bool(mat[step, sample.target.segments[step]] > 0)
        assert hits / total > 0.9

    def test_split_ratios(self, city, pairs):
        samples = build_samples(pairs, city, DatasetConfig(keep_every=8))
        train, val, test = train_val_test_split(samples, (0.5, 0.25, 0.25), seed=3)
        assert len(train) + len(val) + len(test) == len(samples)
        with pytest.raises(ValueError):
            train_val_test_split(samples, (0.5, 0.2, 0.2))

    def test_make_batch_stacks(self, city, pairs):
        samples = build_samples(pairs, city, DatasetConfig(keep_every=8))
        batch = make_batch(samples[:4])
        assert batch.size == 4
        assert batch.input_xy.shape == (4, 3, 2)
        assert batch.target_segments.shape == (4, 17)

    def test_make_batch_rejects_mixed_shapes(self, city, pairs):
        samples = build_samples(pairs, city, DatasetConfig(keep_every=8))
        other = build_samples(pairs, city, DatasetConfig(keep_every=4))
        with pytest.raises(ValueError):
            make_batch([samples[0], other[0]])

    def test_iterate_batches_covers_all(self, city, pairs):
        samples = build_samples(pairs, city, DatasetConfig(keep_every=8))
        seen = sum(b.size for b in iterate_batches(samples, 5))
        assert seen == len(samples)

    def test_iterate_batches_buckets_heterogeneous(self, city, pairs):
        a = build_samples(pairs[:6], city, DatasetConfig(keep_every=8))
        b = build_samples(pairs[6:], city, DatasetConfig(keep_every=4))
        batches = list(iterate_batches(a + b, 16))
        assert len(batches) == 2  # one bucket per shape
        for batch in batches:
            assert len({s.input_length for s in batch.samples}) == 1

    def test_drop_last(self, city, pairs):
        samples = build_samples(pairs, city, DatasetConfig(keep_every=8))
        batches = list(iterate_batches(samples, 5, drop_last=True))
        assert all(b.size == 5 for b in batches)
