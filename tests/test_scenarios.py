"""Tests for ``repro.scenarios`` — degraders, matrix, curriculum, transfer.

The load-bearing assertion is the identity law: a scenario with no
transforms must rebuild the clean ``build_samples`` output bit-for-bit,
because the benchmark's whole gate structure (floors measured relative to
the identity row) rests on it.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.roadnet import CityConfig, generate_city
from repro.scenarios import (
    CurriculumPhase,
    FixedRate,
    NoiseBurst,
    Outage,
    RateCurriculum,
    Scenario,
    VariableRate,
    build_scenario_samples,
    evaluate_matrix,
    fit_rate_curriculum,
    replay_streaming,
    standard_scenarios,
    transfer_model,
    transfer_state,
)
from repro.serve import ServeConfig
from repro.train import PiecewiseConstant, TrainConfig
from repro.trajectory import (
    DatasetConfig,
    SimulationConfig,
    TrajectorySimulator,
    build_samples,
    downsample_indices,
    make_batch,
)

TINY = RNTrajRecConfig(hidden_dim=16, num_heads=2, dropout=0.0,
                       receptive_delta=300.0, max_subgraph_nodes=24)


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))


@pytest.fixture(scope="module")
def pairs(city):
    sim = TrajectorySimulator(
        city, SimulationConfig(target_points=25, sample_interval=12, seed=2))
    return sim.simulate(8)


@pytest.fixture(scope="module")
def config():
    return DatasetConfig(keep_every=8, seed=201)


def _sample_equal(a, b) -> bool:
    if not (np.array_equal(a.raw_low.xy, b.raw_low.xy)
            and np.array_equal(a.raw_low.times, b.raw_low.times)
            and np.array_equal(a.observed_steps, b.observed_steps)
            and a.hour == b.hour and a.holiday == b.holiday
            and len(a.constraints) == len(b.constraints)):
        return False
    for ca, cb in zip(a.constraints, b.constraints):
        if (ca is None) != (cb is None):
            return False
        if ca is not None and not all(
                np.array_equal(np.asarray(x), np.asarray(y))
                for x, y in zip(ca, cb)):
            return False
    return True


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------
class TestTransforms:
    def test_identity_scenario_is_bit_identical_to_build_samples(
            self, pairs, city, config):
        clean = build_samples(pairs, city, config)
        ident = build_scenario_samples(pairs, city,
                                       Scenario(name="identity"), config)
        assert len(clean) == len(ident)
        assert all(_sample_equal(a, b) for a, b in zip(clean, ident))

    def test_scenarios_are_deterministic(self, pairs, city, config):
        for scenario in standard_scenarios(config.keep_every):
            once = build_scenario_samples(pairs, city, scenario, config)
            twice = build_scenario_samples(pairs, city, scenario, config)
            assert all(_sample_equal(a, b) for a, b in zip(once, twice))

    def test_fixed_rate_matches_downsample_indices(self, pairs, city, config):
        scenario = Scenario(name="x2", transforms=(FixedRate(16),), seed=1)
        samples = build_scenario_samples(pairs, city, scenario, config)
        for (raw, _), sample in zip(pairs, samples):
            assert np.array_equal(sample.observed_steps,
                                  downsample_indices(len(raw), 16))

    def test_variable_rate_keeps_endpoints_and_stride_bounds(
            self, pairs, city, config):
        scenario = Scenario(name="vr", transforms=(VariableRate((4, 8)),),
                            seed=1)
        samples = build_scenario_samples(pairs, city, scenario, config)
        for (raw, _), sample in zip(pairs, samples):
            steps = sample.observed_steps
            assert steps[0] == 0 and steps[-1] == len(raw) - 1
            assert np.all(np.diff(steps) >= 1)
            assert np.all(np.diff(steps) <= 8)

    def test_outage_never_drops_endpoints(self, pairs, city, config):
        scenario = Scenario(name="out",
                            transforms=(Outage(gaps=3, min_span=6,
                                               max_span=12),),
                            seed=1)
        samples = build_scenario_samples(pairs, city, scenario, config)
        for (raw, _), sample in zip(pairs, samples):
            steps = sample.observed_steps
            assert steps[0] == 0 and steps[-1] == len(raw) - 1
            assert len(steps) >= 2

    def test_outage_drops_interior_fixes(self, pairs, city, config):
        clean = build_samples(pairs, city, config)
        scenario = Scenario(name="out",
                            transforms=(Outage(gaps=2, min_span=6,
                                               max_span=12),),
                            seed=1)
        degraded = build_scenario_samples(pairs, city, scenario, config)
        assert sum(s.input_length for s in degraded) < \
            sum(s.input_length for s in clean)

    def test_noise_burst_perturbs_only_a_window(self, pairs, city, config):
        clean = build_samples(pairs, city, config)
        scenario = Scenario(name="nb",
                            transforms=(NoiseBurst(std=50.0, span=8),),
                            seed=1)
        noisy = build_scenario_samples(pairs, city, scenario, config)
        for a, b in zip(clean, noisy):
            # Same observation pattern, some (not necessarily all)
            # coordinates moved; times untouched.
            assert np.array_equal(a.observed_steps, b.observed_steps)
            assert np.array_equal(a.raw_low.times, b.raw_low.times)
        assert any(not np.array_equal(a.raw_low.xy, b.raw_low.xy)
                   for a, b in zip(clean, noisy))

    def test_transforms_compose_left_to_right(self, pairs, city, config):
        compound = Scenario(name="both",
                            transforms=(Outage(gaps=1, min_span=4, max_span=8),
                                        NoiseBurst(std=40.0, span=6)),
                            seed=5)
        samples = build_scenario_samples(pairs, city, compound, config)
        assert all(s.input_length >= 2 for s in samples)

    def test_transform_validation(self):
        with pytest.raises(ValueError):
            VariableRate(choices=())
        with pytest.raises(ValueError):
            VariableRate(choices=(0,))
        with pytest.raises(ValueError):
            Outage(gaps=0)
        with pytest.raises(ValueError):
            Outage(min_span=5, max_span=4)
        with pytest.raises(ValueError):
            NoiseBurst(std=0.0)
        with pytest.raises(ValueError):
            NoiseBurst(std=10.0, span=0)

    def test_misaligned_pairs_rejected(self, pairs, city, config):
        raw, matched = pairs[0]
        bad = (raw.slice(np.arange(len(raw) - 1)), matched)
        with pytest.raises(ValueError, match="align"):
            build_scenario_samples([bad], city, Scenario(name="i"), config)

    def test_standard_scenarios_shape(self, config):
        scenarios = standard_scenarios(config.keep_every)
        assert scenarios[0].name == "identity"
        assert scenarios[0].transforms == ()
        assert len({s.name for s in scenarios}) == len(scenarios)
        assert all(0.0 <= s.accuracy_floor <= 1.0 for s in scenarios)


# ---------------------------------------------------------------------------
# PiecewiseConstant + curriculum
# ---------------------------------------------------------------------------
class TestPiecewiseConstant:
    def test_step_function_semantics(self):
        schedule = PiecewiseConstant([2, 5], ["a", "b", "c"])
        assert [schedule(e) for e in range(7)] == \
            ["a", "a", "b", "b", "b", "c", "c"]
        assert schedule.value_at(100) == "c"

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstant([2], ["only-one"])
        with pytest.raises(ValueError):
            PiecewiseConstant([5, 2], ["a", "b", "c"])
        with pytest.raises(ValueError):
            PiecewiseConstant([2, 2], ["a", "b", "c"])
        with pytest.raises(ValueError):
            PiecewiseConstant([0], ["a", "b"])
        with pytest.raises(ValueError):
            PiecewiseConstant([2], ["a", "b"]).value_at(-1)


class TestCurriculum:
    def test_standard_curriculum_structure(self):
        curriculum = RateCurriculum.standard(keep_every=8, total_epochs=7)
        assert curriculum.total_epochs == 7
        assert [p.rates for p in curriculum.phases] == \
            [(8,), (8, 16), (4, 8, 16)]
        # The remainder epoch lands on the hardest phase.
        assert [p.epochs for p in curriculum.phases] == [2, 2, 3]
        assert curriculum.boundaries() == [2, 4, 7]
        schedule = curriculum.schedule()
        assert schedule.value_at(0) is curriculum.phases[0]
        assert schedule.value_at(3) is curriculum.phases[1]
        assert schedule.value_at(6) is curriculum.phases[2]

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            CurriculumPhase(epochs=0, rates=(4,))
        with pytest.raises(ValueError):
            CurriculumPhase(epochs=1, rates=())
        with pytest.raises(ValueError):
            RateCurriculum(phases=())
        with pytest.raises(ValueError):
            RateCurriculum.standard(total_epochs=2)  # < 1 epoch per phase

    def test_fit_rate_curriculum_trains_through_phases(self, pairs, city,
                                                       config):
        nn.init.seed_everything(0)
        model = RNTrajRec(city, TINY)
        curriculum = RateCurriculum.standard(keep_every=8, total_epochs=3)
        result = fit_rate_curriculum(
            model, pairs, city, curriculum, dataset_config=config,
            train_config=TrainConfig(epochs=3, batch_size=4, validate=False))
        assert len(result.history) == 3
        assert [s.epoch for s in result.history] == [0, 1, 2]

    def test_epoch_mismatch_rejected(self, pairs, city, config):
        nn.init.seed_everything(0)
        model = RNTrajRec(city, TINY)
        curriculum = RateCurriculum.standard(keep_every=8, total_epochs=3)
        with pytest.raises(ValueError, match="total_epochs"):
            fit_rate_curriculum(model, pairs, city, curriculum,
                                train_config=TrainConfig(epochs=5))


# ---------------------------------------------------------------------------
# Cross-city transfer
# ---------------------------------------------------------------------------
class TestTransfer:
    def test_same_city_transfer_is_complete_and_exact(self, pairs, city,
                                                      config):
        nn.init.seed_everything(0)
        source = RNTrajRec(city, TINY).eval()
        nn.init.seed_everything(1)
        clone, report = transfer_model(source, city)
        clone.eval()
        assert report.skipped == []
        assert report.copied_fraction == 1.0
        batch = make_batch(build_samples(pairs[:2], city, config))
        a, _ = source.recover(batch)
        b, _ = clone.recover(batch)
        assert np.array_equal(a, b)

    def test_cross_city_transfer_skips_city_sized_tensors(self, city):
        other = generate_city(CityConfig(width=750, height=1000, block=250,
                                         seed=21))
        assert other.num_segments != city.num_segments
        nn.init.seed_everything(0)
        source = RNTrajRec(city, TINY)
        nn.init.seed_everything(1)
        target, report = transfer_model(source, other)
        assert 0.5 < report.copied_fraction < 1.0
        assert report.skipped  # the |V|-wide head cannot move
        # Skipped tensors kept the fresh model's own (seeded) init: a
        # fresh model built under the same seed matches them exactly.
        nn.init.seed_everything(1)
        control = RNTrajRec(other, TINY)
        control_state = control.state_dict()
        target_state = target.state_dict()
        for name in report.skipped:
            assert np.array_equal(target_state[name], control_state[name])
        for name in report.copied:
            assert np.array_equal(target_state[name],
                                  source.state_dict()[name])

    def test_transfer_state_reports_every_tensor_once(self, city):
        nn.init.seed_everything(0)
        a = RNTrajRec(city, TINY)
        b = RNTrajRec(city, TINY)
        report = transfer_state(a, b)
        assert len(report.copied) + len(report.skipped) == \
            len(b.state_dict())


# ---------------------------------------------------------------------------
# The evaluation matrix
# ---------------------------------------------------------------------------
class TestMatrix:
    def test_matrix_cells_and_streaming_exactness(self, pairs, city, config):
        nn.init.seed_everything(0)
        model = RNTrajRec(city, TINY).eval()
        scenarios = [Scenario(name="identity", accuracy_floor=0.0),
                     Scenario(name="outage",
                              transforms=(Outage(gaps=1, min_span=4,
                                                 max_span=8),),
                              seed=3)]
        cells = evaluate_matrix(model, pairs[:4], city, scenarios,
                                config=config, stream_limit=2)
        assert [c.scenario for c in cells] == ["identity", "outage"]
        for cell in cells:
            for key in ("Recall", "Precision", "F1 Score", "Accuracy",
                        "MAE", "RMSE"):
                assert key in cell.metrics
            streaming = cell.streaming
            assert streaming["sessions"] == 2
            # finalize == one-shot for every replayed degraded session
            assert streaming["exact_finalizes"] == streaming["sessions"]
            assert 0.0 <= streaming["revision_rate"] <= 1.0
        d = cells[1].as_dict()
        assert d["scenario"] == "outage" and "streaming" in d

    def test_replay_streaming_counts_appends(self, pairs, city, config):
        nn.init.seed_everything(0)
        model = RNTrajRec(city, TINY).eval()
        samples = build_samples(pairs[:2], city, config)
        serve_config = ServeConfig(interval=12.0, beta=config.beta,
                                   max_gps_error=config.max_gps_error)
        replay = replay_streaming(model, samples, serve_config, limit=2)
        assert replay.sessions == 2
        assert replay.appends == sum(s.input_length for s in samples[:2])
        assert replay.exact_finalizes == 2
