"""Tests for ``repro.scenarios`` — degraders and the rate curriculum.

The load-bearing assertion is the identity law: a scenario with no
transforms must rebuild the clean ``build_samples`` output bit-for-bit,
so the scenario benchmark's identity row is the clean pipeline's
evaluation (the benchmark relies on this test and does not re-check it).
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
    fit_rate_curriculum,
    standard_scenarios,
)
from repro.train import TrainConfig
from repro.trajectory import (
    DatasetConfig,
    SimulationConfig,
    TrajectorySimulator,
    build_samples,
    downsample_indices,
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
# Rate curriculum
# ---------------------------------------------------------------------------
class TestCurriculum:
    def test_standard_curriculum_structure(self):
        curriculum = RateCurriculum.standard(keep_every=8, total_epochs=7)
        assert curriculum.total_epochs == 7
        assert [p.rates for p in curriculum.phases] == \
            [(8,), (8, 16), (4, 8, 16)]
        # The remainder epoch lands on the hardest phase.
        assert [p.epochs for p in curriculum.phases] == [2, 2, 3]
        assert curriculum.boundaries() == [2, 4, 7]

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
