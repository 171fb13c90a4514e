"""The repro.train subsystem: exact resume, schedules, fit's logging,
progress and checkpoint jobs, the padding-masked quick_accuracy, and the
train→deploy bundle bridge."""

import json
import logging

import numpy as np
import pytest

from repro import nn
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.roadnet import CityConfig, generate_city
from repro.trajectory import (
    DatasetConfig,
    SimulationConfig,
    TrajectorySimulator,
    build_samples,
    pad_sample_target,
)
from repro.train import (
    ConstantLR,
    CosineLR,
    EpochStats,
    StepDecayLR,
    TrainConfig,
    Trainer,
    TrainState,
    build_schedule,
    fit_and_bundle,
    model_version,
    quick_accuracy,
)

CFG = RNTrajRecConfig(hidden_dim=16, num_heads=2, max_subgraph_nodes=16,
                      receptive_delta=250.0, dropout=0.0)
# Dropout exercises the per-layer RNG streams the checkpoint must carry.
CFG_DROPOUT = CFG.variant(dropout=0.1)


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))


@pytest.fixture(scope="module")
def samples(city):
    sim = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=2))
    pairs = sim.simulate(28)
    return build_samples(pairs, city, DatasetConfig(keep_every=8))


def fresh_model(city, config=CFG, seed=5):
    nn.init.seed_everything(seed)
    return RNTrajRec(city, config)


def train_config(**overrides):
    params = dict(epochs=3, batch_size=8, learning_rate=5e-3,
                  teacher_forcing_ratio=0.5, validate=False)
    params.update(overrides)
    return TrainConfig(**params)


class TestResumeDeterminism:
    def test_resume_is_bit_for_bit(self, city, samples, tmp_path):
        """train N == train k, save, restore into fresh objects, train N-k
        — parameters, buffers, optimizer moments, RNG streams and history
        all bitwise equal.  Dropout is on, so the per-layer streams are
        exercised; the cosine schedule depends on the full horizon, so the
        partial run bounds fit() instead of shrinking the config."""
        cfg = dict(epochs=4, schedule="cosine", warmup_epochs=1)

        straight = fresh_model(city, CFG_DROPOUT)
        result_straight = Trainer(straight, train_config(**cfg)).fit(samples)

        partial = fresh_model(city, CFG_DROPOUT)
        trainer_partial = Trainer(partial, train_config(**cfg))
        trainer_partial.fit(samples, until_epoch=2)
        path = str(tmp_path / "state")
        trainer_partial.save_state(path)

        resumed = fresh_model(city, CFG_DROPOUT, seed=77)  # different init:
        trainer_resumed = Trainer(resumed, train_config(**cfg))
        trainer_resumed.load_state(path)  # ...must be fully overwritten
        result_resumed = trainer_resumed.fit(samples)

        state_a, state_b = straight.state_dict(), resumed.state_dict()
        assert set(state_a) == set(state_b)
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), key
        for key, value in result_straight.history[-1].__dict__.items():
            if key != "seconds":
                assert value == getattr(result_resumed.history[-1], key), key
        assert [e.loss for e in result_straight.history] == \
               [e.loss for e in result_resumed.history]

    def test_checkpoint_archive_roundtrip(self, city, samples, tmp_path):
        model = fresh_model(city)
        trainer = Trainer(model, train_config(epochs=2))
        trainer.fit(samples, until_epoch=1)
        path = trainer.save_state(str(tmp_path / "ckpt"))
        assert path.endswith(".npz")

        state = TrainState.load(path)
        assert state.epoch == 1
        assert state.global_step == trainer._global_step
        # optimizer moments + step round-trip exactly
        restored = Trainer(fresh_model(city, seed=11), train_config(epochs=2))
        restored.load_state(path)
        a, b = trainer.optimizer.state_dict(), restored.optimizer.state_dict()
        assert set(a) == set(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key
        # the master RNG stream continues identically
        assert trainer._rng.integers(0, 2**31, 8).tolist() == \
               restored._rng.integers(0, 2**31, 8).tolist()
        # history travels with the archive
        assert [e.epoch for e in restored.history] == [0]

    def test_fit_checkpoint_resumes_from_archive(self, city, samples, tmp_path):
        path = str(tmp_path / "auto")
        model = fresh_model(city)
        Trainer(model, train_config(epochs=1)).fit(samples, checkpoint=path)

        resumed = fresh_model(city, seed=13)
        continued = Trainer(resumed, train_config(epochs=3))
        result = continued.fit(samples, checkpoint=path)
        assert continued.epochs_completed == 3
        assert [e.epoch for e in result.history] == [0, 1, 2]

        straight = fresh_model(city)
        reference = Trainer(straight, train_config(epochs=3)).fit(samples)
        assert [e.loss for e in reference.history] == \
               [e.loss for e in result.history]
        state_a, state_b = straight.state_dict(), resumed.state_dict()
        assert set(state_a) == set(state_b)
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), key

    def test_mismatched_archive_rejected(self, city, samples, tmp_path):
        model = fresh_model(city)
        path = str(tmp_path / "plain")
        nn.save_checkpoint(model, path)  # model-only checkpoint, no meta
        with pytest.raises(ValueError, match="TrainState"):
            Trainer(model, train_config()).load_state(path)


class TestOptimizerState:
    def test_adam_state_roundtrip_continues_identically(self):
        def make(seed):
            rng = np.random.default_rng(seed)
            params = [nn.Parameter(rng.normal(size=(4, 3))),
                      nn.Parameter(rng.normal(size=(5,)))]
            return params

        def step(opt, params, rng):
            for p in params:
                p.grad = rng.normal(size=p.data.shape)
            opt.step()

        params_a = make(0)
        opt_a = nn.Adam(params_a, lr=1e-2, weight_decay=0.01)
        rng = np.random.default_rng(42)
        for _ in range(3):
            step(opt_a, params_a, rng)
        saved = opt_a.state_dict()
        drawn = rng.bit_generator.state

        # continue 2 more steps on the original
        for _ in range(2):
            step(opt_a, params_a, rng)

        # rebuild at the 3-step point (replaying the same 3 steps restores
        # the parameter values), load the snapshot, continue 2 steps
        params_c = make(0)
        opt_c = nn.Adam(params_c, lr=1e-2, weight_decay=0.01)
        rng2 = np.random.default_rng(42)
        for _ in range(3):
            step(opt_c, params_c, rng2)
        opt_c.load_state_dict(saved)
        rng2.bit_generator.state = drawn
        for _ in range(2):
            step(opt_c, params_c, rng2)
        for p_a, p_c in zip(params_a, params_c):
            assert np.array_equal(p_a.data, p_c.data)
        assert opt_c._step == opt_a._step

    def test_sgd_state_roundtrip(self):
        params = [nn.Parameter(np.ones((2, 2)))]
        opt = nn.SGD(params, lr=0.1, momentum=0.9)
        params[0].grad = np.full((2, 2), 0.5)
        opt.step()
        state = opt.state_dict()
        clone_params = [nn.Parameter(np.ones((2, 2)))]
        clone = nn.SGD(clone_params, lr=0.3, momentum=0.0)
        clone.load_state_dict(state)
        assert clone.lr == 0.1 and clone.momentum == 0.9
        assert np.array_equal(clone._velocity[0], opt._velocity[0])

    def test_shape_mismatch_raises(self):
        opt = nn.Adam([nn.Parameter(np.zeros((3,)))])
        state = opt.state_dict()
        state["m.0"] = np.zeros((4,))
        with pytest.raises(ValueError, match="shape mismatch"):
            opt.load_state_dict(state)


class TestSchedules:
    def test_constant_with_warmup(self):
        sched = ConstantLR(1.0, warmup_epochs=3)
        assert [round(sched.lr_at(e), 4) for e in range(5)] == \
               [0.25, 0.5, 0.75, 1.0, 1.0]

    def test_step_decay(self):
        sched = StepDecayLR(1.0, step_size=2, gamma=0.1)
        assert [round(sched.lr_at(e), 6) for e in range(5)] == \
               [1.0, 1.0, 0.1, 0.1, 0.01]

    def test_cosine_monotone_and_bounded(self):
        sched = CosineLR(1.0, total_epochs=10, min_lr=0.05)
        values = [sched.lr_at(e) for e in range(10)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.05  # floor approached, not wasted on a 0-LR epoch

    def test_pure_function_of_epoch(self):
        sched = build_schedule(TrainConfig(schedule="cosine", epochs=8,
                                           learning_rate=0.1))
        assert sched.lr_at(5) == sched.lr_at(5)  # no hidden state advanced
        first = [sched.lr_at(e) for e in range(8)]
        assert [sched.lr_at(e) for e in range(8)] == first

    def test_trainer_applies_schedule(self, city, samples):
        model = fresh_model(city)
        cfg = train_config(epochs=3, schedule="step", lr_step_size=1, lr_gamma=0.5)
        result = Trainer(model, cfg).fit(samples)
        assert [e.lr for e in result.history] == [5e-3, 2.5e-3, 1.25e-3]

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            TrainConfig(schedule="linear")

    def test_warmup_composes_with_every_schedule(self):
        for name in ("constant", "step", "cosine"):
            sched = build_schedule(TrainConfig(schedule=name, epochs=8,
                                               learning_rate=1.0,
                                               warmup_epochs=3))
            assert sched.lr_at(0) == pytest.approx(0.25), name


class TestQuickAccuracyPaddingMask:
    class _ZeroModel:
        """Stub recovery model predicting segment 0 everywhere."""

        def __init__(self):
            self.training = False

        def eval(self):
            self.training = False
            return self

        def train(self, mode=True):
            self.training = mode
            return self

        def recover(self, batch):
            shape = batch.target_segments.shape
            return np.zeros(shape, dtype=np.int64), np.zeros(shape)

    def test_padded_positions_do_not_count(self, samples):
        """Mixed target lengths force padding; padded steps carry segment
        0, so a model emitting 0 would score them 'correct' unless they
        are masked out by each sample's true length."""
        base_length = samples[0].target_length
        mixed = list(samples[:4]) + [
            pad_sample_target(s, base_length + 6) for s in samples[4:8]]
        accuracy = quick_accuracy(self._ZeroModel(), mixed, batch_size=8)

        correct = 0
        total = 0
        for sample in mixed:
            correct += int((sample.target.segments == 0).sum())
            total += sample.target_length
        assert accuracy == pytest.approx(correct / total)

        # The unmasked count scores the extra padding of the short
        # samples as hits — strictly higher, i.e. inflated.
        padded_to = max(s.target_length for s in mixed)
        inflated = (correct + sum(padded_to - s.target_length for s in mixed)) \
            / (padded_to * len(mixed))
        assert inflated > accuracy

    def test_restores_training_mode(self, samples):
        model = self._ZeroModel().train()
        quick_accuracy(model, samples[:4], batch_size=4)
        assert model.training
        model.eval()
        quick_accuracy(model, samples[:4], batch_size=4)
        assert not model.training

    def test_empty_samples_nan(self):
        assert np.isnan(quick_accuracy(self._ZeroModel(), []))


class TestCallbacks:
    """What ``fit`` does beside training: logging, the ``progress=``
    function and the ``checkpoint=`` archive."""

    def test_logging_emits_records_and_is_quiet_by_default(
            self, city, samples, caplog, capsys):
        model = fresh_model(city)
        with caplog.at_level(logging.INFO, logger="repro.train"):
            Trainer(model, train_config(epochs=1, log_every=1)).fit(samples)
        messages = [r.message for r in caplog.records]
        assert any("step" in m for m in messages)
        assert any(m.startswith("epoch 0:") for m in messages)
        assert capsys.readouterr().out == ""  # quiet by default: no prints

    def test_fit_checkpoint_writes_every_epoch(self, city, samples, tmp_path):
        path = str(tmp_path / "periodic")
        model = fresh_model(city)
        Trainer(model, train_config(epochs=2)).fit(samples, until_epoch=1,
                                                    checkpoint=path)
        assert TrainState.load(path).epoch == 1

    def test_progress_fn_still_supported(self, city, samples):
        seen = []
        model = fresh_model(city)
        Trainer(model, train_config(epochs=1)).fit(samples, progress=seen.append)
        assert len(seen) == 1 and isinstance(seen[0], EpochStats)


class TestSubGraphMemo:
    def test_later_epochs_rebuild_no_subgraph(self, city, samples, monkeypatch):
        """An epoch of no more batches than a memo generation lives re-uses
        every sub-graph the epoch before built, across generation flips."""
        from repro import profile
        from repro.core import subgraph_gen

        config = train_config(epochs=3)
        batches = -(-len(samples) // config.batch_size)
        monkeypatch.setattr(subgraph_gen, "GENERATION_BATCHES", batches)
        builds = []

        def snapshot(stats):
            builds.append(profile.stats()["counters"].get("subgraph.build", 0))

        profile.reset()
        profile.enable()
        try:
            Trainer(fresh_model(city), config).fit(samples, progress=snapshot)
        finally:
            profile.disable()
            profile.reset()
        assert builds[0] > 0 and builds == [builds[0]] * 3


class TestGradientAccumulation:
    def test_accumulated_training_converges(self, city, samples):
        model = fresh_model(city)
        cfg = train_config(epochs=2, batch_size=4, accumulate_steps=2)
        result = Trainer(model, cfg).fit(samples)
        assert np.isfinite(result.final_loss)
        assert result.history[-1].loss < result.history[0].loss + 1.0


class TestFitAndBundle:
    def test_bundle_has_provenance_and_serves(self, city, samples, tmp_path):
        from repro.serve import ModelRegistry

        model = fresh_model(city)
        prefix = str(tmp_path / "bundle")
        report = fit_and_bundle(model, samples, prefix,
                                config=train_config(epochs=1),
                                metadata={"dataset": "unit-test"})
        sidecar = json.loads((tmp_path / "bundle.json").read_text())
        assert set(sidecar["train"]) == {
            "version", "epochs", "final_loss", "best_val_accuracy", "schedule",
            "created_unix", "dataset"}
        assert sidecar["train"]["version"] == report.version
        assert sidecar["train"]["epochs"] == 1
        assert sidecar["train"]["dataset"] == "unit-test"
        assert report.version == model_version(model)

        registry = ModelRegistry(city)
        registry.register("fresh", prefix, activate=True)
        _, loaded = registry.active()
        a, b = model.state_dict(), loaded.state_dict()
        for key in a:
            assert np.array_equal(a[key], b[key]), key
