"""Tests for all eight baselines: construction, training step, recovery."""

import contextlib
import sys

import numpy as np
import pytest

from repro.baselines import BASELINE_NAMES, LinearHMMRecovery, build_baseline
from repro.core import RNTrajRecConfig
from repro.nn.tensor import is_grad_enabled
from repro.roadnet import CityConfig, generate_city
from repro.train import TrainConfig, Trainer
from repro.trajectory import (
    DatasetConfig,
    SimulationConfig,
    TrajectorySimulator,
    build_samples,
    make_batch,
)

CFG = RNTrajRecConfig(hidden_dim=16, num_heads=2, max_subgraph_nodes=16,
                      receptive_delta=250.0, dropout=0.0)

LEARNED = [n for n in BASELINE_NAMES if n != "linear_hmm"]


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))


@pytest.fixture(scope="module")
def samples(city):
    sim = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=2))
    pairs = sim.simulate(12)
    return build_samples(pairs, city, DatasetConfig(keep_every=8))


@pytest.fixture(scope="module")
def batch(samples):
    return make_batch(samples[:4])


class TestFactory:
    def test_all_names_build(self, city):
        for name in BASELINE_NAMES:
            model = build_baseline(name, city, CFG)
            assert model is not None

    def test_unknown_name_rejected(self, city):
        with pytest.raises(ValueError):
            build_baseline("unknown", city, CFG)


class TestLinearHMM:
    def test_recover_contract(self, city, batch):
        model = LinearHMMRecovery(city)
        out = model.recover_trajectories(batch)
        assert len(out) == batch.size
        for traj, sample in zip(out, batch.samples):
            assert len(traj) == sample.target_length
        segments, ratios = model.recover(batch)
        assert segments.shape == (batch.size, batch.target_length)

    def test_no_parameters(self, city):
        assert LinearHMMRecovery(city).num_parameters() == 0

    def test_eval_train_noops(self, city):
        model = LinearHMMRecovery(city)
        assert model.eval() is model
        assert model.train() is model

    def test_anchors_match_roughly(self, city, batch):
        """At observed timestamps the recovery should be near the fix."""
        model = LinearHMMRecovery(city)
        recovered = model.recover_trajectories(batch)
        for traj, sample in zip(recovered, batch.samples):
            positions = traj.positions(city)
            for input_pos, step in enumerate(sample.observed_steps):
                err = np.linalg.norm(positions[step] - sample.raw_low.xy[input_pos])
                assert err < 250.0


@pytest.mark.parametrize("name", LEARNED)
class TestLearnedBaselines:
    def test_loss_and_gradient_step(self, name, city, batch):
        model = build_baseline(name, city, CFG)
        breakdown = model.compute_loss(batch, teacher_forcing_ratio=1.0)
        assert np.isfinite(breakdown.total.item())
        breakdown.total.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads, "no gradients computed"

    def test_recover_contract(self, name, city, batch, monkeypatch):
        model = build_baseline(name, city, CFG)
        model.eval()
        # Inference builds no autograd tape: the encoder runs with grad off.
        encoder = model.encoder_rnn if name == "dhtr_hmm" else model.encoder
        forward, grad_states = encoder.forward, []

        def probed(*args, **kwargs):
            grad_states.append(is_grad_enabled())
            return forward(*args, **kwargs)

        monkeypatch.setattr(encoder, "forward", probed)
        segments, rates = model.recover(batch)
        assert grad_states and not any(grad_states)
        assert segments.shape == (batch.size, batch.target_length)
        assert np.all((segments >= 0) & (segments < city.num_segments))
        assert np.all((rates >= 0) & (rates < 1))
        # The same call with the tape on (no_grad a no-op) gives the same bytes.
        module = sys.modules[type(model).__module__]
        monkeypatch.setattr(module, "no_grad", contextlib.nullcontext)
        taped = model.recover(batch)
        assert grad_states[-1]
        assert segments.tobytes() == taped[0].tobytes()
        assert rates.tobytes() == taped[1].tobytes()

    def test_one_epoch_training(self, name, city, samples):
        model = build_baseline(name, city, CFG)
        trainer = Trainer(model, TrainConfig(epochs=1, batch_size=8, validate=False))
        result = trainer.fit(samples)
        assert len(result.history) == 1
        assert np.isfinite(result.history[0].loss)


class TestDHTRSpecifics:
    def test_coordinate_decoder_output(self, city, batch):
        model = build_baseline("dhtr_hmm", city, CFG)
        coords = model._decode_coordinates(batch)
        assert coords.shape == (batch.size, batch.target_length, 2)

    def test_training_reduces_coordinate_loss(self, city, samples):
        model = build_baseline("dhtr_hmm", city, CFG)
        trainer = Trainer(model, TrainConfig(epochs=5, batch_size=8, learning_rate=5e-3,
                                             validate=False))
        result = trainer.fit(samples)
        assert result.history[-1].loss < result.history[0].loss


class TestParameterCounts:
    def test_models_have_distinct_capacity(self, city):
        counts = {}
        for name in ("mtrajrec", "transformer", "t3s", "gts", "neutraj", "t2vec"):
            counts[name] = build_baseline(name, city, CFG).num_parameters()
        assert all(c > 0 for c in counts.values())
        # The transformer and the GRU encoder should differ in size.
        assert counts["transformer"] != counts["mtrajrec"]
