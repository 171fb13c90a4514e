"""Integration tests: decoder, losses, full RNTrajRec training loop."""

import numpy as np
import pytest

import reference
from repro import nn
from repro.baselines import build_baseline
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.core.decoder import (
    ReachabilityMask,
    RecoveryDecoder,
    decode_constraint,
    interpolation_prior,
)
from repro.roadnet import CityConfig, generate_city
from repro.train import TrainConfig, Trainer, quick_accuracy
from repro.trajectory import (
    DatasetConfig,
    SimulationConfig,
    TrajectorySimulator,
    build_samples,
    make_batch,
    train_val_test_split,
)

CFG = RNTrajRecConfig(hidden_dim=16, num_heads=2, max_subgraph_nodes=16,
                      receptive_delta=250.0, dropout=0.0)


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))


@pytest.fixture(scope="module")
def samples(city):
    sim = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=2))
    pairs = sim.simulate(24)
    return build_samples(pairs, city, DatasetConfig(keep_every=8))


@pytest.fixture(scope="module")
def batch(samples):
    return make_batch(samples[:6])


class TestDecoder:
    def test_teacher_forcing_output_shapes(self, city, batch):
        decoder = RecoveryDecoder(city.num_segments, CFG)
        enc = nn.Tensor(np.random.default_rng(0).normal(size=(batch.size, batch.input_length, CFG.hidden_dim)))
        state = nn.Tensor(np.zeros((batch.size, CFG.hidden_dim)))
        constraint = decode_constraint(batch, city, 0.0, CFG.decode_prior_floor)
        out = decoder.forward_teacher(enc, state, batch, constraint, teacher_forcing_ratio=1.0)
        assert out.segment_log_probs.shape == (batch.size, batch.target_length, city.num_segments)
        assert out.rates.shape == (batch.size, batch.target_length)
        # log-probabilities: each row sums to ~1 in probability space.
        probs = np.exp(out.segment_log_probs.data)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_scheduled_sampling_differs(self, city, batch):
        decoder = RecoveryDecoder(city.num_segments, CFG)
        enc = nn.Tensor(np.random.default_rng(0).normal(size=(batch.size, batch.input_length, CFG.hidden_dim)))
        state = nn.Tensor(np.zeros((batch.size, CFG.hidden_dim)))
        constraint = decode_constraint(batch, city, 0.0, CFG.decode_prior_floor)
        full = decoder.forward_teacher(enc, state, batch, constraint, 1.0)
        sampled = decoder.forward_teacher(
            enc, state, batch, constraint, 0.0, rng=np.random.default_rng(1)
        )
        assert not np.allclose(full.segment_log_probs.data, sampled.segment_log_probs.data)

    def test_greedy_respects_hard_mask(self, city, batch):
        decoder = RecoveryDecoder(city.num_segments, CFG)
        enc = nn.Tensor(np.random.default_rng(0).normal(size=(batch.size, batch.input_length, CFG.hidden_dim)))
        state = nn.Tensor(np.zeros((batch.size, CFG.hidden_dim)))
        # Force every step to allow only segment 3.
        constraint = np.zeros((batch.size, batch.target_length, city.num_segments))
        constraint[:, :, 3] = 1.0
        segments, rates = decoder.decode_greedy(
            enc, state, batch.target_length, reference.constraint_from_dense(constraint))
        assert np.all(segments == 3)
        assert np.all((rates >= 0) & (rates < 1))

    def test_greedy_shapes_without_mask(self, city, batch):
        decoder = RecoveryDecoder(city.num_segments, CFG)
        enc = nn.Tensor(np.random.default_rng(0).normal(size=(batch.size, batch.input_length, CFG.hidden_dim)))
        state = nn.Tensor(np.zeros((batch.size, CFG.hidden_dim)))
        segments, rates = decoder.decode_greedy(enc, state, batch.target_length, None)
        assert segments.shape == (batch.size, batch.target_length)


class TestReachability:
    def test_sets_contain_self_and_neighbors(self, city):
        mask = ReachabilityMask(city, hops=1)
        for sid in range(0, city.num_segments, 23):
            reachable = set(mask._sets[sid].tolist())
            assert sid in reachable
            assert set(city.out_neighbors[sid]) <= reachable

    def test_hops_grow_sets(self, city):
        one = ReachabilityMask(city, hops=1)
        two = ReachabilityMask(city, hops=2)
        assert len(two._sets[0]) >= len(one._sets[0])

    def test_masks_over_one_network_share_its_closure(self, city):
        first, second = ReachabilityMask(city, hops=2), ReachabilityMask(city, hops=2)
        assert first._indptr is second._indptr is city.khop_closure(2)[0]
        assert first._indices is second._indices is city.khop_closure(2)[1]

    def test_combine_soft_downweights(self, city):
        mask = ReachabilityMask(city, hops=1, escape_weight=0.1)
        previous = np.array([0])
        out = mask.combine(np.ones((1, city.num_segments)), previous, city.num_segments)
        reachable = mask._sets[0]
        assert np.allclose(out[0, reachable], 1.0)
        unreachable = np.setdiff1d(np.arange(city.num_segments), reachable)
        assert np.allclose(out[0, unreachable], 0.1)


class TestInterpolationPrior:
    def test_shape_and_floor(self, city, batch):
        prior = reference.dense(
            interpolation_prior(batch, city, scale=150.0, floor=0.005))
        assert prior.shape == (batch.size, batch.target_length, city.num_segments)
        assert prior.min() >= 0.005
        assert prior.max() <= 1.0

    def test_anchors_weight_near_segments_higher(self, city, batch):
        prior = reference.dense(
            interpolation_prior(batch, city, scale=150.0, floor=0.005))
        sample = batch.samples[0]
        step = int(sample.observed_steps[0])
        x, y = sample.raw_low.xy[0]
        near_sid, _, _ = city.nearest_segment(float(x), float(y))
        assert prior[0, step, near_sid] > 0.5

    @pytest.mark.parametrize("floor", [0.0, 0.005, 0.5, 1.0])
    def test_support_radius_prior_equals_three_scale_prior(
            self, city, batch, floor, monkeypatch):
        """Querying only the kernel's support drops hits whose weight was
        clamped to ``floor`` anyway: the prior is the same array."""
        from repro.core import decoder

        new = reference.dense(interpolation_prior(batch, city, 150.0, floor))
        monkeypatch.setattr(decoder, "_prior_radius",
                            lambda scale, floor: 3.0 * scale)
        old = reference.dense(interpolation_prior(batch, city, 150.0, floor))
        assert np.array_equal(new, old)
        if floor == 1.0:
            assert np.all(new == 1.0)
        else:
            assert new.max() > floor  # the kernel did write something


class TestDecodeConstraint:
    """``decode_constraint`` against its definition: the Eq. 16 constraint
    tensor times the interpolation prior, bit for bit."""

    @pytest.mark.parametrize("floor", [0.0, 0.005, 0.5, 1.0])
    @pytest.mark.parametrize("size", [1, 3])
    def test_equals_constraint_times_prior(self, city, samples, size, floor):
        batch = make_batch(samples[:size])
        length = batch.target_length
        for start in (0, length // 2, length - 1):
            built = reference.dense(
                decode_constraint(batch, city, 150.0, floor, start))
            defined = (reference.reference_constraint_tensor(
                batch, city.num_segments, start) * reference.dense(
                    interpolation_prior(batch, city, 150.0, floor, start)))
            assert built.shape == (size, length - start, city.num_segments)
            assert np.array_equal(built, defined)

    @pytest.mark.parametrize("size", [1, 3])
    def test_without_prior_is_the_constraint_tensor(self, city, samples, size):
        batch = make_batch(samples[:size])
        for start in (0, batch.target_length // 2, batch.target_length - 1):
            assert np.array_equal(
                reference.dense(decode_constraint(batch, city, 0.0, 0.005, start)),
                reference.reference_constraint_tensor(batch, city.num_segments,
                                                      start))

    def test_model_method_is_the_builder(self, city, batch):
        model = RNTrajRec(city, CFG)
        assert np.array_equal(
            reference.dense(model.decode_constraint(batch, 3)),
            reference.dense(decode_constraint(batch, city, CFG.decode_prior_scale,
                                              CFG.decode_prior_floor, 3)))


class TestTrainingConstraint:
    """Training masks with the sparse Eq. 16 constraint; fed the dense
    definition instead, ``compute_loss`` gives the same loss and gradients,
    byte for byte."""

    @staticmethod
    def _loss_and_grads(model, batch, ratio):
        model.zero_grad()
        loss = model.compute_loss(batch, ratio, rng=np.random.default_rng(4))
        loss.total.backward()
        return loss.total.data.tobytes(), [
            (name, None if p.grad is None else p.grad.tobytes())
            for name, p in model.named_parameters()]

    @pytest.mark.parametrize("name", ["rntrajrec", "transformer"])
    @pytest.mark.parametrize("ratio", [1.0, 0.5, 0.0])
    def test_loss_and_grads_equal_the_dense_definition(
            self, city, batch, name, ratio, monkeypatch):
        nn.init.seed_everything(3)
        model = (RNTrajRec(city, CFG) if name == "rntrajrec"
                 else build_baseline(name, city, CFG)).train()
        built = self._loss_and_grads(model, batch, ratio)
        forward_teacher = model.decoder.forward_teacher
        dense = reference.constraint_from_dense(
            reference.reference_constraint_tensor(batch, city.num_segments))

        def fed_dense(enc, state, batch, constraint, *args, **kwargs):
            return forward_teacher(enc, state, batch, dense, *args, **kwargs)

        monkeypatch.setattr(model.decoder, "forward_teacher", fed_dense)
        assert self._loss_and_grads(model, batch, ratio) == built


class TestScreeningHeadFreshness:
    """The float32 screening copy of the segment head is derived from
    ``segment_head.weight``; one that outlived a weight update would make
    the step's certificate silently unsound.  For every way weights get
    written: decode, write, decode again — both equal the float64
    reference kernel on the weights of the moment (an identity-keyed memo
    over writable arrays fails the in-place cases)."""

    STEPS = 6

    @pytest.fixture(autouse=True)
    def screen_every_width(self, monkeypatch):
        from repro.core import decoder

        monkeypatch.setattr(decoder, "_SCREEN_WIDTH", 0)

    def _assert_fresh(self, decoder, seed=0):
        from repro.core.decoder import GreedyWeights

        rng = np.random.default_rng(seed)
        enc = rng.normal(size=(2, 4, CFG.hidden_dim))
        state = rng.normal(size=(2, CFG.hidden_dim))
        segments, rates = decoder.decode_greedy(
            nn.Tensor(enc), nn.Tensor(state), self.STEPS, None)
        weights = GreedyWeights.from_decoder(decoder)  # float64 arrays: live
        carry, keys = decoder.initial_carry(state), weights.project_keys(enc)
        for j in range(self.STEPS):
            predicted, step_rates, carry = reference.reference_greedy_step(
                weights, enc, keys, carry, None, None)
            assert np.array_equal(segments[:, j], predicted)
            assert np.array_equal(rates[:, j], step_rates)

    def _scrambled(self, city, seed):
        """A model whose segment head is far from any other seed's, so a
        stale screen would certify the wrong leaders."""
        nn.init.seed_everything(seed)
        model = RNTrajRec(city, CFG).eval()
        head = model.decoder.segment_head.weight
        head.data = 3.0 * np.random.default_rng(seed).normal(size=head.data.shape)
        return model

    def test_optimizer_step_and_in_place_write(self, city):
        decoder = self._scrambled(city, 1).decoder
        self._assert_fresh(decoder)
        head = decoder.segment_head.weight
        head.grad = np.random.default_rng(2).normal(size=head.data.shape)
        nn.SGD([head], lr=5.0).step()
        self._assert_fresh(decoder)
        head.data *= -1.0  # same array object, new contents
        self._assert_fresh(decoder)

    @pytest.mark.parametrize("copy", [True, False])
    def test_load_state_dict(self, city, copy):
        model, other = self._scrambled(city, 1), self._scrambled(city, 2)
        self._assert_fresh(model.decoder)
        model.load_state_dict(other.state_dict(), copy=copy)
        self._assert_fresh(model.decoder)

    def test_mapped_checkpoints_and_back_to_writable(self, city, tmp_path):
        from repro.nn.serialization import load_checkpoint, save_checkpoint

        model = self._scrambled(city, 1)
        paths = [save_checkpoint(self._scrambled(city, seed),
                                 str(tmp_path / f"m{seed}")) for seed in (2, 3)]
        for path in paths:  # read-only maps: the pair may be kept per array
            load_checkpoint(model, path, mmap=True)
            self._assert_fresh(model.decoder)
            self._assert_fresh(model.decoder, seed=1)
        model.load_state_dict(self._scrambled(city, 4).state_dict())
        self._assert_fresh(model.decoder)

    def test_register_artifact_model(self, city):
        from repro.roadnet import CityArtifacts
        from repro.serve.registry import ModelRegistry

        artifacts = CityArtifacts.build(city, model=self._scrambled(city, 1))
        registry = ModelRegistry(artifacts=artifacts)
        model = registry.register_artifact_model("a")
        self._assert_fresh(model.decoder)
        model.load_state_dict(self._scrambled(city, 2).state_dict())
        self._assert_fresh(model.decoder)

    def test_baseline_decoder_has_the_same_guarantee(self, city):
        from repro.baselines import build_baseline

        baseline = build_baseline("mtrajrec", city, CFG).eval()
        self._assert_fresh(baseline.decoder)
        baseline.decoder.segment_head.weight.data *= -2.0
        self._assert_fresh(baseline.decoder)


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"decode_prior_floor": -0.1}, {"decode_prior_floor": 1.5},
        {"decode_prior_floor": float("nan")}, {"decode_prior_scale": -1.0},
        {"decode_prior_scale": float("nan")},
    ])
    def test_rejects_out_of_range_prior(self, overrides):
        with pytest.raises(ValueError, match="decode_prior"):
            RNTrajRecConfig(**overrides)
        with pytest.raises(ValueError, match="decode_prior"):
            CFG.variant(**overrides)

    def test_accepts_the_boundaries(self):
        RNTrajRecConfig(decode_prior_floor=0.0, decode_prior_scale=0.0)
        RNTrajRecConfig(decode_prior_floor=1.0)


class TestRNTrajRecEndToEnd:
    def test_loss_components_finite(self, city, batch):
        model = RNTrajRec(city, CFG)
        breakdown = model.compute_loss(batch)
        summary = breakdown.summary()
        for key in ("total", "L_id", "L_rate", "L_enc"):
            assert np.isfinite(summary[key]), key
        assert summary["L_enc"] != 0.0  # graph loss active by default

    def test_ablated_gcl_loss_zero(self, city, batch):
        model = RNTrajRec(city, CFG.ablation("gcl"))
        assert model.compute_loss(batch).graph_loss == 0.0

    def test_short_training_reduces_loss(self, city, samples):
        model = RNTrajRec(city, CFG)
        trainer = Trainer(model, TrainConfig(epochs=4, batch_size=8, learning_rate=5e-3,
                                             validate=False))
        result = trainer.fit(samples)
        assert result.history[-1].loss < result.history[0].loss

    def test_recover_output_contract(self, city, batch):
        model = RNTrajRec(city, CFG)
        segments, rates = model.recover(batch)
        assert segments.shape == (batch.size, batch.target_length)
        assert segments.dtype == np.int64
        assert np.all((segments >= 0) & (segments < city.num_segments))
        assert np.all((rates >= 0) & (rates < 1))

    def test_recover_trajectories_objects(self, city, batch):
        model = RNTrajRec(city, CFG)
        out = model.recover_trajectories(batch)
        assert len(out) == batch.size
        for traj, sample in zip(out, batch.samples):
            assert len(traj) == sample.target_length
            assert np.allclose(traj.times, sample.target.times)

    def test_checkpoint_roundtrip_preserves_predictions(self, city, batch, tmp_path):
        model = RNTrajRec(city, CFG)
        model.eval()
        seg1, _ = model.recover(batch)
        path = str(tmp_path / "model.npz")
        nn.save_checkpoint(model, path)
        clone = RNTrajRec(city, CFG)
        nn.load_checkpoint(clone, path)
        clone.eval()
        seg2, _ = clone.recover(batch)
        assert np.array_equal(seg1, seg2)

    def test_quick_accuracy_range(self, city, samples):
        model = RNTrajRec(city, CFG)
        acc = quick_accuracy(model, samples[:8], batch_size=8)
        assert 0.0 <= acc <= 1.0

    def test_trainer_validation_hook(self, city, samples):
        model = RNTrajRec(city, CFG)
        train, val, _ = train_val_test_split(samples, seed=0)
        seen = []
        trainer = Trainer(model, TrainConfig(epochs=1, batch_size=8, validate=True))
        trainer.fit(train, val, progress=seen.append)
        assert len(seen) == 1
        assert seen[0].val_accuracy is not None

    def test_all_parameters_receive_gradients(self, city, batch):
        model = RNTrajRec(city, CFG)
        model.compute_loss(batch, teacher_forcing_ratio=1.0).total.backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert not missing, f"no gradient for: {missing}"
