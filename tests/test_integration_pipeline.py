"""Cross-module integration tests: the full pipeline on small budgets."""

import numpy as np
import pytest

from repro import nn
from repro.baselines import build_baseline
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.datasets import load_dataset
from repro.eval import evaluate_model, evaluate_sr_at_k
from repro.experiments import get_engine
from repro.train import TrainConfig, Trainer
from repro.trajectory import iterate_batches


@pytest.fixture(scope="module")
def porto():
    return load_dataset("porto", num_trajectories=40)


CFG = RNTrajRecConfig(hidden_dim=16, num_heads=2, max_subgraph_nodes=16,
                      receptive_delta=250.0, dropout=0.0)


class TestFullPipeline:
    def test_train_eval_rntrajrec_on_porto(self, porto):
        model = RNTrajRec(porto.network, CFG)
        result = Trainer(model, TrainConfig(epochs=2, batch_size=8, learning_rate=5e-3,
                                            validate=False)).fit(porto.train)
        assert result.history[-1].loss < result.history[0].loss

        engine = get_engine(porto)
        report = evaluate_model(model, porto.test, engine)
        row = report.metrics.as_row()
        assert 0.0 <= row["Accuracy"] <= 1.0
        assert row["MAE"] > 0.0

        sr = evaluate_sr_at_k(report, porto.network)
        assert set(sr) == {0.4, 0.5, 0.6, 0.7, 0.8}

    def test_two_stage_and_learned_same_interface(self, porto):
        engine = get_engine(porto)
        learned = build_baseline("mtrajrec", porto.network, CFG)
        two_stage = build_baseline("linear_hmm", porto.network, CFG)
        for model in (learned, two_stage):
            report = evaluate_model(model, porto.test[:4], engine)
            assert report.metrics.count == 4

    def test_prediction_times_match_target_grid(self, porto):
        model = RNTrajRec(porto.network, CFG)
        batch = next(iterate_batches(porto.test, 4))
        for pred, sample in zip(model.recover_trajectories(batch), batch.samples):
            assert np.allclose(pred.times, sample.target.times)
            assert pred.interval == sample.target.interval

    def test_recovered_ratio_of_input_points(self, porto):
        """Recovery densifies by the keep_every factor."""
        sample = porto.test[0]
        assert sample.target_length >= sample.input_length * porto.spec.dataset.keep_every // 2


class TestDeterminism:
    def test_same_seed_same_model_predictions(self, porto):
        batch = next(iterate_batches(porto.test, 4))

        def build_and_predict():
            nn.init.seed_everything(123)
            model = RNTrajRec(porto.network, CFG)
            model.eval()
            segments, rates = model.recover(batch)
            return segments, rates

        seg1, rate1 = build_and_predict()
        seg2, rate2 = build_and_predict()
        assert np.array_equal(seg1, seg2)
        assert np.allclose(rate1, rate2)

    def test_training_deterministic(self, porto):
        def train_once():
            nn.init.seed_everything(7)
            model = RNTrajRec(porto.network, CFG)
            result = Trainer(model, TrainConfig(epochs=1, batch_size=8, seed=3,
                                                validate=False)).fit(porto.train[:16])
            return result.history[0].loss

        assert train_once() == pytest.approx(train_once())


class TestFailureInjection:
    def test_decoder_handles_all_zero_mask_row(self, porto):
        """A fully-zero constraint row must not produce NaNs (floor kicks in)."""
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor

        logits = Tensor(np.random.default_rng(0).normal(size=(2, 5)))
        mask = np.zeros((2, 5))
        out = F.masked_log_softmax(logits, mask)
        assert np.all(np.isfinite(out.data))

    def test_gps_fix_far_outside_network(self, porto):
        """Sub-graph generation falls back to the nearest segment."""
        from repro.core import SubGraphGenerator

        gen = SubGraphGenerator(porto.network, CFG)
        sub = gen.point_subgraph(1e6, 1e6)
        assert len(sub.segments) >= 1

    def test_trainer_with_empty_validation(self, porto):
        model = build_baseline("mtrajrec", porto.network, CFG)
        result = Trainer(model, TrainConfig(epochs=1, batch_size=8,
                                            validate=True)).fit(porto.train[:8], [])
        assert result.history[0].val_accuracy is None

    def test_quick_accuracy_empty_samples(self, porto):
        from repro.train import quick_accuracy

        model = build_baseline("mtrajrec", porto.network, CFG)
        assert np.isnan(quick_accuracy(model, []))

    def test_hmm_engine_shared_with_metrics(self, porto):
        """LinearHMM can reuse the evaluation engine without conflicts."""
        from repro.baselines import LinearHMMRecovery

        engine = get_engine(porto)
        model = LinearHMMRecovery(porto.network, engine=engine)
        report = evaluate_model(model, porto.test[:2], engine)
        assert report.metrics.count == 2
