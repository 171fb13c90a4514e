"""Tests for the evaluation metrics (§VI-A2) against hand-computed cases."""

import numpy as np
import pytest

from repro.eval import (
    elevated_window,
    evaluate_model,
    evaluate_recovery,
    f1_score,
    path_precision_recall,
    point_accuracy,
    sr_at_k,
)
from reference import reference_network
from repro.eval.metrics import distance_errors
from repro.roadnet import CityConfig, RoadSegment, ShortestPathEngine, generate_city
from repro.trajectory import MatchedTrajectory


def traj(segments, ratios=None, times=None):
    n = len(segments)
    return MatchedTrajectory(
        np.asarray(segments),
        np.asarray(ratios if ratios is not None else np.zeros(n)),
        np.asarray(times if times is not None else np.arange(n, dtype=float)),
    )


class TestPathMetrics:
    def test_precision_recall_exact(self):
        recall, precision = path_precision_recall(np.array([1, 2, 3]), np.array([2, 3, 4, 5]))
        assert np.isclose(recall, 2 / 3)
        assert np.isclose(precision, 2 / 4)

    def test_perfect_match(self):
        recall, precision = path_precision_recall(np.array([1, 2]), np.array([2, 1]))
        assert recall == precision == 1.0

    def test_empty_paths(self):
        assert path_precision_recall(np.array([]), np.array([1])) == (0.0, 0.0)

    def test_f1(self):
        assert np.isclose(f1_score(0.5, 1.0), 2 / 3)
        assert f1_score(0.0, 0.0) == 0.0


class TestPointMetrics:
    def test_accuracy(self):
        a = traj([1, 2, 3, 4])
        b = traj([1, 9, 3, 9])
        assert np.isclose(point_accuracy(a, b), 0.5)

    def test_accuracy_length_mismatch(self):
        with pytest.raises(ValueError):
            point_accuracy(traj([1]), traj([1, 2]))


class TestDistanceErrors:
    def _line_network(self):
        segments = [
            RoadSegment(0, np.array([[0.0, 0.0], [100.0, 0.0]])),
            RoadSegment(1, np.array([[100.0, 0.0], [200.0, 0.0]])),
        ]
        return reference_network(segments, [(0, 1)])

    def test_same_position_zero(self):
        net = self._line_network()
        engine = ShortestPathEngine(net)
        errors = distance_errors(traj([0], [0.5]), traj([0], [0.5]), engine)
        assert np.allclose(errors, 0.0)

    def test_known_distance(self):
        net = self._line_network()
        engine = ShortestPathEngine(net)
        errors = distance_errors(traj([0], [0.5]), traj([1], [0.5]), engine)
        assert np.isclose(errors[0], 100.0)  # 50 m remaining + 50 m into next

    def test_evaluate_recovery_aggregates(self):
        net = self._line_network()
        engine = ShortestPathEngine(net)
        truths = [traj([0, 1], [0.0, 0.0]), traj([0, 0], [0.0, 0.5])]
        preds = [traj([0, 1], [0.0, 0.0]), traj([0, 1], [0.0, 0.5])]
        metrics = evaluate_recovery(truths, preds, engine)
        assert metrics.count == 2
        assert 0.0 <= metrics.recall <= 1.0
        assert metrics.rmse >= metrics.mae

    def test_evaluate_recovery_validation(self):
        net = self._line_network()
        engine = ShortestPathEngine(net)
        with pytest.raises(ValueError):
            evaluate_recovery([], [], engine)
        with pytest.raises(ValueError):
            evaluate_recovery([traj([0])], [], engine)


class TestElevatedMetrics:
    @pytest.fixture(scope="class")
    def city(self):
        return generate_city(CityConfig(width=1000, height=1000, block=250,
                                        elevated_rows=(2,), ramp_every=1, seed=9))

    def test_elevated_window_found(self, city):
        elevated_ids = np.flatnonzero(city.elevated()).tolist()
        ground_ids = np.flatnonzero(~city.elevated()).tolist()
        t = traj(ground_ids[:2] + elevated_ids[:2] + ground_ids[2:4])
        window = elevated_window(t, city, pad=1)
        assert window is not None
        assert window.tolist() == [1, 2, 3, 4]

    def test_no_elevated_returns_none(self, city):
        ground_ids = np.flatnonzero(~city.elevated()).tolist()
        assert elevated_window(traj(ground_ids[:4]), city) is None

    def test_sr_at_k_perfect_prediction(self, city):
        elevated_ids = np.flatnonzero(city.elevated()).tolist()
        ground_ids = np.flatnonzero(~city.elevated()).tolist()
        t = traj(ground_ids[:2] + elevated_ids[:3])
        out = sr_at_k([t], [t], city, thresholds=(0.5, 0.8))
        assert out[0.5] == 1.0
        assert out[0.8] == 1.0

    def test_sr_at_k_wrong_prediction(self, city):
        elevated_ids = np.flatnonzero(city.elevated()).tolist()
        ground_ids = np.flatnonzero(~city.elevated()).tolist()
        truth = traj(ground_ids[:2] + elevated_ids[:3])
        wrong = traj(ground_ids[4:9])
        out = sr_at_k([truth], [wrong], city, thresholds=(0.4,))
        assert out[0.4] == 0.0

    def test_sr_at_k_no_elevated_trajectories(self, city):
        ground_ids = np.flatnonzero(~city.elevated()).tolist()
        t = traj(ground_ids[:3])
        out = sr_at_k([t], [t], city, thresholds=(0.5,))
        assert out[0.5] == 0.0  # no windows → zero proportions


class TestEvaluateModelHarness:
    def test_full_pipeline_with_linear_hmm(self):
        from repro.baselines import LinearHMMRecovery
        from repro.trajectory import (
            DatasetConfig,
            SimulationConfig,
            TrajectorySimulator,
            build_samples,
        )

        city = generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))
        sim = TrajectorySimulator(city, SimulationConfig(target_points=17, seed=2))
        samples = build_samples(sim.simulate(6), city, DatasetConfig(keep_every=8))
        engine = ShortestPathEngine(city)
        report = evaluate_model(LinearHMMRecovery(city), samples, engine)
        assert report.metrics.count == 6
        assert report.inference_seconds_per_trajectory > 0
        assert len(report.predictions) == len(report.truths) == 6
