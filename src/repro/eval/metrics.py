"""Evaluation metrics of §VI-A2.

* MAE / RMSE use the **road-network distance** between predicted and true
  positions (segment + ratio), not straight-line distance;
* Recall / Precision / F1 compare predicted and true travel paths as
  segment sets;
* Accuracy is the per-point segment match rate;
* SR%k is the fraction of elevated-road sub-trajectories whose F1 exceeds
  k (the robustness experiment of §VI-D / Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..roadnet.network import RoadNetwork
from ..roadnet.shortest_path import ShortestPathEngine
from ..trajectory.trajectory import MatchedTrajectory


@dataclass
class RecoveryMetrics:
    """Aggregated metrics over a collection of trajectories."""

    recall: float
    precision: float
    f1: float
    accuracy: float
    mae: float
    rmse: float
    count: int

    def as_row(self) -> Dict[str, float]:
        return {
            "Recall": self.recall,
            "Precision": self.precision,
            "F1 Score": self.f1,
            "Accuracy": self.accuracy,
            "MAE": self.mae,
            "RMSE": self.rmse,
        }


def path_precision_recall(true_path: np.ndarray, pred_path: np.ndarray) -> Tuple[float, float]:
    """|E_ρ ∩ E_ρ̂| / |E_ρ| and / |E_ρ̂| over travel-path segment sets."""
    true_set = set(int(s) for s in true_path)
    pred_set = set(int(s) for s in pred_path)
    if not true_set or not pred_set:
        return 0.0, 0.0
    inter = len(true_set & pred_set)
    return inter / len(true_set), inter / len(pred_set)


def f1_score(recall: float, precision: float) -> float:
    if recall + precision == 0.0:
        return 0.0
    return 2.0 * recall * precision / (recall + precision)


def point_accuracy(true_traj: MatchedTrajectory, pred_traj: MatchedTrajectory) -> float:
    """Fraction of timestamps whose predicted segment equals the truth."""
    if len(true_traj) != len(pred_traj):
        raise ValueError("trajectories must share length for accuracy")
    return float(np.mean(true_traj.segments == pred_traj.segments))


def distance_errors(
    true_traj: MatchedTrajectory,
    pred_traj: MatchedTrajectory,
    engine: ShortestPathEngine,
) -> np.ndarray:
    """Per-point road-network distances between truth and prediction."""
    if len(true_traj) != len(pred_traj):
        raise ValueError("trajectories must share length for distance errors")
    errors = np.zeros(len(true_traj))
    for i in range(len(true_traj)):
        errors[i] = engine.symmetric_position_distance(
            int(true_traj.segments[i]),
            float(true_traj.ratios[i]),
            int(pred_traj.segments[i]),
            float(pred_traj.ratios[i]),
        )
    return errors


def evaluate_recovery(
    truths: Sequence[MatchedTrajectory],
    predictions: Sequence[MatchedTrajectory],
    engine: ShortestPathEngine,
) -> RecoveryMetrics:
    """All Table-III metrics over matched (truth, prediction) pairs."""
    if len(truths) != len(predictions):
        raise ValueError("mismatched number of trajectories")
    if not truths:
        raise ValueError("no trajectories to evaluate")

    recalls: List[float] = []
    precisions: List[float] = []
    f1s: List[float] = []
    accuracies: List[float] = []
    abs_errors: List[float] = []
    sq_errors: List[float] = []

    for truth, pred in zip(truths, predictions):
        recall, precision = path_precision_recall(truth.travel_path(), pred.travel_path())
        recalls.append(recall)
        precisions.append(precision)
        f1s.append(f1_score(recall, precision))
        accuracies.append(point_accuracy(truth, pred))
        errors = distance_errors(truth, pred, engine)
        abs_errors.extend(np.abs(errors).tolist())
        sq_errors.extend((errors**2).tolist())

    return RecoveryMetrics(
        recall=float(np.mean(recalls)),
        precision=float(np.mean(precisions)),
        f1=float(np.mean(f1s)),
        accuracy=float(np.mean(accuracies)),
        mae=float(np.mean(abs_errors)),
        rmse=float(np.sqrt(np.mean(sq_errors))),
        count=len(truths),
    )


# ----------------------------------------------------------------------
# Elevated-road robustness (SR%k, Fig. 4)
# ----------------------------------------------------------------------


def elevated_window(
    truth: MatchedTrajectory, network: RoadNetwork, pad: int = 2
) -> Optional[np.ndarray]:
    """Indices of the sub-trajectory on/near elevated roads, or ``None``.

    The window spans from ``pad`` steps before the first elevated point to
    ``pad`` after the last, matching the paper's "on or near an elevated
    road" sub-trajectory selection.
    """
    elevated = network.elevated()[truth.segments]
    if not elevated.any():
        return None
    hits = np.flatnonzero(elevated)
    lo = max(0, int(hits[0]) - pad)
    hi = min(len(truth) - 1, int(hits[-1]) + pad)
    return np.arange(lo, hi + 1)


def sr_at_k(
    truths: Sequence[MatchedTrajectory],
    predictions: Sequence[MatchedTrajectory],
    network: RoadNetwork,
    thresholds: Sequence[float] = (0.4, 0.5, 0.6, 0.7, 0.8),
) -> Dict[float, float]:
    """SR%k: proportion of elevated sub-trajectories with F1 > k."""
    window_f1s: List[float] = []
    for truth, pred in zip(truths, predictions):
        window = elevated_window(truth, network)
        if window is None:
            continue
        sub_truth = truth.slice(window)
        sub_pred = pred.slice(window)
        recall, precision = path_precision_recall(sub_truth.travel_path(), sub_pred.travel_path())
        window_f1s.append(f1_score(recall, precision))
    if not window_f1s:
        return {float(k): 0.0 for k in thresholds}
    values = np.asarray(window_f1s)
    return {float(k): float(np.mean(values > k)) for k in thresholds}
