"""Fleet recovery pipeline: batch-process a day of low-sample taxi traces.

    python examples/recover_fleet.py

The intro's motivating scenario: a taxi fleet reports GPS fixes every few
minutes to save energy; downstream applications (travel-time estimation,
traffic prediction) need dense map-matched trajectories.  This script

1. simulates a fleet day (low-sample raw traces),
2. trains RNTrajRec once on historical data,
3. recovers every trace to the ε_ρ grid,
4. reports per-trajectory quality and aggregate segment-level flow counts
   (the input a traffic-prediction system would consume).
"""

from collections import Counter

import numpy as np

from repro.core import RNTrajRec
from repro.train import Trainer
from repro.datasets import load_dataset
from repro.eval.metrics import f1_score, path_precision_recall
from repro.experiments import quick_train_config, small_model_config
from repro.trajectory import iterate_batches


def main() -> None:
    data = load_dataset("chengdu", num_trajectories=160)
    network = data.network

    config = small_model_config(32)
    model = RNTrajRec(network, config)
    print(f"Training on {len(data.train)} historical trajectories ...")
    Trainer(model, quick_train_config(8, clip_norm=5.0)).fit(data.train)
    model.eval()

    fleet = data.test
    print(f"Recovering {len(fleet)} fleet traces "
          f"(input interval {data.spec.simulation.sample_interval * data.spec.dataset.keep_every:.0f}s "
          f"-> output interval {data.spec.simulation.sample_interval:.0f}s) ...")

    flow: Counter = Counter()
    f1s = []
    recovered_points = 0
    input_points = 0
    for batch in iterate_batches(fleet, 16):
        for sample, pred in zip(batch.samples, model.recover_trajectories(batch)):
            recall, precision = path_precision_recall(
                sample.target.travel_path(), pred.travel_path()
            )
            f1s.append(f1_score(recall, precision))
            flow.update(int(s) for s in pred.travel_path())
            recovered_points += len(pred)
            input_points += sample.input_length

    print(f"  densification: {input_points} input fixes -> {recovered_points} recovered points "
          f"({recovered_points / input_points:.1f}x)")
    print(f"  mean travel-path F1 vs ground truth: {np.mean(f1s):.3f}")

    print("\nBusiest road segments (recovered flow counts):")
    for sid, count in flow.most_common(8):
        kind = "elevated" if network.elevated()[sid] else f"level-{network.levels()[sid]}"
        print(f"  segment {sid:>4} ({kind:<9} {network.lengths()[sid]:5.0f} m): "
              f"{count} trajectories")


if __name__ == "__main__":
    main()
