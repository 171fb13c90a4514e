"""Fig. 5 — case study: recovering one elevated-road trajectory.

The paper visualizes one low-sample elevated-road trajectory recovered by
MTrajRec, GTS+Decoder and RNTrajRec.  Offline we print the per-step
segment comparison and spatial-consistency statistics instead of a map.
The case-study script ``examples/case_study_elevated.py`` produces the
same artifact interactively.
"""

import numpy as np
import pytest

from repro.core import RNTrajRec, RNTrajRecConfig
from repro.train import TrainConfig, Trainer
from repro.baselines import build_baseline
from repro.eval.metrics import elevated_window, f1_score, path_precision_recall
from repro.experiments import get_dataset
from repro.trajectory import make_batch


def _pick_elevated_sample(data):
    for sample in data.test:
        if elevated_window(sample.target, data.network) is not None:
            return sample
    return data.test[0]


def test_fig5_case_study(benchmark, budget):
    data = get_dataset("chengdu", max(120, budget["trajectories"] // 2), 8)
    config = RNTrajRecConfig(hidden_dim=budget["hidden"], num_heads=4, dropout=0.0,
                             receptive_delta=300.0, max_subgraph_nodes=32)
    train_config = TrainConfig(epochs=max(6, budget["epochs"] // 2), batch_size=16,
                               learning_rate=5e-3, clip_norm=10.0,
                               teacher_forcing_ratio=0.2, validate=False)

    sample = _pick_elevated_sample(data)
    batch = make_batch([sample])
    truth = sample.target

    rows = {}
    for name in ("mtrajrec", "gts", "rntrajrec"):
        if name == "rntrajrec":
            model = RNTrajRec(data.network, config)
        else:
            model = build_baseline(name, data.network, config)
        Trainer(model, train_config).fit(data.train)
        model.eval()
        rows[name] = model.recover_trajectories(batch)[0]

    print("\nFig. 5 — case study (one elevated-road trajectory, Chengdu ×8)")
    print(f"{'step':>4} {'truth':>7} " + "".join(f"{n:>11}" for n in rows))
    for j in range(len(truth)):
        line = f"{j:>4} {truth.segments[j]:>7} "
        for name in rows:
            line += f"{rows[name].segments[j]:>11}"
        print(line)

    for name, pred in rows.items():
        recall, precision = path_precision_recall(truth.travel_path(), pred.travel_path())
        # Spatial consistency: fraction of adjacent prediction pairs that
        # are graph-consistent (same segment or connected).
        indptr, successors, _ = data.network.csr_out_neighbors()
        consistent = sum(
            1
            for a, b in zip(pred.segments, pred.segments[1:])
            if a == b or b in successors[indptr[a]:indptr[a + 1]]
        ) / max(len(pred) - 1, 1)
        print(f"{name:>11}: F1={f1_score(recall, precision):.3f} "
              f"spatial-consistency={consistent:.3f}")

    # All models produce full-length recoveries.
    for pred in rows.values():
        assert len(pred) == len(truth)

    benchmark(lambda: rows["rntrajrec"].travel_path())
