"""Compare recovery methods on one dataset — a miniature Table III.

    python examples/compare_methods.py [dataset] [trajectories] [epochs]

Trains MTrajRec, GTS+Decoder and RNTrajRec under an identical budget plus
the two-stage Linear+HMM baseline, then prints the paper's metric columns
side by side.  Use a larger trajectory/epoch budget to sharpen the gaps
(the paper trains on ~150k trajectories for 30 epochs).
"""

import sys

from repro.baselines import build_baseline
from repro.core import RNTrajRec
from repro.train import Trainer
from repro.datasets import load_dataset
from repro.eval import evaluate_model
from repro.experiments import get_engine, quick_train_config, small_model_config

METHODS = ["linear_hmm", "mtrajrec", "gts", "rntrajrec"]


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "chengdu"
    trajectories = int(sys.argv[2]) if len(sys.argv) > 2 else 150
    epochs = int(sys.argv[3]) if len(sys.argv) > 3 else 8

    print(f"Dataset: {dataset} ({trajectories} trajectories, {epochs} epochs)")
    data = load_dataset(dataset, num_trajectories=trajectories)
    engine = get_engine(data)
    config = small_model_config(32)
    train_config = quick_train_config(epochs)

    rows = {}
    for name in METHODS:
        if name == "rntrajrec":
            model = RNTrajRec(data.network, config)
        else:
            model = build_baseline(name, data.network, config)
        if hasattr(model, "parameters"):
            print(f"Training {name} ({model.num_parameters():,} params) ...")
            Trainer(model, train_config).fit(data.train)
        report = evaluate_model(model, data.test, engine)
        rows[name] = report.metrics.as_row()

    columns = ["Recall", "Precision", "F1 Score", "Accuracy", "MAE", "RMSE"]
    header = f"\n{'Method':<14}" + "".join(f"{c:>12}" for c in columns)
    print(header)
    print("-" * len(header))
    for name, metrics in rows.items():
        line = f"{name:<14}"
        for column in columns:
            value = metrics[column]
            line += f"{value:>12.2f}" if column in ("MAE", "RMSE") else f"{value:>12.4f}"
        print(line)


if __name__ == "__main__":
    main()
