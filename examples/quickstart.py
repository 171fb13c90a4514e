"""Quickstart: train RNTrajRec on a synthetic city and recover trajectories.

Runs in about a minute on a laptop CPU:

    python examples/quickstart.py

Steps
-----
1. Load the ``chengdu`` synthetic dataset (road network + trajectory
   corpus with exact ground truth).
2. Train RNTrajRec for a few epochs.
3. Recover the test trajectories and report the paper's metrics.
"""

from repro.core import RNTrajRec
from repro.datasets import load_dataset
from repro.eval import evaluate_model
from repro.experiments import get_engine, quick_train_config, small_model_config
from repro.train import Trainer


def main() -> None:
    print("Loading synthetic Chengdu dataset ...")
    data = load_dataset("chengdu", num_trajectories=120)
    print(f"  road segments : {data.network.num_segments}")
    print(f"  train/val/test: {len(data.train)}/{len(data.val)}/{len(data.test)}")

    config = small_model_config(32)
    model = RNTrajRec(data.network, config)
    print(f"RNTrajRec parameters: {model.num_parameters():,}")

    trainer = Trainer(model, quick_train_config(8, validate=True))
    print("Training ...")
    trainer.fit(
        data.train, data.val,
        progress=lambda e: print(
            f"  epoch {e.epoch}: loss={e.loss:.3f} "
            f"val_acc={e.val_accuracy if e.val_accuracy is not None else float('nan'):.3f} "
            f"({e.seconds:.1f}s)"
        ),
    )

    print("Evaluating on the test split ...")
    report = evaluate_model(model, data.test, get_engine(data))
    for name, value in report.metrics.as_row().items():
        unit = " m" if name in ("MAE", "RMSE") else ""
        print(f"  {name:<10}: {value:.4f}{unit}")

    # Inspect one recovery end to end.
    truth = report.truths[0]
    pred = report.predictions[0]
    print("\nFirst test trajectory (truth vs recovered segment ids):")
    print(f"  truth : {truth.segments[:12].tolist()} ...")
    print(f"  model : {pred.segments[:12].tolist()} ...")


if __name__ == "__main__":
    main()
