"""Case study (paper Fig. 5): recover one elevated-road trajectory.

    python examples/case_study_elevated.py

Elevated expressways run directly above ground-level trunk roads, so a
recovery method that ignores road-network structure frequently confuses
the two decks — the shortest-path distance between a deck point and the
trunk point "below" it can be kilometres (the only connections are sparse
ramps).  This script trains RNTrajRec and MTrajRec, picks a test
trajectory that uses the elevated deck, and prints a step-by-step deck
comparison plus a GeoJSON-ish dump, ``runs/case_study_elevated.geojson``
at the repo root, for external visualization.
"""

import json
from pathlib import Path

import numpy as np

from repro.baselines import build_baseline
from repro.core import RNTrajRec
from repro.train import Trainer
from repro.datasets import load_dataset
from repro.eval.metrics import elevated_window, f1_score, path_precision_recall
from repro.experiments import quick_train_config, small_model_config
from repro.trajectory import make_batch


def deck_label(network, segment_id: int) -> str:
    return "ELEVATED" if network.elevated()[int(segment_id)] else "ground"


def main() -> None:
    data = load_dataset("chengdu", num_trajectories=160)
    network = data.network

    config = small_model_config(32)
    train_config = quick_train_config(8)

    sample = next(
        (s for s in data.test if elevated_window(s.target, network) is not None),
        data.test[0],
    )
    batch = make_batch([sample])
    truth = sample.target

    predictions = {}
    for name in ("mtrajrec", "rntrajrec"):
        model = (RNTrajRec(network, config) if name == "rntrajrec"
                 else build_baseline(name, network, config))
        print(f"Training {name} ...")
        Trainer(model, train_config).fit(data.train)
        model.eval()
        predictions[name] = model.recover_trajectories(batch)[0]

    print("\nstep  truth(deck)            mtrajrec               rntrajrec")
    for j in range(len(truth)):
        cells = [f"{truth.segments[j]:>5} {deck_label(network, truth.segments[j]):<9}"]
        for name in ("mtrajrec", "rntrajrec"):
            sid = predictions[name].segments[j]
            cells.append(f"{sid:>5} {deck_label(network, sid):<9}")
        print(f"{j:>4}  " + "   ".join(cells))

    window = elevated_window(truth, network)
    print("\nElevated sub-trajectory F1:")
    for name, pred in predictions.items():
        recall, precision = path_precision_recall(
            truth.slice(window).travel_path(), pred.slice(window).travel_path()
        )
        print(f"  {name:<10}: {f1_score(recall, precision):.3f}")

    # Dump recovered geometries for external plotting.
    features = []
    for name, traj in [("truth", truth)] + list(predictions.items()):
        coordinates = [list(map(float, network.position(int(s), float(r))))
                       for s, r in zip(traj.segments, traj.ratios)]
        features.append({
            "type": "Feature",
            "properties": {"name": name},
            "geometry": {"type": "LineString", "coordinates": coordinates},
        })
    path = Path(__file__).resolve().parents[1] / "runs" / "case_study_elevated.geojson"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"type": "FeatureCollection", "features": features}, handle, indent=1)
    print(f"\nWrote {path} (local-meter coordinates) for visualization.")


if __name__ == "__main__":
    main()
