"""Fig. 5 — case study: recovering one elevated-road trajectory.

The paper visualizes one low-sample elevated-road trajectory recovered by
MTrajRec, GTS+Decoder and RNTrajRec.  Offline we print the per-step
segment comparison and spatial-consistency statistics instead of a map.
The three models are the plan's ``fig5`` runs, trained here and kept in
memory.  The case-study script ``examples/case_study_elevated.py``
produces the same artifact interactively.
"""

from repro.train import Trainer
from repro.eval.metrics import elevated_window, f1_score, path_precision_recall
from repro.experiments import build_method, experiment_plan, get_dataset
from repro.trajectory import make_batch


def _pick_elevated_sample(data):
    for sample in data.test:
        if elevated_window(sample.target, data.network) is not None:
            return sample
    return data.test[0]


def test_fig5_case_study(benchmark, budget):
    runs = experiment_plan(budget)["fig5"]
    shared = runs["rntrajrec"]  # the three runs share one dataset
    data = get_dataset(shared["dataset"], shared["trajectories"], shared["keep_every"])

    sample = _pick_elevated_sample(data)
    batch = make_batch([sample])
    truth = sample.target

    rows = {}
    for name, run in runs.items():
        model = build_method(name, data, run["model_config"])
        Trainer(model, run["train_config"]).fit(data.train)
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
