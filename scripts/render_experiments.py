"""Render EXPERIMENTS.md from the experiment plan and the result cache.

    python scripts/render_experiments.py > EXPERIMENTS.md

Each cell of ``repro.experiments.experiment_plan`` at the ``REPRO_BENCH_*``
budget is loaded by its ``experiment_key`` from ``REPRO_CACHE_DIR``
(default ``benchmarks/_cache``) and laid beside the paper's published
numbers.  A cell that this source has not computed at this budget reads
"—"; ``scripts/populate_cache.py`` computes them.
"""

import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
os.environ.setdefault("REPRO_CACHE_DIR", str(REPO / "benchmarks" / "_cache"))

from repro.experiments import SR_THRESHOLDS, bench_budget, experiment_key, experiment_plan  # noqa: E402
from repro.experiments.harness import DEFAULT_CACHE_DIR, load_cached  # noqa: E402

# Paper-published reference numbers (Table III/IV excerpts; F1 / Accuracy).
PAPER_TABLE3 = {
    ("chengdu_x8", "linear_hmm"): (0.6351, 0.4916),
    ("chengdu_x8", "dhtr_hmm"): (0.6714, 0.5501),
    ("chengdu_x8", "t2vec"): (0.7441, 0.5601),
    ("chengdu_x8", "transformer"): (0.7742, 0.5902),
    ("chengdu_x8", "mtrajrec"): (0.7938, 0.6081),
    ("chengdu_x8", "t3s"): (0.7913, 0.6092),
    ("chengdu_x8", "gts"): (0.7917, 0.6105),
    ("chengdu_x8", "neutraj"): (0.7961, 0.6152),
    ("chengdu_x8", "rntrajrec"): (0.8272, 0.6609),
    ("chengdu_x16", "linear_hmm"): (0.4564, 0.2858),
    ("chengdu_x16", "dhtr_hmm"): (0.5821, 0.4130),
    ("chengdu_x16", "t2vec"): (0.7013, 0.4627),
    ("chengdu_x16", "transformer"): (0.6537, 0.4258),
    ("chengdu_x16", "mtrajrec"): (0.7202, 0.4918),
    ("chengdu_x16", "t3s"): (0.7144, 0.4897),
    ("chengdu_x16", "gts"): (0.7131, 0.4825),
    ("chengdu_x16", "neutraj"): (0.7213, 0.4942),
    ("chengdu_x16", "rntrajrec"): (0.7632, 0.5413),
    ("porto_x8", "linear_hmm"): (0.5629, 0.3624),
    ("porto_x8", "dhtr_hmm"): (0.6118, 0.4250),
    ("porto_x8", "t2vec"): (0.6977, 0.4738),
    ("porto_x8", "transformer"): (0.6816, 0.4590),
    ("porto_x8", "mtrajrec"): (0.6905, 0.4656),
    ("porto_x8", "t3s"): (0.6816, 0.4551),
    ("porto_x8", "gts"): (0.6967, 0.4761),
    ("porto_x8", "neutraj"): (0.6984, 0.4808),
    ("porto_x8", "rntrajrec"): (0.7293, 0.5230),
    ("shanghai_l_x16", "linear_hmm"): (0.5801, 0.3825),
    ("shanghai_l_x16", "dhtr_hmm"): (0.5696, 0.3974),
    ("shanghai_l_x16", "t2vec"): (0.6831, 0.4544),
    ("shanghai_l_x16", "transformer"): (0.6306, 0.4160),
    ("shanghai_l_x16", "mtrajrec"): (0.6603, 0.4328),
    ("shanghai_l_x16", "t3s"): (0.6721, 0.4510),
    ("shanghai_l_x16", "gts"): (0.6987, 0.4714),
    ("shanghai_l_x16", "neutraj"): (0.6787, 0.4542),
    ("shanghai_l_x16", "rntrajrec"): (0.7332, 0.5145),
}

PAPER_TABLE4 = {
    ("shanghai_x8", "linear_hmm"): (0.7329, 0.5730),
    ("shanghai_x8", "dhtr_hmm"): (0.7123, 0.5876),
    ("shanghai_x8", "t2vec"): (0.6965, 0.5295),
    ("shanghai_x8", "transformer"): (0.7404, 0.5786),
    ("shanghai_x8", "mtrajrec"): (0.7581, 0.5924),
    ("shanghai_x8", "t3s"): (0.7695, 0.6009),
    ("shanghai_x8", "gts"): (0.7766, 0.6172),
    ("shanghai_x8", "neutraj"): (0.7726, 0.6058),
    ("shanghai_x8", "rntrajrec"): (0.8218, 0.6674),
    ("chengdu_few_x8", "linear_hmm"): (0.6351, 0.4916),
    ("chengdu_few_x8", "dhtr_hmm"): (0.6243, 0.4940),
    ("chengdu_few_x8", "t2vec"): (0.7055, 0.5069),
    ("chengdu_few_x8", "transformer"): (0.6977, 0.5051),
    ("chengdu_few_x8", "mtrajrec"): (0.7483, 0.5418),
    ("chengdu_few_x8", "t3s"): (0.7405, 0.5374),
    ("chengdu_few_x8", "gts"): (0.7396, 0.5312),
    ("chengdu_few_x8", "neutraj"): (0.7378, 0.5403),
    ("chengdu_few_x8", "rntrajrec"): (0.7689, 0.5774),
}

# Table V's full-model row is Table III's Chengdu x8 row.
PAPER_TABLE5 = {
    ("chengdu_x8", "w/o GRL"): (0.8177, 0.6459),
    ("chengdu_x8", "w/o GF"): (0.8191, 0.6439),
    ("chengdu_x8", "w/o GAT"): (0.8229, 0.6292),
    ("chengdu_x8", "w/o GN"): (0.8200, 0.6306),
    ("chengdu_x8", "w/o GCL"): (0.8209, 0.6472),
}

PAPER = {**PAPER_TABLE3, **PAPER_TABLE4, **PAPER_TABLE5}

CITIES = {"chengdu": "Chengdu", "chengdu_few": "Chengdu-Few", "porto": "Porto",
          "shanghai": "Shanghai", "shanghai_l": "Shanghai-L"}
FIGURES = {"table3": "Table III", "table4": "Table IV", "table5": "Table V: ablations",
           "fig4": "Fig. 4: SR%k on elevated roads", "fig6": "Fig. 6: efficiency",
           "fig7a": "Fig. 7(a): road-network encoder", "fig7b": "Fig. 7(b): GPSFormer blocks",
           "fig7c": "Fig. 7(c): receptive field δ", "fig7d": "Fig. 7(d): influence scale γ"}


def _cell(value, spec):
    return "—" if value is None else format(value, spec)


def _table(dataset, label, result):
    paper = PAPER.get((dataset, label), (None, None))
    return [_cell(paper[0], ".4f"), _cell(result and result.metrics["F1 Score"], ".4f"),
            _cell(paper[1], ".4f"), _cell(result and result.metrics["Accuracy"], ".4f"),
            _cell(result and result.metrics["MAE"], ".1f")]


def _sr(dataset, label, result):
    return [_cell(result and result.sr_at_k[str(float(k))], ".3f") for k in SR_THRESHOLDS]


def _efficiency(dataset, label, result):
    return [_cell(result and result.metrics["Accuracy"], ".4f"),
            _cell(result and result.inference_ms_per_trajectory, ".1f"),
            _cell(result and result.num_parameters, ",")]


def _sweep(dataset, label, result):
    return [_cell(result and result.metrics["F1 Score"], ".4f"),
            _cell(result and result.metrics["Accuracy"], ".4f")]


# Section kind → (columns, row cells); the plan's ``fig5`` models are
# trained by its bench and never cached.
LAYOUTS = {
    "table": (["paper F1", "ours F1", "paper ACC", "ours ACC", "ours MAE (m)"], _table),
    "fig4": ([f"ours SR%{k}" for k in SR_THRESHOLDS], _sr),
    "fig6": (["ours ACC", "ours ms/traj", "ours #params"], _efficiency),
    "fig7": (["ours F1", "ours ACC"], _sweep),
}


def main() -> None:
    budget = bench_budget()
    out = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"Budget: {budget['trajectories']} trajectories, {budget['epochs']} epochs,",
        f"hidden size {budget['hidden']} (`REPRO_BENCH_*`).  Each measured cell is",
        "the cached result of its `repro.experiments.experiment_plan` run at this",
        "budget and this source, read from `REPRO_CACHE_DIR`; \"—\" marks a cell",
        "not computed yet (`python scripts/populate_cache.py <job>`).",
        "",
        "**Scale caveat.** The paper trains d=512 models on ~105k real",
        "trajectories per city for 30 epochs on an RTX 3090; this",
        "reproduction trains d=32 models on a few hundred *synthetic*",
        "trajectories on CPU (the environment has no GPU, no PyTorch and",
        "no access to the proprietary corpora).  Absolute",
        "metrics are therefore far below the paper's; the reproduction",
        "target is the *shape* of each experiment: orderings, degradation",
        "trends and robustness curves.",
    ]
    for section, runs in experiment_plan(budget).items():
        head = section.split("/")[0]
        kind = "table" if head.startswith("table") else head[:4]
        if kind not in LAYOUTS:
            continue
        columns, cells = LAYOUTS[kind]
        first = next(iter(runs.values()))
        dataset = f"{first['dataset']}_x{first['keep_every']}"
        out += ["", f"## {FIGURES[head]} — {CITIES[first['dataset']]} "
                    f"(ε_τ = ε_ρ × {first['keep_every']})", "",
                "| Run | trajectories | " + " | ".join(columns) + " |",
                "|---" * (len(columns) + 2) + "|"]
        for label, run in runs.items():
            result = load_cached(DEFAULT_CACHE_DIR, experiment_key(**run))
            out.append(f"| {label} | {run['trajectories']} | "
                       + " | ".join(cells(dataset, label, result)) + " |")
    sys.stdout.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
