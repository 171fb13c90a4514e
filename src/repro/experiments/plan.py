"""The paper's experiment plan: the runs behind each table and figure.

Every Table III–V and Fig. 4–7 cell is one :func:`~.harness.run_experiment`
keyword set, named once here.  The ``bench_table*`` / ``bench_fig*``
benches run a section and assert its shape, ``scripts/populate_cache.py``
trains sections ahead of time, and ``scripts/render_experiments.py`` loads
each cell by its :func:`~.harness.experiment_key`, so all three mean the
same runs.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..baselines import BASELINE_NAMES
from .harness import METHOD_NAMES, bench_budget, quick_train_config, small_model_config

Run = Dict[str, object]  # run_experiment keywords


def experiment_plan(budget: Optional[Dict[str, int]] = None) -> Dict[str, Dict[str, Run]]:
    """Section → {row label: run}, rows in the paper's order.

    Sections: ``table3/<dataset>_x<k>`` and ``table4/<dataset>_x8`` (every
    method), ``table5/<dataset>_x8`` (the full model and its ablations),
    ``fig4`` (Table III's Chengdu ×8 runs, read for SR%k), ``fig5`` (the
    case study's three models), ``fig6`` (Chengdu ×8's baselines and four
    RNTrajRec variants) and ``fig7a``–``fig7d`` (the parameter sweeps).
    ``budget`` defaults to :func:`~.harness.bench_budget`.
    """
    budget = budget or bench_budget()
    total = budget["trajectories"]
    half = max(120, total // 2)   # Table V, Fig. 5 and Fig. 6's variants
    third = max(100, total // 3)  # Fig. 7's sweeps
    fifth = max(60, total // 5)   # Chengdu-Few: ~20 % of the corpus
    config = small_model_config(budget["hidden"])
    train = quick_train_config(budget["epochs"])

    def run(dataset, method, trajectories, keep_every=8, model_config=config,
            variant_tag="", train_config=train) -> Run:
        return dict(dataset=dataset, method=method, keep_every=keep_every,
                    trajectories=trajectories, model_config=model_config,
                    train_config=train_config, variant_tag=variant_tag)

    def variants(trajectories, configs, dataset="chengdu") -> Dict[str, Run]:
        """RNTrajRec runs, one per (tag, model config)."""
        return {tag: run(dataset, "rntrajrec", trajectories, model_config=model_config,
                         variant_tag=tag) for tag, model_config in configs.items()}

    plan = {f"table3/{dataset}_x{k}": {m: run(dataset, m, total, k) for m in METHOD_NAMES}
            for dataset, k in (("chengdu", 8), ("chengdu", 16), ("porto", 8), ("shanghai_l", 16))}
    plan["table4/shanghai_x8"] = {m: run("shanghai", m, total) for m in METHOD_NAMES}
    plan["table4/chengdu_few_x8"] = {m: run("chengdu_few", m, fifth) for m in METHOD_NAMES}
    for dataset in ("chengdu", "porto"):
        plan[f"table5/{dataset}_x8"] = {"rntrajrec": run(dataset, "rntrajrec", half), **variants(
            half, {f"w/o {name.upper()}": config.ablation(name)
                   for name in ("grl", "gf", "gat", "gn", "gcl")}, dataset)}
    chengdu = plan["table3/chengdu_x8"]
    plan["fig4"] = chengdu
    plan["fig5"] = {m: run("chengdu", m, half, train_config=quick_train_config(
        max(6, budget["epochs"] // 2))) for m in ("mtrajrec", "gts", "rntrajrec")}
    plan["fig6"] = {**{m: chengdu[m] for m in BASELINE_NAMES}, **variants(half, {
        tag: config.variant(num_gpsformer_layers=n, use_grl=grl, use_graph_loss=grl)
        for tag, n, grl in (("rntrajrec* (N=1)", 1, False), ("rntrajrec* (N=2)", 2, False),
                            ("rntrajrec (N=1)", 1, True), ("rntrajrec (N=2)", 2, True))})}
    plan["fig7a"] = variants(third, {f"enc={k}": config.variant(road_encoder=k)
                                     for k in ("gridgnn", "gcn", "gin", "gat")})
    plan["fig7b"] = variants(third, {f"N={n}": config.variant(num_gpsformer_layers=n)
                                     for n in (1, 2, 3)})
    plan["fig7c"] = variants(third, {f"delta={d:.0f}": config.variant(receptive_delta=d)
                                     for d in (100.0, 300.0, 600.0)})
    plan["fig7d"] = variants(third, {f"gamma={g:.0f}": config.variant(influence_gamma=g)
                                     for g in (10.0, 30.0, 50.0)})
    return plan
