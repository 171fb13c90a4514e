"""Tier-1 smoke test of the perf ledger: the ``smoke`` profile (tens of
operations per workload, one boot, trace on) must produce the schema
``BENCHMARK.json`` promises, with nothing failed and the staged replay
bit-identical to ``cluster.recover``.  Timing values are not asserted."""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = REPO / "benchmarks" / "_cache" / "ledger"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_profile_matches_the_contract():
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in contract["workloads"]]
    end_to_end = [m["name"] for m in contract["end_to_end"]]
    per_layer = [m["name"] for m in contract["per_layer"]]
    for name in workloads + end_to_end + per_layer:
        assert NAME.fullmatch(name), name

    # The four workloads are independent processes; run them side by side.
    OUT.mkdir(parents=True, exist_ok=True)
    children = {
        name: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--profile", "smoke", "--out", str(OUT / f"smoke-{name}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name in workloads}
    for name, child in children.items():
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, f"{name}: {stdout[-2000:]}\n{stderr[-2000:]}"

        # The machine-readable last line: smoke traces, so per-layer metrics.
        line = json.loads(stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert sorted(line["metrics"]) == sorted(per_layer)

        summary = json.loads((OUT / f"smoke-{name}.json").read_text())
        assert list(summary)[-1] == "claim" and summary["claim"] is None
        assert {"env", "git_sha", "seed", "profile"} <= set(summary)
        assert summary["env"]["cpu_count"] >= 1
        record = summary["workloads"][name]
        # correct covers the oracle and the replay ≡ cluster.recover identity
        assert record["correct"] is True and record["problems"] == []
        assert set(end_to_end) <= set(record["end_to_end"])
        assert set(per_layer) == set(record["per_layer"])
        assert record["end_to_end"]["failed_share"]["value"] == 0.0
        for metric in contract["end_to_end"] + contract["per_layer"]:
            section = ("end_to_end" if metric["name"] in record["end_to_end"]
                       else "per_layer")
            assert record[section][metric["name"]]["unit"] == metric["unit"]
        assert record["per_layer"]["client.oracle_checked"]["value"] >= 1
        assert (OUT / f"trace-{name}.json").stat().st_size > 0
