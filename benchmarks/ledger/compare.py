"""Compare two ledger results row by row against the fixed bounds.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the base (parent commit), ``B`` the candidate; both are JSON
results written by ``run.py``.  Every (workload, end-to-end metric) pair
is its own row, judged against the bound ``BENCHMARK.json`` fixes for that
metric — the share of the base value by which it may worsen:

* ``regressed``  — worse than the base by more than the bound;
* ``improved``   — better than the base by more than the bound;
* ``ok``         — within the bound either way;
* ``unresolved`` — the pair cannot be judged: a side lacks the workload or
  metric, or its run was not correct.

``failed_share`` has no tolerance: any increase is a regression.  Each
ratio is printed with its base.  Exit status is 1 if any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def compare(base: Dict[str, Any], candidate: Dict[str, Any]) -> List[Dict[str, Any]]:
    contract = json.loads(CONTRACT.read_text())
    metrics = contract["end_to_end"] + [
        {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}]
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        sides = [side["workloads"].get(workload) for side in (base, candidate)]
        for metric in metrics:
            name = metric["name"]
            values = [side["end_to_end"].get(name, {}).get("value")
                      if side and side["correct"] else None for side in sides]
            row = {"workload": workload, "metric": name,
                   "unit": metric["unit"], "base": values[0],
                   "candidate": values[1], "bound": metric["bound"]}
            if None in values:
                row["verdict"] = "unresolved"
            else:
                a, b = values
                worse = (b - a) if metric["better"] == "lower" else (a - b)
                limit = metric["bound"] * abs(a)
                row["verdict"] = ("regressed" if worse > limit else
                                  "improved" if -worse > limit else "ok")
            rows.append(row)
    return rows


def print_rows(rows: List[Dict[str, Any]]) -> None:
    for row in rows:
        a, b = row["base"], row["candidate"]
        if row["verdict"] == "unresolved":
            detail = f"base {a} candidate {b}"
        else:
            ratio = f"{b / a:.3f}x" if a else "n/a"
            detail = (f"{b:.4f} vs base {a:.4f} {row['unit']} "
                      f"({ratio}, bound {row['bound']:.0%})")
        print(f"{row['verdict']:<10} {row['workload']:<13} "
              f"{row['metric']:<16} {detail}")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(base, candidate)
    print_rows(rows)
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
