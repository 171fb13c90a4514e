"""Perf ledger: the repo's one end-to-end serving benchmark.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--profile default|smoke] [--seconds S] [--trace [0|1]]
        [--out FILE] [--repeat N]

Runs the named workload (or all four, each in a fresh child process)
against the unmodified program, checks outputs against the solo-decode
oracle, prints every metric by name with its unit, and writes one JSON
result.  With ``--workload`` the last line of standard output is the
machine-readable result ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics.

The two profiles and the seed are the only inputs (``--seconds`` rescales
a profile's fixed operation counts); there are no environment knobs.  See
``README.md`` beside this file for the definitions.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

#: Layers on one request's blocking path, in path order (the budget rows).
BUDGET_LAYERS = (
    "http.transport_ms", "http.parse_us", "cluster.router.route_us",
    "cluster.shard.localize_us", "cluster.workers.encode_request_us",
    "cluster.workers.pipe_wait_ms", "cluster.workers.decode_request_us",
    "serve.cache.key_us", "serve.cache.hit_us", "serve.request.assemble_us",
    "serve.batching.handoff_us", "serve.batching.load_wait_ms",
    "serve.service.batch_us", "serve.service.encode_ms",
    "serve.service.constraint_ms", "serve.service.keys_us",
    "serve.engine.sweep_us", "cluster.workers.encode_response_us",
    "cluster.workers.decode_response_us", "http.serialize_us",
)


def print_record(record: Dict[str, Any]) -> None:
    print(f"== {record['workload']} (seed {record['seed']}): "
          f"{record['attempted']} attempted, {record['failed']} failed, "
          f"{'correct' if record['correct'] else 'WRONG'}")
    for problem in record["problems"]:
        print(f"   problem: {problem}")
    for section in ("end_to_end", "per_layer"):
        for name, metric in (record[section] or {}).items():
            print(f"   {name:<42} {metric['value']:>14.4f} {metric['unit']}")
    layers = record["per_layer"]
    if layers:
        # The layer budget: each layer's self time (p50) beside the
        # end-to-end median latency it is part of.
        total = record["end_to_end"]["latency_p50_ms"]["value"]
        print(f"   layer budget (share of latency_p50_ms = {total:.3f} ms)")
        for name in BUDGET_LAYERS:
            ms = layers[name]["value"]
            if layers[name]["unit"] == "us":
                ms /= 1e3
            if name == "serve.engine.sweep_us":  # one sweep per grid step
                ms *= layers["core.decoder.steps_per_request"]["value"]
            print(f"     {name:<40} {ms:>10.4f} ms {ms / total:>8.1%}")


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def summary(records: List[Dict[str, Any]], seed: int, profile: str) -> Dict[str, Any]:
    """The JSON result: environment header, provenance, one record per
    workload, and no claim."""
    from repro.experiments import bench_environment

    return {
        "env": bench_environment(backend="process+inproc"),
        "git_sha": _git_sha(), "seed": seed, "profile": profile,
        "correct": all(record["correct"] for record in records),
        "workloads": {record["workload"]: record for record in records},
        "claim": None,
    }


def run_all(args, cache: Path, names) -> Dict[str, Any]:
    """Every workload, each in a fresh child of this script, so one
    workload's memory never shows in the next one's ``rss_mb``."""
    cache.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        out = cache / f"child-{name}.json"
        out.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--profile", args.profile,
                   "--out", str(out)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # Pass the readable report through, minus the machine-readable line.
        sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
        if not out.exists():
            raise SystemExit(f"workload {name} produced no result "
                             f"(exit {child.returncode})")
        records.append(json.loads(out.read_text())["workloads"][name])
    return summary(records, args.seed, args.profile)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--profile", default="default",
                        choices=("default", "smoke"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None,
                        choices=(0, 1))
    parser.add_argument("--out", default=None)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)

    if not ((REPO / "src" / "repro").is_dir()
            and (REPO / "scripts" / "serve.py").is_file()
            and (REPO / "BENCHMARK.json").is_file()):
        print("perf ledger: the program to measure (src/repro, "
              "scripts/serve.py) is not in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(REPO / "src")]
    # SIGTERM must unwind through the finally blocks that kill the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import compare
    import ledger
    import sut
    import workloads

    if args.workload is None:
        runs = [run_all(args, sut.CACHE, workloads.WORKLOADS)
                for _ in range(args.repeat)]
        ok = runs[-1]["correct"]
        for earlier in runs[:-1]:  # --repeat: the runs must agree
            rows = compare.compare(earlier, runs[-1])
            compare.print_rows(rows)
            ok &= all(row["verdict"] == "ok" for row in rows)
        out = Path(args.out) if args.out else sut.CACHE / "result.json"
        out.write_text(json.dumps(runs[-1], indent=1))
        print(f"wrote {out}")
        return 0 if ok else 1

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {workloads.WORKLOADS}")
    profile = ledger.profiles()[args.profile]
    trace = profile.trace if args.trace is None else bool(args.trace)
    seconds = profile.seconds if args.seconds is None else args.seconds
    record = ledger.run_workload(args.workload, args.seed, profile, seconds,
                                 trace)
    print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(
            summary([record], args.seed, args.profile), indent=1))
    section = "per_layer" if trace else "end_to_end"
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric["name"]: record[section][metric["name"]]
                    for metric in ledger.contract()[section]}}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
