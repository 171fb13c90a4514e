"""Lightweight wall-clock profiling for the recovery hot path.

A :class:`Profiler` is a thread-safe registry of named **sections** (timed
spans) and **counters**.  The hot paths of the model and the serving layer
are instrumented with ``profile.section("...")`` context managers — encode,
decode, sub-graph generation, and the serving scheduler — so any
caller (benchmarks, the serving CLI, a notebook) can flip profiling on and
read a per-stage wall-clock breakdown without touching model code:

    from repro import profile

    profile.enable()
    model.recover(batch)
    print(profile.report())

Profiling is **disabled by default** and costs one attribute check plus a
shared no-op context manager per instrumented span when off, so the
instrumentation can stay in the production code path permanently.

The section and counter names the built-in instrumentation uses are
listed, with where each is wired, in ``docs/architecture.md``'s
"Profiling hooks" table (``scripts/check_docs.py`` keeps the two equal).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

__all__ = [
    "Profiler",
    "SectionStat",
    "PROFILER",
    "section",
    "count",
    "enable",
    "disable",
    "memory_snapshot",
    "proc_rss_mb",
    "reset",
    "stats",
    "report",
]


class SectionStat:
    """Aggregated timings of one named section."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def snapshot(self) -> Dict[str, float]:
        mean = self.total_s / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_s": round(self.total_s, 6),
            "mean_ms": round(1000.0 * mean, 4),
            "min_ms": round(1000.0 * (self.min_s if self.count else 0.0), 4),
            "max_ms": round(1000.0 * self.max_s, 4),
        }


class _Section:
    """Context manager recording one timed span into a profiler."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Section":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profiler.add(self._name, time.perf_counter() - self._start)


class _NullSection:
    """Shared no-op context manager returned while profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SECTION = _NullSection()


class Profiler:
    """Thread-safe named timer/counter registry."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._sections: Dict[str, SectionStat] = {}
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def enable(self) -> "Profiler":
        self.enabled = True
        return self

    def disable(self) -> "Profiler":
        self.enabled = False
        return self

    def reset(self) -> None:
        with self._lock:
            self._sections.clear()
            self._counters.clear()

    # ------------------------------------------------------------------
    def section(self, name: str):
        """A context manager timing the enclosed block (no-op when off)."""
        if not self.enabled:
            return _NULL_SECTION
        return _Section(self, name)

    def add(self, name: str, seconds: float) -> None:
        """Record one completed span of ``seconds`` under ``name``."""
        with self._lock:
            stat = self._sections.get(name)
            if stat is None:
                stat = self._sections[name] = SectionStat()
            stat.add(seconds)

    def count(self, name: str, n: int = 1) -> None:
        """Bump counter ``name`` by ``n`` (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, dict]:
        """Snapshot: ``{"sections": {...}, "counters": {...}}``."""
        with self._lock:
            return {
                "sections": {name: stat.snapshot()
                             for name, stat in sorted(self._sections.items())},
                "counters": dict(sorted(self._counters.items())),
            }

    def report(self) -> str:
        """Human-readable per-section table, widest total first."""
        snap = self.stats()
        lines = [f"{'section':<28}{'count':>8}{'total s':>10}{'mean ms':>10}"
                 f"{'min ms':>10}{'max ms':>10}"]
        lines.append("-" * len(lines[0]))
        ordered = sorted(snap["sections"].items(),
                         key=lambda kv: -kv[1]["total_s"])
        for name, stat in ordered:
            lines.append(f"{name:<28}{stat['count']:>8}{stat['total_s']:>10.3f}"
                         f"{stat['mean_ms']:>10.2f}{stat['min_ms']:>10.2f}"
                         f"{stat['max_ms']:>10.2f}")
        for name, value in snap["counters"].items():
            lines.append(f"{name:<28}{value:>8}")
        return "\n".join(lines)


#: The process-wide default profiler every instrumented hot path reports to.
PROFILER = Profiler()


def section(name: str):
    """``with profile.section("decode.greedy"): ...`` on the default profiler."""
    return PROFILER.section(name)


def count(name: str, n: int = 1) -> None:
    PROFILER.count(name, n)


def enable() -> Profiler:
    return PROFILER.enable()


def disable() -> Profiler:
    return PROFILER.disable()


def reset() -> None:
    PROFILER.reset()


def stats() -> Dict[str, dict]:
    return PROFILER.stats()


def report() -> str:
    return PROFILER.report()


def _read_status_mb(pid) -> Dict[str, float]:
    """{"rss_mb", "peak_rss_mb"} of one pid from ``/proc/<pid>/status``
    (zeros if the process is gone or /proc is unavailable)."""
    current = peak = 0.0
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    current = int(line.split()[1]) / 1024.0
                elif line.startswith("VmHWM:"):
                    peak = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return {"rss_mb": current, "peak_rss_mb": peak}


def proc_rss_mb(pid) -> float:
    """One process's current VmRSS in MiB (0.0 if unreadable) — the
    cluster's per-worker memory gauge for process-backed shards."""
    return round(_read_status_mb(pid)["rss_mb"], 3)


def _read_pss_mb(pid) -> Optional[float]:
    """Proportional set size of one pid (``/proc/<pid>/smaps_rollup``),
    or None where the kernel doesn't expose it.  PSS divides each shared
    page by its number of sharers, so summing it over a worker tree
    counts an mmap'd city artifact (or fork-shared model) once instead
    of N times."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def memory_snapshot(pids=()) -> Dict[str, float]:
    """Resident set size of this process — plus, with ``pids``, its
    worker children — in MiB.

    Memory joins latency/throughput as a first-class tracked metric: the
    cluster stats rollup, serving telemetry and the ledger's ``rss_mb``
    all sample it at measurement boundaries.
    Reads ``/proc/self/status`` (``VmRSS`` / ``VmHWM``); where /proc is
    unavailable it falls back to ``resource.getrusage`` peak RSS and
    reports 0.0 for the current value.

    ``pids`` names worker processes (a process-backed shard's replicas)
    to fold in: ``rss_mb`` / ``peak_rss_mb`` become sums over the whole
    tree, and the snapshot gains ``processes``, ``children_rss_mb`` and —
    where ``smaps_rollup`` is readable — ``pss_mb``, the proportional set
    size that counts pages shared between the workers (mmap'd artifacts,
    fork-inherited networks) **once**.  Plain ``rss_mb`` over N sharing
    workers multiple-counts those pages; compare the two to see how much
    of the fleet is truly shared.
    """
    own = _read_status_mb("self")
    current, peak = own["rss_mb"], own["peak_rss_mb"]
    if current == 0.0 and peak == 0.0:
        try:
            import resource
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except Exception:
            pass
    payload = {"rss_mb": current, "peak_rss_mb": peak}
    if pids:
        children = 0.0
        pss_total = _read_pss_mb("self")
        for pid in pids:
            child = _read_status_mb(pid)
            children += child["rss_mb"]
            payload["peak_rss_mb"] += child["peak_rss_mb"]
            if pss_total is not None:
                child_pss = _read_pss_mb(pid)
                pss_total = (None if child_pss is None
                             else pss_total + child_pss)
        payload["rss_mb"] += children
        payload["children_rss_mb"] = round(children, 3)
        payload["processes"] = len(pids) + 1
        if pss_total is not None:
            payload["pss_mb"] = round(pss_total, 3)
    payload["rss_mb"] = round(payload["rss_mb"], 3)
    payload["peak_rss_mb"] = round(payload["peak_rss_mb"], 3)
    return payload
