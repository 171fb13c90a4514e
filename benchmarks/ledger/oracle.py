"""Solo-decode oracle: what every response must equal.

The expected answer for a request is ``model.recover`` over a batch of
one, built with ``assemble_sample`` from the same bundle's model and the
city's own ingest grid — no cluster, cache, scheduler or pipe involved.
Segments and grid times must match exactly; ratios exactly in-process and
at the 6 decimals ``_response_payload`` keeps over HTTP.  Streaming
``finalize`` must equal the one-shot answer over the session's full fix
set.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

import numpy as np

import workloads
from repro.datasets import get_spec
from repro.serve import RecoveryRequest, ServeConfig
from repro.serve.request import assemble_sample
from repro.trajectory.dataset import make_batch

#: Check every 8th operation, but never fewer than this many per workload.
STRIDE = 8
MINIMUM = 64

Expected = Tuple[np.ndarray, np.ndarray, np.ndarray]  # segments, ratios, times


def subsample(count: int) -> List[int]:
    """The fixed operation indices the oracle re-derives."""
    stride = max(1, min(STRIDE, count // MINIMUM))
    return list(range(0, count, stride))


class Oracle:
    def __init__(self, bed) -> None:
        self._bed = bed
        self._ingest = {
            city.name: ServeConfig.for_spec(get_spec(city.dataset)).ingest()
            for city in bed.workload.cities}

    def expected(self, city: str, xy: np.ndarray, times: np.ndarray) -> Expected:
        """Solo recovery of one global-frame trace served by ``city``."""
        bed = self._bed
        local = RecoveryRequest(
            xy=workloads.to_local(bed.workload, city, xy), times=times)
        sample = assemble_sample(local, bed.networks[city], self._ingest[city])
        segments, ratios = bed.models[city].recover(make_batch([sample]))
        return segments[0], ratios[0], sample.target.times

    # ------------------------------------------------------------------
    @staticmethod
    def matches(expected: Expected, trajectory: Any) -> bool:
        """Bit-exact comparison with an in-process ``MatchedTrajectory``."""
        segments, ratios, times = expected
        return (np.array_equal(segments, trajectory.segments)
                and np.array_equal(ratios, trajectory.ratios)
                and np.array_equal(times, trajectory.times))

    @staticmethod
    def matches_http(expected: Expected, body: bytes,
                     time_shift: float = 0.0) -> bool:
        """Comparison with a ``POST /recover`` body.  ``time_shift`` moves
        the expected grid onto a replay's time origin (whole seconds, so
        the shift is exact in floats)."""
        segments, ratios, times = expected
        payload: Dict[str, Any] = json.loads(body)
        return (payload["segments"] == segments.tolist()
                and payload["ratios"] == [round(float(r), 6) for r in ratios]
                and payload["times"] == (times + time_shift).tolist())


def check(bed, outcome) -> Tuple[int, int]:
    """(checked, mismatched) over the window's fixed subsample.  A
    mismatched operation is marked failed."""
    workload = bed.workload
    oracle = Oracle(bed)
    checked = mismatched = 0

    def judge(op, good: bool) -> None:
        nonlocal checked, mismatched
        checked += 1
        if not good:
            mismatched += 1
            op.ok = False

    oneshot = outcome.oneshot if workload.sessions else outcome.ops
    http = workload.name.startswith("http")
    per_trace: Dict[int, Tuple[Expected, float]] = {}
    for index in subsample(len(workload.requests)):
        op, request = oneshot[index], workload.requests[index]
        if not op.ok:
            continue  # already a failed operation
        city = workload.city_of[index]
        if workload.trace_of is not None:
            # Replays of one hot trace share one expected answer.
            trace = workload.trace_of[index]
            if trace not in per_trace:
                per_trace[trace] = (oracle.expected(city, request.xy,
                                                    request.times),
                                    float(request.times[0]))
            expected, origin = per_trace[trace]
            judge(op, oracle.matches_http(
                expected, op.result, float(request.times[0]) - origin))
            continue
        expected = oracle.expected(city, request.xy, request.times)
        judge(op, oracle.matches_http(expected, op.result) if http
              else oracle.matches(expected, op.result.trajectory))

    # finalize ≡ one-shot over the full fix set, for every session.
    for op, session in zip(outcome.finalize, workload.sessions):
        if op.ok:
            expected = oracle.expected(session.city, session.xy, session.times)
            judge(op, oracle.matches(expected, op.result.trajectory))
    return checked, mismatched
