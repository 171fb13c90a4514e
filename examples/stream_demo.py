"""Streaming recovery demo: open → append fix-by-fix → finalize.

    PYTHONPATH=src python examples/stream_demo.py

End to end this

1. loads the synthetic Chengdu dataset and builds a small RNTrajRec,
2. opens a streaming session per test trace and feeds its raw GPS fixes
   one at a time through a :class:`~repro.stream.StreamingRecoveryService`
   built on a one-shot :class:`~repro.serve.RecoveryService` (whose
   ingest grid and decode slots every session uses), printing each
   :class:`~repro.stream.StreamUpdate` — watch the grid grow, the commit
   boundary advance behind the horizon, and the occasional
   provisional-suffix revision,
3. calls ``finalize()`` and verifies the result is bit-identical to the
   one-shot ``recover_trajectories`` of the same fixes (the correctness
   anchor of ``repro.stream``), and
4. demonstrates the bounded session store: a capacity-1 service sheds a
   second ``open`` with ``SessionOverloaded`` (HTTP 429 on the wire) and
   logs TTL evictions for abandoned sessions.
"""

import numpy as np

from repro.core import RNTrajRec
from repro.datasets import load_dataset
from repro.experiments import small_model_config
from repro.serve import RecoveryService, ServeConfig
from repro.stream import (
    SessionOverloaded,
    StoreConfig,
    StreamingRecoveryService,
)
from repro.trajectory import make_batch

NUM_SESSIONS = 3


def main() -> None:
    print("Loading synthetic Chengdu dataset ...")
    data = load_dataset("chengdu", num_trajectories=60)
    model = RNTrajRec(data.network, small_model_config(32)).eval()

    oneshot = RecoveryService.from_model(model,
                                         ServeConfig.for_spec(data.spec))
    service = StreamingRecoveryService(oneshot, commit_horizon=4)
    print(f"Streaming {NUM_SESSIONS} sessions "
          f"(commit horizon {service.commit_horizon} grid steps)\n")

    mismatches = 0
    for index, sample in enumerate(data.test[:NUM_SESSIONS]):
        raw = sample.raw_low
        sid = service.open(hour=sample.hour, holiday=sample.holiday)
        print(f"session {index} ({sid[:8]}…): {len(raw)} fixes")
        for j in range(len(raw)):
            update = service.append(sid, raw.xy[j:j + 1], raw.times[j:j + 1])
            if update.trajectory is None:
                print(f"  fix {j:2d}: buffered (a grid needs two fixes)")
                continue
            revised = (f" revised from step {update.revised_from}"
                       if update.revised_from >= 0 else "")
            print(f"  fix {j:2d}: grid {update.grid_length:3d} steps, "
                  f"{update.committed_steps:3d} committed, decoded "
                  f"{update.decoded_steps:2d} / skipped "
                  f"{update.skipped_steps:3d}, "
                  f"{update.latency_ms:6.2f} ms{revised}")
        response = service.finalize(sid)

        direct = model.recover_trajectories(make_batch([sample]))[0]
        same = (np.array_equal(direct.segments, response.trajectory.segments)
                and np.allclose(direct.ratios, response.trajectory.ratios)
                and np.array_equal(direct.times, response.trajectory.times))
        mismatches += int(not same)
        print(f"  finalize: {len(response.trajectory)} steps in "
              f"{response.latency_ms:.2f} ms — identical to one-shot "
              f"recovery: {same}\n")
    if mismatches:
        raise SystemExit(f"FAIL: {mismatches}/{NUM_SESSIONS} finalized "
                         "sessions differ from one-shot recovery")

    print("Bounded session store: capacity 1, TTL 60 s")
    tiny = StreamingRecoveryService(oneshot, store=StoreConfig(
        capacity=1, ttl_seconds=60.0, evict_idle_seconds=3600.0))
    first = tiny.open()
    try:
        tiny.open()
        raise SystemExit("FAIL: second open should have been shed")
    except SessionOverloaded as exc:
        print(f"  second open shed with SessionOverloaded: {exc}")
    tiny.store.remove(first)

    stats = service.stats()
    print("\nservice.stats():")
    for key in ("streaming_requests", "oneshot_requests",
                "revision_rate_by_model", "commit_horizon", "sessions"):
        print(f"  {key:<24}: {stats[key]}")
    oneshot.close()


if __name__ == "__main__":
    main()
