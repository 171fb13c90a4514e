"""Online serving demo: checkpoint → RecoveryService → concurrent requests.

    PYTHONPATH=src python examples/serve_demo.py

End to end this

1. trains a small RNTrajRec on the synthetic Chengdu dataset and saves a
   serving bundle (checkpoint + config sidecar),
2. starts a :class:`~repro.serve.RecoveryService` from that bundle (the
   model registry rebuilds the model, restores parameters *and* running
   statistics, and pins the shared road network / grid / reachability
   structures),
3. submits 24 concurrent raw-GPS requests through the decode scheduler,
4. verifies every recovered trajectory is identical to a direct
   ``RNTrajRec.recover_trajectories`` call on the same input,
5. submits a short request behind three long ones and checks it resolves
   first (the scheduler serves the earliest solo finish, not the earliest
   arrival) with every output still equal to direct recovery, and
6. prints ``stats()`` — ``engine.preemptions`` and ``engine.queue_wait_ms_*``
   show where a request waited.
"""

import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core import RNTrajRec
from repro.train import Trainer
from repro.datasets import load_dataset
from repro.experiments import quick_train_config, small_model_config
from repro.serve import (
    RecoveryRequest,
    RecoveryService,
    ServeConfig,
    assemble_sample,
    save_model_bundle,
)
from repro.trajectory import make_batch

NUM_REQUESTS = 24


def main() -> None:
    print("Loading synthetic Chengdu dataset ...")
    data = load_dataset("chengdu", num_trajectories=240)

    model = RNTrajRec(data.network, small_model_config(32))
    print(f"Training ({model.num_parameters():,} parameters) ...")
    Trainer(model, quick_train_config(epochs=3)).fit(data.train)
    model.eval()

    with tempfile.TemporaryDirectory() as tmp:
        prefix = str(Path(tmp) / "chengdu_model")
        ckpt, sidecar = save_model_bundle(model, prefix)
        print(f"Saved bundle {ckpt} (+ {Path(sidecar).name})")

        print("Starting RecoveryService from the saved checkpoint ...")
        service = RecoveryService.from_checkpoint(
            prefix, data.network,
            ServeConfig.for_dataset(data),
        )
        _, served_model = service.registry.active()

        pool = data.test + data.val
        samples = [pool[i % len(pool)] for i in range(NUM_REQUESTS)]
        requests = [
            RecoveryRequest(s.raw_low.xy, s.raw_low.times, hour=s.hour,
                            holiday=s.holiday, request_id=f"req-{i:02d}")
            for i, s in enumerate(samples)
        ]

        print(f"Submitting {NUM_REQUESTS} concurrent raw-GPS requests ...")
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as executor:
            futures = list(executor.map(service.submit, requests))
        responses = [future.result(timeout=300.0) for future in futures]
        elapsed = time.perf_counter() - start
        print(f"  recovered {len(responses)} trajectories in {elapsed:.2f}s")

        print("Verifying service outputs against direct recover_trajectories ...")
        mismatches = 0
        for sample, response in zip(samples, responses):
            direct = served_model.recover_trajectories(make_batch([sample]))[0]
            same = (np.array_equal(direct.segments, response.trajectory.segments)
                    and np.allclose(direct.ratios, response.trajectory.ratios)
                    and np.array_equal(direct.times, response.trajectory.times))
            mismatches += int(not same)
        if mismatches:
            raise SystemExit(f"FAIL: {mismatches}/{NUM_REQUESTS} served trajectories "
                             "differ from direct recovery")
        print(f"  all {NUM_REQUESTS} served trajectories identical to direct recovery")

        # A decode's length is known at ingest, so a short request does not
        # wait behind long ones that merely arrived first.
        print("Submitting a 2-fix request behind three full-length ones ...")
        long_samples = pool[NUM_REQUESTS:NUM_REQUESTS + 3]
        tail = pool[NUM_REQUESTS + 3]
        burst = [
            RecoveryRequest(s.raw_low.xy, s.raw_low.times, hour=s.hour,
                            holiday=s.holiday, request_id=f"long-{i}")
            for i, s in enumerate(long_samples)
        ] + [RecoveryRequest(tail.raw_low.xy[:2], tail.raw_low.times[:2],
                             hour=tail.hour, holiday=tail.holiday,
                             request_id="short")]
        burst_samples = long_samples + [assemble_sample(
            burst[-1], data.network, service.config.ingest())]
        order = []
        futures = []
        for request in burst:
            future = service.submit(request)
            future.add_done_callback(
                lambda _, rid=request.request_id: order.append(rid))
            futures.append(future)
        burst_responses = [future.result(timeout=300.0) for future in futures]
        print(f"  resolved in order: {', '.join(order)}")
        if order[0] != "short":
            raise SystemExit("FAIL: the short request waited behind the "
                             "long ones")
        for sample, response in zip(burst_samples, burst_responses):
            direct = served_model.recover_trajectories(make_batch([sample]))[0]
            if not (np.array_equal(direct.segments, response.trajectory.segments)
                    and np.array_equal(direct.ratios, response.trajectory.ratios)):
                raise SystemExit(f"FAIL: {response.request_id} differs from "
                                 "direct recovery")
        print("  all four identical to direct recovery")

        stats = service.stats()
        print("\nservice.stats():")
        for key, value in stats.items():
            print(f"  {key:<22}: {value}")
        engine = stats["engine"]
        print(f"\nThe scheduler preempted a running decode "
              f"{engine['preemptions']} time(s); requests waited "
              f"{engine['queue_wait_ms_p50']} ms (p50) / "
              f"{engine['queue_wait_ms_p95']} ms (p95) in its queue.")
        service.close()


if __name__ == "__main__":
    main()
