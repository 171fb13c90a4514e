"""Online serving demo: checkpoint → RecoveryService → concurrent requests.

    PYTHONPATH=src python examples/serve_demo.py

End to end this

1. trains a small RNTrajRec on the synthetic Chengdu dataset and saves a
   serving bundle (checkpoint + config sidecar),
2. starts a :class:`~repro.serve.RecoveryService` from that bundle (the
   model registry rebuilds the model, restores parameters *and* running
   statistics, and pins the shared road network / grid / reachability
   structures),
3. submits 24 concurrent raw-GPS requests through the continuous-batching
   scheduler,
4. verifies every recovered trajectory is identical to a direct
   ``RNTrajRec.recover_trajectories`` call on the same input, and
5. prints ``stats()`` — slot occupancy > 1 shows requests decoded side by side.
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
from repro.serve import RecoveryRequest, RecoveryService, ServeConfig, save_model_bundle
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
            ServeConfig.for_dataset(data, max_batch_size=16),
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

        # Re-submitting a request demonstrates the quantized-input cache.
        again = service.recover(requests[0])
        print(f"  resubmitted {again.request_id}: cached={again.cached} "
              f"({again.latency_ms:.2f} ms)")

        stats = service.stats()
        print("\nservice.stats():")
        for key, value in stats.items():
            print(f"  {key:<22}: {value}")
        if stats["max_batch_occupancy"] <= 1:
            raise SystemExit("FAIL: requests never shared the slot table "
                             "(max_batch_occupancy <= 1)")
        print(f"\nThe engine decoded up to "
              f"{stats['max_batch_occupancy']} requests per sweep "
              f"(mean occupancy {stats['mean_batch_occupancy']}).")
        service.close()


if __name__ == "__main__":
    main()
