"""Request-level LRU result cache keyed by quantized input trajectories.

GPS devices re-report near-identical traces (stopped vehicles, retries,
duplicated uploads); quantizing positions and timestamps before hashing
turns those into cache hits without ever returning a result for a
meaningfully different input.  Keys also fold in the environmental context
and the ε_ρ grid, and the shard files each entry under the model generation
tag that computed it, so a hot-swap never serves stale recoveries.  Hits are
counted by the shard's :class:`~repro.serve.ServingTelemetry`, not here.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

import numpy as np


def quantize_key(xy, times, xy_precision: float = 0.1,
                 time_precision: float = 0.1, extra: Tuple = ()) -> Hashable:
    """A hashable key for a raw trace, quantized to the given precisions.

    Times are keyed relative to the first fix: the model only sees relative
    times plus the hour-of-day context, so two traces offset by whole
    seconds are equivalent requests.

    ``xy`` is an array or a sequence of (x, y) pairs, ``times`` an array or
    a sequence of floats; the key is ``(extra, shape, positions, times)``
    with each quantum rounded half to even and packed as native int64
    bytes, one pass over each.  A quantum past int64 raises
    ``OverflowError``.
    """
    if isinstance(xy, np.ndarray):
        shape, values = xy.shape, xy.ravel().tolist()
    else:
        shape, values = (len(xy), 2), [v for point in xy for v in point]
    if isinstance(times, np.ndarray):
        times = times.tolist()
    t0 = float(times[0])
    qxy = array("q", [round(v / xy_precision) for v in values])
    qt = array("q", [round((t - t0) / time_precision) for t in times])
    return (extra, shape, qxy.tobytes(), qt.tobytes())


class LRUCache:
    """A thread-safe LRU mapping."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                return self._store[key]
            return None

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)
