"""Request-level LRU result cache keyed by quantized input trajectories.

GPS devices re-report near-identical traces (stopped vehicles, retries,
duplicated uploads); quantizing positions and timestamps before hashing
turns those into cache hits without ever returning a result for a
meaningfully different input.  Keys also fold in the environmental context
and the active model name, so a hot-swap never serves stale recoveries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

import numpy as np


def quantize_key(xy: np.ndarray, times: np.ndarray, xy_precision: float = 0.1,
                 time_precision: float = 0.1, extra: Tuple = ()) -> Hashable:
    """A hashable key for a raw trace, quantized to the given precisions.

    Times are keyed relative to the first fix: the model only sees relative
    times plus the hour-of-day context, so two traces offset by whole
    seconds are equivalent requests.
    """
    xy = np.asarray(xy, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    qxy = np.round(xy / xy_precision).astype(np.int64)
    qt = np.round((times - times[0]) / time_precision).astype(np.int64)
    return (extra, qxy.shape, qxy.tobytes(), qt.tobytes())


class LRUCache:
    """A thread-safe LRU mapping with hit/miss accounting."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                return self._store[key]
            self.misses += 1
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

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
