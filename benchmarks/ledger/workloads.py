"""Seeded workload generator for the perf ledger.

Every input the benchmark sends is made here from ``--seed`` alone: the
served topology, the GPS traces, their send order and (for the open
loops) their due times.  The program under test receives only the
generated inputs.

Two rules keep the oracle valid:

* every fix lies inside its shard's bounding box, so nothing is
  dead-lettered;
* every fix sits on whole metres in its city's local frame.  The encoder's
  sub-graph memo keys points on ``round(x), round(y)`` but builds from the
  first exact point seen (the ROADMAP purity wart), so two distinct points
  in one 1 m bucket would make a response depend on cache history.  On
  whole metres a bucket holds exactly one point and the response is a pure
  function of the request.  :func:`check_memo_safe` enforces it; the guard
  can go once the purity fix lands.

Long routes come from a random walk over ``RoadNetwork.out_neighbors``
(the generator's turn restrictions already forbid instant U-turns, so the
walk is non-backtracking).  ``TrajectorySimulator`` routes with a
perturbed Dijkstra, which does not finish long traces on the 11.9k-segment
metro in minutes; the walk makes them in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import ShardSpec
from repro.datasets import get_spec
from repro.roadnet import RoadNetwork, generate_city
from repro.serve import RecoveryRequest

WORKLOADS = ("http-cold", "http-hot", "metro-burst", "stream-mixed")

#: ε_τ / ε_ρ: one fix every 8 grid steps, as in the dataset recipes.
KEEP_EVERY = 8
#: Walk speed (m/s) and GPS noise (σ, metres; clipped at 3σ < bbox margin).
SPEED = 8.0
NOISE_STD = 10.0
#: Empty corridor between side-by-side cities (> 2x the routing margin).
GAP = 500.0

# Operations per second of ``--seconds``: each is this runner shape's
# measured steady rate, so a window lasts about ``--seconds``.  Counts,
# not wall-clock windows, bound every run, so the program's own counters
# repeat exactly between commits.
HTTP_COLD_RPS = 200
HTTP_HOT_RPS = 600
HTTP_COLD_WARMUP = 200
HTTP_HOT_TRACES = 64
HTTP_HOT_WARMUP = 2 * HTTP_HOT_TRACES
METRO_BURST = 8            # requests per burst
METRO_PERIOD = 0.5         # seconds between bursts
METRO_FIXES = (2, 3, 5, 9)  # -> 9/17/33/65 ε_ρ steps, cycling
METRO_WARMUP = 4
STREAM_SESSIONS = 8        # concurrent sessions per round
STREAM_FIXES = 32          # appends per session, then finalize
STREAM_ROUND_SECONDS = 3.0  # one round of 8 x 32 appends takes about this
STREAM_ONESHOT_RPS = 10    # thread B's fixed one-shot rate


@dataclass(frozen=True)
class City:
    """One served city: a dataset recipe placed in the global frame.

    ``block`` overrides the recipe's street spacing (40 m turns chengdu's
    346 segments into the ~11.9k-segment metro); such a city is served as
    a custom network with an explicit bbox.
    """

    name: str
    dataset: str
    origin: Tuple[float, float] = (0.0, 0.0)
    block: Optional[float] = None

    def network(self) -> RoadNetwork:
        config = get_spec(self.dataset).city
        if self.block is not None:
            config = replace(config, block=self.block)
        return generate_city(config)

    def shard_spec(self, network: RoadNetwork, bundle: str,
                   backend: str) -> ShardSpec:
        """The shard serving this city.  The bbox comes from the generated
        network's actual bounds: ``generate_city`` rounds the extent up to
        a multiple of the block, so the nominal rectangle can under-cover."""
        x0, y0, x1, y1 = network.bounds()
        ox, oy = self.origin
        margin = 60.0
        return ShardSpec(
            name=self.name, dataset=self.dataset if self.block is None else None,
            origin=self.origin, bundle=bundle, backend=backend,
            bbox=(ox + x0 - margin, oy + y0 - margin,
                  ox + x1 + margin, oy + y1 + margin))


@dataclass
class Session:
    """One streaming trip: fixes appended one at a time, then finalized."""

    city: str
    xy: np.ndarray      # (n, 2) global frame
    times: np.ndarray   # (n,)


@dataclass
class Workload:
    """Everything one run sends, in send order."""

    name: str
    cities: List[City]
    networks: Dict[str, RoadNetwork]   # by city name, as generated
    warmup: List[RecoveryRequest]
    requests: List[RecoveryRequest]
    #: city name of each measured request (oracle and replay need it).
    city_of: List[str]
    #: open loops: seconds after window start each request is due.
    due: Optional[np.ndarray] = None
    sessions: List[Session] = field(default_factory=list)
    #: http-hot: index of the hot trace each measured request replays.
    trace_of: Optional[List[int]] = None


def _side_by_side(datasets: Tuple[str, ...]) -> List[City]:
    cities, x = [], 0.0
    for name in datasets:
        cities.append(City(name=name, dataset=name, origin=(x, 0.0)))
        x += get_spec(name).city.width + GAP
    return cities


def interval_of(city: City) -> float:
    return float(get_spec(city.dataset).simulation.sample_interval)


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def walk_trace(network: RoadNetwork, rng: np.random.Generator, fixes: int,
               interval: float) -> Tuple[np.ndarray, np.ndarray]:
    """(xy, times-from-zero) of ``fixes`` noisy whole-metre GPS fixes, one
    every ``KEEP_EVERY`` ε_ρ steps, along a random walk over the network."""
    times = KEEP_EVERY * interval * np.arange(fixes)
    needed = SPEED * float(times[-1]) + 1.0
    segments = network.segments
    while True:
        route = [int(rng.integers(network.num_segments))]
        total = segments[route[0]].length
        while total < needed:
            options = network.out_neighbors[route[-1]]
            if not options:
                break  # dead end: start over somewhere else
            route.append(int(options[int(rng.integers(len(options)))]))
            total += segments[route[-1]].length
        if total >= needed:
            break
    lengths = np.array([segments[s].length for s in route])
    starts = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    along = SPEED * times
    index = np.clip(np.searchsorted(starts, along, side="right") - 1,
                    0, len(route) - 1)
    xy = np.array([
        network.position(route[i], min((d - starts[i]) / lengths[i], 1.0))
        for i, d in zip(index, along)])
    noise = np.clip(rng.normal(0.0, NOISE_STD, xy.shape),
                    -3 * NOISE_STD, 3 * NOISE_STD)
    return np.round(xy + noise), times


def check_memo_safe(xy_local: np.ndarray) -> None:
    """No two distinct points may share a 1 m sub-graph memo bucket; on
    whole metres every point *is* its bucket (see the module docstring)."""
    if not np.array_equal(np.round(xy_local), xy_local):
        raise AssertionError("workload fixes must sit on whole metres")


class _TraceSource:
    """Unique whole-metre traces per city, in the global frame."""

    def __init__(self, cities: List[City], rng: np.random.Generator) -> None:
        self.rng = rng
        self.cities = {city.name: city for city in cities}
        self.networks = {city.name: city.network() for city in cities}
        self._seen: set = set()
        self._serial = 0

    def trace(self, city_name: str, fixes: int) -> Tuple[np.ndarray, np.ndarray]:
        city, network = self.cities[city_name], self.networks[city_name]
        while True:
            xy, times = walk_trace(network, self.rng, fixes, interval_of(city))
            key = (city_name, xy.tobytes())
            if key not in self._seen:  # distinct traces -> distinct cache keys
                self._seen.add(key)
                break
        check_memo_safe(xy)
        return xy + np.asarray(city.origin), times

    def request(self, city_name: str, fixes: int) -> RecoveryRequest:
        xy, times = self.trace(city_name, fixes)
        return self.stamp(xy, times)

    def stamp(self, xy: np.ndarray, times: np.ndarray) -> RecoveryRequest:
        """A request with a fresh id and a fresh whole-second time origin
        (whole seconds keep the cache's time rebasing exact in floats)."""
        self._serial += 1
        return RecoveryRequest(xy=xy, times=times + 1000.0 + self._serial,
                               request_id=f"r{self._serial:06d}")


# ----------------------------------------------------------------------
# The four workloads
# ----------------------------------------------------------------------
def _http_cold(rng, seconds: float) -> Workload:
    cities = _side_by_side(("chengdu", "porto"))
    source = _TraceSource(cities, rng)
    names = [city.name for city in cities]
    count = max(16, round(HTTP_COLD_RPS * seconds))
    warmup = [source.request(names[i % 2], 4)
              for i in range(min(HTTP_COLD_WARMUP, count))]
    city_of = [names[i % 2] for i in range(count)]
    requests = [source.request(name, 4) for name in city_of]
    return Workload("http-cold", cities, source.networks, warmup, requests,
                    city_of)


def _http_hot(rng, seconds: float) -> Workload:
    cities = _side_by_side(("chengdu", "porto"))
    source = _TraceSource(cities, rng)
    names = [city.name for city in cities]
    hot = [source.trace(names[i % 2], 4) for i in range(HTTP_HOT_TRACES)]
    count = max(HTTP_HOT_TRACES, round(HTTP_HOT_RPS * seconds))
    # Replays differ only in time origin: the result cache keys on
    # relative times and rebases the cached grid, so every replay hits.
    warmup = [source.stamp(*hot[i % len(hot)]) for i in range(HTTP_HOT_WARMUP)]
    trace_of = [i % len(hot) for i in range(count)]
    requests = [source.stamp(*hot[t]) for t in trace_of]
    return Workload("http-hot", cities, source.networks, warmup, requests,
                    [names[t % 2] for t in trace_of], trace_of=trace_of)


def _metro_burst(rng, seconds: float, block: float) -> Workload:
    cities = [City(name="metro", dataset="chengdu", block=block)]
    source = _TraceSource(cities, rng)
    bursts = max(2, round(seconds / METRO_PERIOD))
    count = bursts * METRO_BURST
    warmup = [source.request("metro", METRO_FIXES[i % len(METRO_FIXES)])
              for i in range(METRO_WARMUP)]
    requests = [source.request("metro", METRO_FIXES[i % len(METRO_FIXES)])
                for i in range(count)]
    due = METRO_PERIOD * (np.arange(count) // METRO_BURST)
    return Workload("metro-burst", cities, source.networks, warmup, requests,
                    ["metro"] * count, due=due.astype(np.float64))


def _stream_mixed(rng, seconds: float) -> Workload:
    cities = [City(name="chengdu", dataset="chengdu")]
    source = _TraceSource(cities, rng)
    total = max(2, round(seconds * STREAM_SESSIONS / STREAM_ROUND_SECONDS))
    sessions = []
    for _ in range(total):
        request = source.request("chengdu", STREAM_FIXES)
        sessions.append(Session("chengdu", request.xy, request.times))
    # Thread B runs beside the appends for as long as they are expected to
    # last; a fixed count keeps the engine counters repeatable.
    count = max(4, round(STREAM_ONESHOT_RPS * seconds))
    warmup = [source.request("chengdu", 4) for _ in range(METRO_WARMUP)]
    requests = [source.request("chengdu", 4) for _ in range(count)]
    due = np.arange(count) / float(STREAM_ONESHOT_RPS)
    return Workload("stream-mixed", cities, source.networks, warmup, requests,
                    ["chengdu"] * count, due=due, sessions=sessions)


def generate(name: str, seed: int, seconds: float,
             metro_block: float) -> Workload:
    """The named workload for ``seed``, sized for a ``seconds`` window."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    if name == "http-cold":
        return _http_cold(rng, seconds)
    if name == "http-hot":
        return _http_hot(rng, seconds)
    if name == "metro-burst":
        return _metro_burst(rng, seconds, metro_block)
    return _stream_mixed(rng, seconds)


def to_local(workload: Workload, city_name: str, xy: np.ndarray) -> np.ndarray:
    """Global-frame points in ``city_name``'s own frame (what the shard's
    ``localize`` does; the oracle decodes in the city frame)."""
    origins: Dict[str, Tuple[float, float]] = {
        city.name: city.origin for city in workload.cities}
    return xy - np.asarray(origins[city_name])
