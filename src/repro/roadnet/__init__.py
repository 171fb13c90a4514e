"""Road network substrate: model, generator, shortest paths, artifacts."""

from .generator import CityConfig, generate_city
from .network import NUM_ROAD_LEVELS, RoadNetwork, RoadSegment
from .shortest_path import ShortestPathEngine
# Imported last: artifacts reaches into repro.core submodules, which in
# turn import repro.roadnet.network — every name above must already be
# bound when that cycle re-enters this partially initialized package.
from .artifacts import CityArtifacts

__all__ = [
    "CityArtifacts",
    "CityConfig",
    "generate_city",
    "NUM_ROAD_LEVELS",
    "RoadNetwork",
    "RoadSegment",
    "ShortestPathEngine",
]
