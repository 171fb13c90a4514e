"""Geographic primitives: distances, projections, grids, spatial index."""

from .distance import (
    EARTH_RADIUS_M,
    LocalProjection,
    gaussian_weight,
    haversine,
    point_along_polyline,
    polyline_length,
    project_point_to_polyline,
)
from .grid import Grid
from .rtree import RTree

__all__ = [
    "EARTH_RADIUS_M",
    "LocalProjection",
    "gaussian_weight",
    "haversine",
    "point_along_polyline",
    "polyline_length",
    "project_point_to_polyline",
    "Grid",
    "RTree",
]
