"""Geographic primitives: distances, projections, grids, spatial index."""

from .distance import (
    gaussian_weight,
    point_along_polyline,
    polyline_length,
    project_point_to_polyline,
)
from .grid import Grid
from .rtree import RTree

__all__ = [
    "gaussian_weight",
    "point_along_polyline",
    "polyline_length",
    "project_point_to_polyline",
    "Grid",
    "RTree",
]
