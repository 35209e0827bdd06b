"""Largest-scaled-copy placement of rectilinear polygons, exact arithmetic."""

from .geometry import (AxisRect, DegenerateEdge, NonPositiveScale,
                       NonRectilinear, OrthoPolygon, Placement, Point,
                       PolygonError, Rational, SelfIntersecting,
                       TooFewVertices, load_polygon, normalize_center,
                       polygon_from_obj, polygon_to_obj, rat, rat_str,
                       save_polygon, transform, validate_polygon)
from .hardness import (HardInstance, NonBinaryVector, OutOfUniverse,
                       brute_solve, gen_average, gen_foursum, gen_ov)
from .solver import (PlacementResult, SolveStats, contains_fixed, max_scale,
                     max_scale_baseline, max_scale_x, verify_containment)

__version__ = "0.1.0"
