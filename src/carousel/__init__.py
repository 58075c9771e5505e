"""Common supporting lines of planar convex bodies and the weak carousel rule.

The package decides, for two compact convex bodies inside a convex
polygon, whether one body fits in the convex hull of the other together
with all polygon vertices but one; it computes the common supporting
lines of the pair, the sectors and boundary sweeps behind the
constructive decision procedure, generators for tight counterexample
families, and a seeded verification campaign with JSON and SVG output.
"""

from .bodies import (
    ContainmentResult,
    Disk,
    Ellipse,
    PointBody,
    PolygonBody,
    body_contains_point,
    body_in_polygon,
    contained_in_hull,
    support,
    supporting_line,
)
from .kernel import (
    ConvexPolygon,
    HalfPlane,
    Point,
    clip,
    convex_hull,
    point_in_polygon,
)
from .rule import (
    Certificate,
    ConstructiveTrace,
    Scene,
    Tolerances,
    check_carousel_bruteforce,
    check_carousel_constructive,
    cross_validate,
    verify_scene,
)
from .sectors import (
    BoundaryPoint,
    BoundarySweep,
    NormalArc,
    SectorRegion,
    boundary_exit,
    sweep,
)
from .tangency import (
    CslArcs,
    CslIdentical,
    CslLines,
    OrientedSupportLine,
    adjacent_pairs,
    common_supporting_lines,
    support_difference,
)
from .constructions import (
    FuzzConfig,
    SharpnessInstance,
    generate_corollary_scene,
    generate_fuzz_scene,
    generate_integer_scene,
    plucker_bound,
    sharpness_construct,
    sharpness_validate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
