"""Spindle: r-ball convex bodies in the three constant-curvature planes."""

from .geometry import (
    EUCLIDEAN,
    GEOMETRIES,
    HYPERBOLIC,
    SPHERICAL,
    Circle,
    Geometry,
    Point,
    SpindleError,
    Tangent,
    circle_circle_intersection,
    distance,
    embed,
    exp_map,
    from_polar,
    log_dir,
    midpoint,
    origin,
    perp,
    rotate_tangent,
    signed_distance_to_geodesic,
    smallest_enclosing_disk,
)
from .regions import (
    Arc,
    CapDomain,
    DiskPolygon,
    ball_hull,
    cap_domain,
    load_region,
    r_segment,
    save_region,
)
from .measure import (
    Incircle,
    ThicknessWitness,
    area,
    area_monte_carlo,
    disk_area,
    incircle,
    segment_area,
    thickness,
)
from .extremal import (
    DiskHexagon,
    DiskTriangle,
    regular_disk_hexagon,
    regular_disk_triangle,
    triangle_inradius,
    triangle_inradius_partials,
)
from .harness import (
    VerifyConfig,
    check_extremal_bounds,
    hexagon_margins,
    inscribed_cap_domain,
    monotonicity_sweep,
    run_verification,
    sample_disk_polygon,
)
from .render import render_svg

__version__ = "0.1.0"
