"""Extremal bodies of given width among r-convex sets.

The regular disk triangle T(w, r) is the intersection of three radius-r
disks arranged with threefold symmetry so that the body has width w; it
minimizes both inradius and area among r-convex bodies of that width.  Its
inradius has one closed form, differentiable in (w, r) and divided through
by sn r so that it keeps its digits at every r, and so has its area
(triangle_area), with no triangle built; the six-arc family built by
`regular_disk_hexagon` interpolates between the triangle and the single
disk while keeping the width fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .geometry import (
    Geometry,
    Point,
    SpindleError,
    _negate,
    exp_map,
    origin,
    rotate_tangent,
    tangent_basis,
)
from .measure import _excess, segment_area
from .regions import DiskPolygon, ball_hull, make_arc

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
_SIN_THIRD = math.sqrt(0.75)  # sin(2pi/3)
_RHO_SLACK = 1e-9  # length: a hexagon's rho may leave [rho0, w - rho0] by this much


def _check_width_radius(w: float, r: float, g: Geometry) -> None:
    g.check_radius(r)
    if not (0.0 < w <= r) or not math.isfinite(w):
        raise SpindleError("BAD_RANGE", f"width must satisfy 0 < w <= r, got w={w} r={r}")


def triangle_inradius(w: float, r: float, g: Geometry) -> float:
    """Inradius of the regular disk triangle of width w and arc radius r:
    (w - x) / 2, where r + x = avers((4 vers r - vers(r - w)) / 3)."""
    _check_width_radius(w, r, g)
    tau = _excess_tangent(w, r, g)[1]
    return 0.5 * (w - g.asn(2.0 * tau / (1.0 + g.kappa * tau * tau)))  # sn x from tn(x/2)


def _excess_tangent(w: float, r: float, g: Geometry) -> tuple[float, float]:
    # r + x, the sum of the vertex and arc-center distances from the incenter,
    # has vers(r + x) - vers r = sn r sn x + cs r vers x = delta by the law of
    # cosines there, delta = 2 sn h sn(r - h) / 3 with h = w / 2.  Divided by
    # sn r, this is (2c - kappa k) tau^2 + 2 tau = k in tau = tn(x/2), with
    # c = 1 / tn r and k = delta / sn r = (2/3) / (1 / tn h + 1 / tn(r - h)):
    # positive terms, none of size sn r, and a rationalized root, so nothing
    # overflows or cancels at any w <= r.  Returns (c, tau).
    c, h = 1.0 / g.tn(r), 0.5 * w
    k = (2.0 / 3.0) / (1.0 / g.tn(h) + 1.0 / g.tn(r - h))
    return c, k / (1.0 + math.sqrt(1.0 + k * (2.0 * c - g.kappa * k)))


def triangle_inradius_partials(w: float, r: float, g: Geometry) -> tuple[float, float]:
    """(d/dw, d/dr) of triangle_inradius; the w-partial is positive and the
    r-partial negative on the open domain, and the w-partial is 1/2, up to
    rounding, on the Reuleaux edge w = r."""
    _check_width_radius(w, r, g)
    # vers' = sn, so d avers(y) = dy / sn(avers y): the partials are
    # (1 - q / s) / 2 and (1 - (4 - q) / s) / 2 with s = 3 sn(r + x) / sn r
    # and q = sn(r - w) / sn r = tn u / (cs w (tn u + tn w)), u = r - w; past
    # the float range of cs w (H, w > 710), q is below the least double
    c, tau = _excess_tangent(w, r, g)
    kt2 = g.kappa * tau * tau
    s = 3.0 * (1.0 - kt2 + 2.0 * c * tau) / (1.0 + kt2)
    tn_u = g.tn(r - w)
    try:
        q = tn_u / (g.cs(w) * (tn_u + g.tn(w)))
    except OverflowError:
        q = 0.0
    return 0.5 * (1.0 - q / s), 0.5 * (1.0 - (4.0 - q) / s)


def triangle_area(w: float, r: float, g: Geometry) -> float:
    """Area of the regular disk triangle of width w and arc radius r, in
    closed form: the equilateral geodesic triangle on its vertices plus
    three circular segments.

    The vertices lie at a = w - rho0 from the incenter, 2pi/3 apart.  Each
    of the three isosceles pieces about the incenter has tan(kappa A / 2) =
    kappa T sin(2pi/3) / (1 + kappa T cos(2pi/3)) with T = tn(a/2)^2, tn =
    sn / cs (a^2 sin(2pi/3) / 2 when flat), with no cancellation on small
    triangles.  A side s has vers s = 1.5 sn(a)^2, so each arc's central
    angle phi, opposite s in the isosceles triangle of sides r, r, s, is
    taken in half-angle form, sin(phi/2) = sn(s/2) / sn(r) = sqrt(3)/2
    sn(a) / sn(r).
    """
    sn_r = g.sn_radius(r)  # a < w <= r, so sn a is in range too
    a = w - triangle_inradius(w, r, g)
    tn = g.tn(0.5 * a)
    big_t = tn * tn
    phi = 2.0 * math.asin(min(1.0, _SIN_THIRD * g.sn(a) / sn_r))
    return 3.0 * (_excess(_SIN_THIRD * big_t, 1.0 - 0.5 * g.kappa * big_t, g)
                  + segment_area(phi, r, g))


@dataclass(frozen=True)
class DiskTriangle:
    """Regular disk triangle with its construction data."""

    geometry: Geometry
    w: float
    r: float
    rho0: float
    incenter: Point
    region: DiskPolygon


def regular_disk_triangle(
    w: float, r: float, g: Geometry, center: Optional[Point] = None, angle: float = 0.0
) -> DiskTriangle:
    """Build the regular disk triangle of width w from radius-r arcs.

    The three vertices sit at distance w - rho0 from the incenter and the
    three arc centers at distance r - rho0, each center aligned with one
    vertex; the arc around center i joins the other two vertices.
    """
    _check_width_radius(w, r, g)
    g.sn_radius(r)
    rho0 = triangle_inradius(w, r, g)
    p = center if center is not None else origin(g)
    e1 = tangent_basis(p, g)[0]
    dirs = [rotate_tangent(p, e1, angle + i * TWO_THIRDS_PI, g) for i in range(3)]
    verts = [exp_map(p, u, w - rho0, g) for u in dirs]
    cents = [exp_map(p, u, r - rho0, g) for u in dirs]
    # arc from vertex i to vertex i+1 is the one opposite vertex i+2,
    # centered there
    arcs = tuple(
        make_arc(cents[(i + 2) % 3], r, verts[i], verts[(i + 1) % 3], g)
        for i in range(3)
    )
    region = DiskPolygon(g, r, arcs)
    return DiskTriangle(g, w, r, rho0, p, region)


@dataclass(frozen=True)
class DiskHexagon:
    """Six-arc constant-width body between the triangle and the disk."""

    geometry: Geometry
    w: float
    r: float
    rho: float
    apexes: tuple[Point, ...]
    anchors: tuple[Point, ...]
    region: DiskPolygon


def regular_disk_hexagon(w: float, r: float, rho: float, g: Geometry) -> DiskHexagon:
    """Width-w body of the threefold-symmetric six-arc family.

    Three apex points at distance w - rho from the center alternate with
    three anchor points at distance rho on the opposite rays; the region is
    the r-hull of the six.  rho = triangle inradius collapses it to the
    triangle; rho = w/2 makes it most disk-like.
    """
    _check_width_radius(w, r, g)
    g.sn_radius(r)
    rho0 = triangle_inradius(w, r, g)
    if not (rho0 - _RHO_SLACK <= rho <= w - rho0 + _RHO_SLACK):
        raise SpindleError(
            "BAD_RANGE", "rho must lie between the triangle inradius and w minus it"
        )
    p = origin(g)
    g.check_radius(max(w - rho, rho), "hexagon reach")
    e1 = tangent_basis(p, g)[0]
    dirs = [rotate_tangent(p, e1, i * TWO_THIRDS_PI, g) for i in range(3)]
    apexes = tuple(exp_map(p, u, w - rho, g) for u in dirs)
    anchors = tuple(exp_map(p, _negate(u), rho, g) for u in dirs)
    region = ball_hull(list(apexes) + list(anchors), r, g)
    return DiskHexagon(g, w, r, rho, apexes, anchors, region)
