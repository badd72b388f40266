"""Extremal bodies of given width among r-convex sets.

The regular disk triangle T(w, r) is the intersection of three radius-r
disks arranged with threefold symmetry so that the body has width w; it
minimizes both inradius and area among r-convex bodies of that width.  Its
inradius has a closed form in each geometry, differentiable in (w, r), and
so has its area (triangle_area), with no triangle built; the
six-arc family built by `regular_disk_hexagon` interpolates between the
triangle and the single disk while keeping the width fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .geometry import (
    Geometry,
    Point,
    SpindleError,
    exp_map,
    origin,
    tangent_from_angle,
)
from .measure import _excess, segment_area
from .regions import DiskPolygon, ball_hull, make_arc

# beyond this the hyperbolic closed form would square numbers near the
# double-precision overflow line, so log-space variants take over
_LOG_FORM_R = 350.0

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
_SIN_THIRD = math.sqrt(0.75)  # sin(2pi/3)


def _check_width_radius(w: float, r: float, g: Geometry) -> None:
    g.check_radius(r)
    if not (0.0 < w <= r) or not math.isfinite(w):
        raise SpindleError("BAD_RANGE", f"width must satisfy 0 < w <= r, got w={w} r={r}")


def triangle_inradius(w: float, r: float, g: Geometry) -> float:
    """Inradius of the regular disk triangle of width w and arc radius r:
    (w - x) / 2, where r + x = avers((4 vers r - vers(r - w)) / 3)."""
    _check_width_radius(w, r, g)
    if g.kappa >= 0 or r <= _LOG_FORM_R:
        return 0.5 * (w - _excess_side(w, r, g))
    # y = (4 cosh r - cosh(r-w)) / 3 = e^r * q / 3 with q of order one;
    # acosh(y) = log(y) + log(1 + sqrt(1 - 1/y^2)) and 1/y^2 underflows to 0
    q = 2.0 + 2.0 * math.exp(-2.0 * r) - 0.5 * (math.exp(-w) + math.exp(w - 2.0 * r))
    big_l = r + math.log(q) - math.log(3.0)
    inner = -math.expm1(-2.0 * big_l)
    acosh_y = big_l + math.log1p(math.sqrt(max(inner, 0.0)))
    return 0.5 * (r + w - acosh_y)


def _excess_side(w: float, r: float, g: Geometry) -> float:
    # r + x, the sum of the vertex and arc-center distances from the incenter,
    # has vers(r + x) - vers r = sn r sn x + cs r vers x = delta by the law of
    # cosines there; in tau = tn(x/2), (2 cs r - kappa delta) tau^2 + 2 sn r
    # tau = delta, whose rationalized root cancels nothing at small w
    delta = 2.0 * g.sn(0.5 * w) * g.sn(r - 0.5 * w) / 3.0
    sn_r = g.sn(r)
    tau = delta / (sn_r + math.sqrt(sn_r * sn_r + delta * (2.0 * g.cs(r) - g.kappa * delta)))
    return g.asn(2.0 * tau / (1.0 + g.kappa * tau * tau))  # sn x from tn(x/2)


def triangle_inradius_partials(w: float, r: float, g: Geometry) -> tuple[float, float]:
    """(d/dw, d/dr) of triangle_inradius; the w-partial is positive and the
    r-partial negative on the open domain, and the w-partial is exactly 1/2
    on the Reuleaux edge w = r."""
    _check_width_radius(w, r, g)
    if g.kappa >= 0 or r <= _LOG_FORM_R:
        # vers' = sn, so d avers(y) = dy / sn(avers y)
        root = 3.0 * g.sn(r + _excess_side(w, r, g))
        return (
            0.5 * (1.0 - g.sn(r - w) / root),
            0.5 * (1.0 - (4.0 * g.sn(r) - g.sn(r - w)) / root),
        )
    # factor e^r out of numerators and denominator; the -9 under the root
    # is smaller than everything else by e^{-2r}
    em2r = math.exp(-2.0 * r)
    den = 2.0 + 2.0 * em2r - 0.5 * (math.exp(-w) + math.exp(w - 2.0 * r))
    num_w = 0.5 * (math.exp(-w) - math.exp(w - 2.0 * r))
    num_r = 2.0 - 2.0 * em2r - 0.5 * (math.exp(-w) - math.exp(w - 2.0 * r))
    return 0.5 * (1.0 - num_w / den), 0.5 * (1.0 - num_r / den)


def triangle_area(w: float, r: float, g: Geometry) -> float:
    """Area of the regular disk triangle of width w and arc radius r, in
    closed form: the equilateral geodesic triangle on its vertices plus
    three circular segments.

    The vertices lie at a = w - rho0 from the incenter, 2pi/3 apart.  Each
    of the three isosceles pieces about the incenter has tan(kappa A / 2) =
    kappa T sin(2pi/3) / (1 + kappa T cos(2pi/3)) with T = tn(a/2)^2, tn =
    sn / cs (a^2 sin(2pi/3) / 2 when flat), with no cancellation on small
    triangles.  A side s has vers s = 1.5 sn(a)^2, so each arc's central
    angle phi (cos phi = cos_angle(r, r, s)) is taken in half-angle form,
    sin(phi/2) = sn(s/2) / sn(r) = sqrt(3)/2 sn(a) / sn(r).
    """
    a = w - triangle_inradius(w, r, g)
    tn = g.sn(0.5 * a) / g.cs(0.5 * a)
    big_t = tn * tn
    phi = 2.0 * math.asin(min(1.0, _SIN_THIRD * g.sn(a) / g.sn(r)))
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
    rho0 = triangle_inradius(w, r, g)
    p = center if center is not None else origin(g)
    g.check_radius(max(w - rho0, r - rho0), "triangle reach")
    thetas = [angle + i * TWO_THIRDS_PI for i in range(3)]
    verts = [exp_map(p, tangent_from_angle(p, th, g), w - rho0, g) for th in thetas]
    cents = [exp_map(p, tangent_from_angle(p, th, g), r - rho0, g) for th in thetas]
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
    rho0 = triangle_inradius(w, r, g)
    if not (rho0 - 1e-9 <= rho <= w - rho0 + 1e-9):
        raise SpindleError(
            "BAD_RANGE", "rho must lie between the triangle inradius and w minus it"
        )
    p = origin(g)
    g.check_radius(max(w - rho, rho), "hexagon reach")
    apexes = tuple(
        exp_map(p, tangent_from_angle(p, i * TWO_THIRDS_PI, g), w - rho, g)
        for i in range(3)
    )
    anchors = tuple(
        exp_map(p, tangent_from_angle(p, i * TWO_THIRDS_PI + math.pi, g), rho, g)
        for i in range(3)
    )
    region = ball_hull(list(apexes) + list(anchors), r, g)
    return DiskHexagon(g, w, r, rho, apexes, anchors, region)
