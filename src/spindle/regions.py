"""Regions bounded by circular arcs of one fixed radius r.

Two region kinds are provided:

* DiskPolygon: intersection of all radius-r disks containing a given point
  set (equivalently, of the disks centered at its boundary arc centers).
  The boundary is a counterclockwise cycle of arcs of radius exactly r,
  each bulging away from the region.
* CapDomain: a smaller disk with "caps" attached at apex points outside
  it, each cap the lens of two radius-r disks internally tangent to the
  disk, on the apex side of the chord through the two tangency points.

Arcs store no direction: orientation is a determinant test.  Both
serialize to plain JSON records that round-trip exactly (floats are
written by repr, the shortest form parsing back to the same double).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .geometry import (
    ANGLE_EPS,
    GEOM_EPS,
    Circle,
    Geometry,
    GEOMETRIES,
    Point,
    SpindleError,
    _distinct,
    _intersection_angle,
    _points_off_axis,
    as_point,
    chord2,
    circle_circle_intersection,
    distance,
    exp_map,
    log_dir,
    rotate_tangent,
    smallest_enclosing_disk,
    tangent_basis,
    turn_angle,
)

TWO_PI = 2.0 * math.pi
_TIGHT_EPS = 1e-9     # length: an enclosing radius past r by more fits no radius-r disk
_ONE_DISK_EPS = 1e-11  # length: an enclosing radius this close to r makes the hull one disk
_POP_SLACK = 1e-12    # length: the r-scan pops a point this close to the top arc's circle
_COVER_SLACK = 1e-7   # length: every input point lies this close to each arc's disk
_ON_CIRCLE_EPS = 1e-7  # length: an arc endpoint may lie this far off its circle
_ZERO_ARC = 1e-15     # length: endpoints with a shorter chord make a zero-extent arc
_CHORD_SLACK = 1e-9   # share: an arc's chord may pass its circle's diameter by this share
_LENGTH_EPS = 1e-12   # length: r_segment's reach and cap_domain's apex tests call this close equal


class Arc(NamedTuple):
    """Circular arc traversed counterclockwise about its center.

    The region an arc bounds lies on the center side, so the center stays
    on the left while walking the boundary.  `extent` is the central angle
    of the traversal, in (0, 2*pi]; start == end with extent 2*pi encodes
    a full circle.  point_at walks from start, turning log_dir(center, start).
    """

    center: Point
    radius: float
    start: Point
    end: Point
    extent: float
    geometry: Geometry

    def point_at(self, s: float) -> Point:
        """Point reached after central angle s of counterclockwise travel."""
        g, c = self.geometry, self.center
        return exp_map(c, rotate_tangent(c, log_dir(c, self.start, g), s, g), self.radius, g)


def make_arc(center: Point, radius: float, start: Point, end: Point, g: Geometry) -> Arc:
    """Arc from start to end counterclockwise about center, extent <= pi.

    Endpoints must lie within _ON_CIRCLE_EPS of the circle, as chord2 from
    the center within 2 vers(radius -+ _ON_CIRCLE_EPS).  Every arc built by
    this package subtends at most pi (+ rounding), so the chordal extent is
    it.  An end that turns clockwise from the start by more than ANGLE_EPS
    and less than pi - ANGLE_EPS (a stored cycle run backwards, say) is
    refused as MALFORMED_BOUNDARY, not taken the long way round; a half
    circle may round to either side of pi.  The turn t is read off det3(c,
    start - c, end - c) = sn^2 r sin t, on chords that keep their digits.
    """
    lo = 2.0 * g.vers(radius - _ON_CIRCLE_EPS) if radius > _ON_CIRCLE_EPS else 0.0
    hi = 2.0 * g.vers(radius + _ON_CIRCLE_EPS)
    if not (lo <= chord2(center, start, g) <= hi and lo <= chord2(center, end, g) <= hi):
        raise SpindleError("MALFORMED_BOUNDARY", "arc endpoint off its circle")
    c2 = chord2(start, end, g)
    if c2 < _ZERO_ARC * _ZERO_ARC:
        raise SpindleError("MALFORMED_BOUNDARY", "zero-extent arc")
    sn = g.sn(radius)
    q = 0.5 * math.sqrt(c2) / sn
    if q > 1.0 + _CHORD_SLACK:
        raise SpindleError("OUT_OF_RANGE", "chord longer than the circle diameter")
    ax, ay, az = start.x - center.x, start.y - center.y, start.z - center.z
    bx, by, bz = end.x - center.x, end.y - center.y, end.z - center.z
    det = (center.x * (ay * bz - az * by) - center.y * (ax * bz - az * bx)
           + center.z * (ax * by - ay * bx))
    if det < -math.sin(ANGLE_EPS) * sn * sn:
        raise SpindleError("MALFORMED_BOUNDARY", "arc runs clockwise about its center")
    return Arc(center, radius, start, end, 2.0 * math.asin(min(1.0, q)), g)


def full_circle_arc(center: Point, radius: float, g: Geometry) -> Arc:
    start = exp_map(center, tangent_basis(center, g)[0], radius, g)
    return Arc(center, radius, start, start, TWO_PI, g)


# --------------------------------------------------------------------------
# disk polygon

@dataclass(frozen=True)
class DiskPolygon:
    """Intersection of radius-r disks, boundary stored as CCW arcs.

    arcs[i] runs from vertex i to vertex i+1 (cyclically); one arc of
    extent 2*pi encodes a full disk, which has no vertices.  The properties
    derived from arcs are built once, on first use.
    """

    geometry: Geometry
    r: float
    arcs: tuple[Arc, ...]

    @cached_property
    def is_full_disk(self) -> bool:
        return len(self.arcs) == 1 and self.arcs[0].extent >= TWO_PI - ANGLE_EPS

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        if self.is_full_disk:
            return ()
        return tuple(a.start for a in self.arcs)

    @cached_property
    def centers(self) -> tuple[Point, ...]:
        return tuple(a.center for a in self.arcs)

    @cached_property
    def centers_disk(self) -> tuple[Point, float, tuple[int, ...]]:
        """Smallest disk enclosing the distinct arc centers: (center, radius,
        the arcs centered on its rim, pins first); (center, 0, ()) for one."""
        g, centers = self.geometry, self.centers
        keep = _distinct(centers, g)
        if len(keep) == 1:
            return centers[keep[0]], 0.0, ()
        x, big_r, rim = smallest_enclosing_disk([centers[i] for i in keep], g)
        return x, big_r, tuple(keep[k] for k in rim)

    def contains(self, x: Point, tol: float = GEOM_EPS) -> bool:
        g = self.geometry
        bound = 2.0 * g.vers(self.r + tol)
        return all(chord2(c, x, g) <= bound for c in self.centers)

    def to_record(self) -> dict:
        return {
            "type": "disk_polygon",
            "geometry": self.geometry.name,
            "r": self.r,
            "centers": [[a.center.x, a.center.y, a.center.z] for a in self.arcs],
            "vertices": [[v.x, v.y, v.z] for v in self.vertices],
        }

    @staticmethod
    def from_record(rec: dict) -> "DiskPolygon":
        try:
            g = GEOMETRIES[rec["geometry"]]
            r = float(rec["r"])
            centers = [as_point(c, g, i) for i, c in enumerate(rec["centers"])]
            verts = [as_point(v, g, i) for i, v in enumerate(rec["vertices"])]
        except (KeyError, TypeError, ValueError) as e:
            raise SpindleError("MALFORMED_BOUNDARY", f"bad disk_polygon record: {e}")
        g.sn_radius(r)
        if not centers:
            raise SpindleError("MALFORMED_BOUNDARY", "record has no arc centers")
        if not verts:
            if len(centers) != 1:
                raise SpindleError(
                    "MALFORMED_BOUNDARY", "vertex-free record must be a single disk"
                )
            return DiskPolygon(g, r, (full_circle_arc(centers[0], r, g),))
        if len(verts) != len(centers):
            raise SpindleError("MALFORMED_BOUNDARY", "need one center per vertex")
        n = len(verts)
        arcs = tuple(
            make_arc(centers[i], r, verts[i], verts[(i + 1) % n], g) for i in range(n)
        )
        return DiskPolygon(g, r, arcs)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def save_region(region, path: str) -> None:
    write_json(path, region.to_record())


def load_region(path: str):
    with open(path) as f:
        rec = json.load(f)
    if not isinstance(rec, dict):
        raise SpindleError("MALFORMED_BOUNDARY", "a region record must be a JSON object")
    kind = rec.get("type")
    if kind == "disk_polygon":
        return DiskPolygon.from_record(rec)
    if kind == "cap_domain":
        return CapDomain.from_record(rec)
    raise SpindleError("MALFORMED_BOUNDARY", f"unknown region type {kind!r}")


# --------------------------------------------------------------------------
# r-hulls

def r_segment(x: Point, y: Point, r: float, g: Geometry) -> DiskPolygon:
    """The spindle of x and y, ball_hull([x, y], r, g): the lens cut by the
    two radius-r circles through both, or the one disk they fit when they
    are 2r apart (within about 2 _ONE_DISK_EPS).  Points farther apart than
    2r + _LENGTH_EPS are TOO_FAR; BAD_RANGE names a non-finite or
    off-surface point by index (x 0, y 1)."""
    g.sn_radius(r)
    x, y = as_point(x, g, 0), as_point(y, g, 1)
    if distance(x, y, g) > 2.0 * r + _LENGTH_EPS:
        raise SpindleError("TOO_FAR", "points farther apart than 2r")
    return ball_hull([x, y], r, g)


def ball_hull(points: Sequence[Point], r: float, g: Geometry) -> DiskPolygon:
    """Smallest r-convex region containing the points.

    When the smallest enclosing disk B(o, R) has radius r, from _ONE_DISK_EPS
    below it (which covers the rounding of R on points exactly r from a
    center, up to 4.6e-12 in H at r = 5) to _TIGHT_EPS above, it is the
    only radius-r disk holding the points and so their hull: the full disk
    B(o, r), with no vertices.  Otherwise, in O(n log n):
    in the chart x -> form(x - o, e_i) / cs d(o, x) on the frame e_i at o
    (gnomonic on the sphere, Beltrami-Klein on the hyperboloid) geodesics
    are straight, so Andrew's monotone chain gives the extreme points,
    counterclockwise.  The one farthest from o is a hull vertex (the
    radius-r disk internally tangent to B(o, R) there holds every point);
    from it round the chain, a stack pops its top b while the next point
    lies outside the stored arc a -> b's disk, or on its circle: so a chain
    point costs one circle intersection, for the arc it appends.  The cycle
    starts after the vertex farthest from the first point (the earliest such
    in input order).

    Last, one array pass checks that each arc's disk grown by _COVER_SLACK
    holds every point (MALFORMED_BOUNDARY otherwise): each popped point, and
    each vertex against the other arcs.  The chain points suffice, as the
    chart maps geodesics to lines, so the rest lie in the chain's geodesic
    convex hull, and the grown disks are convex while r + _COVER_SLACK <
    radius_limit; past that (the sphere, r near pi/2) every point is tested.
    Raises NOT_ENCLOSABLE when no radius-r disk covers the input, and
    BAD_RANGE on a non-finite or off-surface point.  Points enter as Python
    floats (as_point), so numpy rows pay numpy-scalar arithmetic nowhere.
    """
    g.sn_radius(r)
    pts = [as_point(p, g, i) for i, p in enumerate(points)]
    if not pts:
        raise SpindleError("EMPTY", "need at least one point")
    kept = [pts[i] for i in _distinct(pts, g)]
    if len(kept) == 1:
        raise SpindleError("DEGENERATE_POINT", "all points coincide")
    o, radius, _ = smallest_enclosing_disk(kept, g)
    if radius > r + _TIGHT_EPS:
        raise SpindleError("NOT_ENCLOSABLE", "points do not fit in any radius-r disk")
    if radius > r - _ONE_DISK_EPS:
        return DiskPolygon(g, r, (full_circle_arc(o, r, g),))

    # chart at o (tangent_dot(x - o, e_i) / cs, written out), then the
    # counterclockwise extreme points as kept indices
    e1, e2 = tangent_basis(o, g)
    reach2 = [chord2(o, x, g) for x in kept]
    chart = []
    for i, x in enumerate(kept):
        dx, dy, dz = x.x - o.x, x.y - o.y, x.z - o.z
        cs = 1.0 - 0.5 * g.kappa * reach2[i]
        chart.append(((dx * e1.x + dy * e1.y + g.kappa * dz * e1.z) / cs,
                      (dx * e2.x + dy * e2.y + g.kappa * dz * e2.z) / cs, i))
    chain = _monotone_chain(chart)

    # r-scan from the chain point farthest from o round the chain and back to
    # it, so points on a supporting circle drop out; centers[j] is the center
    # of the arc stack[j] -> stack[j + 1]
    k = max(range(len(chain)), key=lambda j: reach2[chain[j]])
    outside = 2.0 * g.vers(r - _POP_SLACK)
    stack, centers = [chain[k]], []
    for p in chain[k + 1:] + chain[:k + 1]:
        while len(stack) > 1 and stack[-2] != p and chord2(centers[-1], kept[p], g) > outside:
            stack.pop()
            centers.pop()
        centers.append(circle_circle_intersection(Circle(kept[stack[-1]], r), Circle(kept[p], r), g)[0])
        stack.append(p)
    stack.pop()  # the anchor again, closing the cycle

    z0 = kept[0]
    s = stack.index(max(sorted(stack), key=lambda i: chord2(z0, kept[i], g))) + 1
    verts = [kept[i] for i in stack[s:] + stack[:s]]
    centers = centers[s:] + centers[:s]
    n = len(verts)
    arcs = tuple(make_arc(centers[i], r, verts[i], verts[(i + 1) % n], g) for i in range(n))
    tested = kept if r + _COVER_SLACK >= g.radius_limit else [kept[i] for i in chain]
    if not _covered(tested, centers, 2.0 * g.vers(r + _COVER_SLACK), g):
        raise SpindleError("MALFORMED_BOUNDARY", "hull does not cover its input")
    return DiskPolygon(g, r, arcs)


def _covered(points: Sequence[Point], centers: Sequence[Point], bound: float, g: Geometry) -> bool:
    """Whether chord2(c, x) <= bound for every center c and point x, in one
    array pass with chord2's own arithmetic."""
    xs = np.fromiter(itertools.chain.from_iterable(points), float, 3 * len(points)).reshape(-1, 1, 3)
    cs = np.fromiter(itertools.chain.from_iterable(centers), float, 3 * len(centers)).reshape(1, -1, 3)
    dx, dy, dz = (xs - cs).transpose(2, 0, 1)
    return bool((dx * dx + dy * dy + g.kappa * dz * dz <= bound).all())


def _monotone_chain(chart: list[tuple[float, float, int]]) -> list[int]:
    """Labels of the extreme points of (x, y, label) chart points, in
    counterclockwise order: Andrew's monotone chain (Inf. Process. Lett. 9,
    1979).  Only a strict right turn pops, so points on a hull edge stay;
    collinear input comes back out and in again."""
    ordered = sorted(chart)
    chain: list[tuple[float, float, int]] = []
    for half in (ordered, ordered[::-1]):
        out: list[tuple[float, float, int]] = []
        for p in half:
            while len(out) > 1 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                    < (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])):
                out.pop()
            out.append(p)
        chain += out[:-1]
    return [p[2] for p in chain]


# --------------------------------------------------------------------------
# cap domain

@dataclass(frozen=True)
class CapDomain:
    """Disk B(center, rho) with radius-r caps attached at apex points.

    A cap at apex q is bounded by the two radius-r arcs through q whose
    circles are internally tangent to the disk; the domain is the union of
    the disk and its caps, r-convex whenever the caps do not overlap.
    The lens of a cap's two disks meets the chord through its tangency points
    t_out, t_in only inside the disk (spindle convexity), so the cap is that
    lens on the apex side of the chord.  caps holds (c_left, c_right, n) per
    cap: the arc centers and n = t_out x t_in, n . x = det3(t_out, t_in, x) > 0
    on the apex side; at full reach 2r - rho t_out = t_in, n = 0: the whole lens.
    """

    geometry: Geometry
    r: float
    center: Point
    rho: float
    apexes: tuple[Point, ...]
    arcs: tuple[Arc, ...] = field(repr=False)
    caps: tuple[tuple[Point, Point, tuple[float, float, float]], ...] = field(repr=False)

    def contains(self, x: Point, tol: float = GEOM_EPS) -> bool:
        g = self.geometry
        if chord2(self.center, x, g) <= 2.0 * g.vers(self.rho + tol):
            return True
        bound = 2.0 * g.vers(self.r + tol)
        return any(n[0] * x.x + n[1] * x.y + n[2] * x.z >= 0.0
                   and chord2(cl, x, g) <= bound and chord2(cr, x, g) <= bound
                   for cl, cr, n in self.caps)

    def to_record(self) -> dict:
        return {
            "type": "cap_domain",
            "geometry": self.geometry.name,
            "r": self.r,
            "center": [self.center.x, self.center.y, self.center.z],
            "rho": self.rho,
            "apexes": [[q.x, q.y, q.z] for q in self.apexes],
        }

    @staticmethod
    def from_record(rec: dict) -> "CapDomain":
        try:
            g = GEOMETRIES[rec["geometry"]]
            r = float(rec["r"])
            center = as_point(rec["center"], g)
            rho = float(rec["rho"])
            apexes = [as_point(q, g, i) for i, q in enumerate(rec["apexes"])]
        except (KeyError, TypeError, ValueError) as e:
            raise SpindleError("MALFORMED_BOUNDARY", f"bad cap_domain record: {e}")
        return cap_domain(Circle(center, rho), apexes, r, g)


def cap_domain(disk: Circle, apexes: Iterable[Point], r: float, g: Geometry) -> CapDomain:
    """Attach radius-r caps to `disk` at the given apex points.

    Apexes must lie outside the disk (DEGENERATE otherwise) and within
    reach of the tangent arcs, distance at most 2r - rho from the disk
    center (APEX_TOO_FAR).  Caps whose angular footprints on the disk
    overlap raise CAP_OVERLAP.  BAD_RANGE refuses a non-finite or
    off-surface disk center, or apex (named by its index).
    """
    g.sn_radius(r)
    p, rho = as_point(disk.center, g), disk.radius
    if not (0.0 < rho < r):
        raise SpindleError("BAD_RANGE", "cap domain needs 0 < rho < r")
    g.check_radius(rho)

    # vers grows with the distance (to pi on the sphere, past 2r - rho), so
    # the reach tests take chord2 and no distance; one frame at p orders the caps
    too_near, too_far = g.vers(rho + _LENGTH_EPS), g.vers(2.0 * r - rho + _LENGTH_EPS)
    e1 = tangent_basis(p, g)[0]
    caps = []  # (theta, apex, c_left, c_right, t_in, t_out, half_width)
    for i, q in enumerate(apexes):
        q = as_point(q, g, i)
        vers_d = 0.5 * chord2(p, q, g)
        if vers_d <= too_near:
            raise SpindleError("DEGENERATE", "apex inside the disk")
        if vers_d > too_far:
            raise SpindleError("APEX_TOO_FAR", "apex beyond reach of tangent arcs")
        # the arc centers sit on the circle (p, r - rho) at angle +-beta off
        # the apex direction
        beta = _intersection_angle(vers_d, r - rho, r, g)
        if beta is None:
            raise SpindleError("APEX_TOO_FAR", "no tangent arc pair for this apex")
        u = log_dir(p, q, g)
        hits = _points_off_axis(p, u, r - rho, beta, g)
        c_left, c_right = hits[0], hits[-1]
        # tangency points sit diametrically opposite the arc centers through
        # the disk center, at distance rho turned by -+(pi - beta), so the
        # footprint half width seen from p is pi - beta; the left center
        # touches at the clockwise end
        touch = _points_off_axis(p, u, rho, math.pi - beta, g)
        t_out, t_in = touch[0], touch[-1]
        caps.append((turn_angle(p, e1, u, g) % TWO_PI, q, c_left, c_right, t_in, t_out,
                     math.pi - beta))
    caps.sort(key=lambda cap: cap[0])

    m = len(caps)
    if m == 0:
        return CapDomain(g, r, p, rho, (), (full_circle_arc(p, rho, g),), ())

    arcs: list[Arc] = []
    chords = []  # (c_left, c_right, t_out x t_in) per cap
    for i, (th, q, c_left, c_right, t_in, t_out, half) in enumerate(caps):
        # the disk arc between this footprint and the next; footprints that
        # touch within ANGLE_EPS, as in the regular triangle, leave none
        th_next, _, _, _, t_in_next, _, half_next = caps[(i + 1) % m]
        span = ((th_next - th) % TWO_PI if m > 1 else TWO_PI) - half - half_next
        if span < -ANGLE_EPS:
            raise SpindleError("CAP_OVERLAP", "cap footprints overlap on the disk")
        arcs.append(make_arc(c_left, r, t_in, q, g))
        arcs.append(make_arc(c_right, r, q, t_out, g))
        chords.append((c_left, c_right, (t_out.y * t_in.z - t_out.z * t_in.y,
                                         t_out.z * t_in.x - t_out.x * t_in.z,
                                         t_out.x * t_in.y - t_out.y * t_in.x)))
        if span > ANGLE_EPS:
            arcs.append(Arc(p, rho, t_out, t_in_next, span, g))
    return CapDomain(g, r, p, rho, tuple(c[1] for c in caps), tuple(arcs), tuple(chords))
