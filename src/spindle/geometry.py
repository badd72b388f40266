"""Primitives for the three constant-curvature planes on one embedding.

Points live in R^3: the Euclidean plane is the slice z = 1, the sphere is
the unit sphere, and the hyperbolic plane is the upper hyperboloid sheet
z^2 - x^2 - y^2 = 1.  The curvature magnitude is fixed to |kappa| = 1
(other curvatures are length rescalings).  Trigonometry is written once
for all three planes through the model-space functions sn, cs and the
versine vers(x) = 2 sn(x/2)^2 (Bridson-Haefliger, Metric Spaces of
Non-Positive Curvature, ch. I.2): see Geometry and cos_angle.

Conventions used throughout the package:

* a Tangent is a unit tangent vector at the base point it is used with
  (Euclidean: z = 0; sphere: euclidean-orthogonal to the point;
  hyperboloid: Minkowski-orthogonal to the point);
* `det3(a, b, z) > 0` means z lies on the left of the oriented geodesic
  a -> b, in every geometry (it is the 3x3 determinant of the embeddings);
* `perp` rotates a tangent by +90 degrees, counterclockwise;
* `turn_toward(p, u, q)` is the signed turn from u to the direction p -> q,
  taken on the chord q - p: code that needs only the angle of a direction
  does not build it with `log_dir`;
* `chord2(p, q) = form(q - p, q - p) = 2 vers d(p, q)`, where
  form(a, b) = a.x b.x + a.y b.y + kappa a.z b.z is the form of
  `tangent_dot`: a distance bound d <= t is tested as chord2 <= 2 vers t,
  with no inverse trigonometry;
* so cs d = 1 - kappa chord2 / 2, and `log_dir` (the tangent part of
  q - cs(d) p) takes no distance; `midpoint(p, q)` is
  (p + q) / sqrt(4 - kappa chord2), as form(p + q, p + q) = 4 - kappa chord2.
  Past a right angle on the sphere both work from p + q instead, whose
  size keeps the digits that 4 - chord2 and q - cs(d) p cancel away;
* arrays enter the scalar kernel once, as floats, at `ball_hull`,
  `r_segment` and `cap_domain`, which pass their points through `as_point`:
  a numpy float64 scalar costs about three times a float per operation,
  and every point derived from one stays one;
* `make_arc` tests its endpoints and takes its extent on chord2, with no distance;
* `circle_circle_intersection` rotates u once, to v: the right point takes 2 cos(beta) u - v.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Sequence

GEOM_EPS = 1e-10    # tolerance for geometric predicates
ANGLE_EPS = 1e-9    # angular tolerance for cone / arc-span tests
MERGE_EPS = 10 * GEOM_EPS  # boundary vertices closer than this are merged
# relative residual of the surface equation an input point may carry
ON_SURFACE_EPS = 1e-9
# smallest_enclosing_disk: a point this far past a disk's rim counts as
# inside it, and one this close to the rim of the last disk as support
SED_SLACK = 1e-9
# log_dir's DEGENERATE cut-off d < 1e-12 on chord2 = 2 vers d = d^2 (1 + O(d^2))
_DEGENERATE_CHORD2 = 1e-24
_ANTIPODAL_DOT = 1e-12  # distance: spherical p.q <= -1 + this is ANTIPODAL
_ANTIPODAL_CHORD2 = 4.0 - 2.0 * _ANTIPODAL_DOT  # the same cut-off on chord2 = 2 - 2 p.q
_ZERO_NORM = 1e-14      # a vector shorter than this has no direction to normalize
_TANGENT_EPS = 1e-9     # a unit tangent's slack in length and off its tangent plane
_AXIS_EPS = 1e-9        # hyperboloid points with |x|, |y| below this frame on the x axis
_MISS_SLACK = 1e-9      # circles whose |cos beta| passes 1 by at most this still meet
_TOUCH_EPS = 1e-12      # a |cos beta| this close to 1 is a tangency: one point
_CONCENTRIC_EPS = 1e-12  # concentric circles with radii this close coincide
_COLLINEAR_SIN = 1e-13  # circumcenter: chords meeting at a smaller sine give None


class SpindleError(ValueError):
    """Domain error carrying a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class Point(NamedTuple):
    """Embedded point of the model surface."""

    x: float
    y: float
    z: float


class Tangent(NamedTuple):
    """Unit tangent vector; valid only at the base point it was built at."""

    x: float
    y: float
    z: float


def _identity(x: float) -> float:
    return x


def _one(x: float) -> float:
    return 1.0


def _asin_clamped(x: float) -> float:
    # rounding can push a sine a hair past 1; the angle is then pi/2
    return math.asin(max(-1.0, min(1.0, x)))


# (sn, cs, asn, radius_limit) per curvature sign
_MODELS = {
    0: (_identity, _one, _identity, math.inf),
    1: (math.sin, math.cos, _asin_clamped, math.pi / 2),
    -1: (math.sinh, math.cosh, math.asinh, math.inf),
}


@dataclass(frozen=True)
class Geometry:
    """One of the three model planes, identified by curvature sign.

    sn, cs and asn (the inverse of sn) are its model-space functions,
    derived from kappa: x, 1, x; sin, cos, asin; or sinh, cosh, asinh.
    radius_limit bounds disk radii: pi/2 keeps spherical disks inside an
    open hemisphere, where they are convex; elsewhere it is inf.
    """

    kappa: int
    name: str
    sn: Callable[[float], float] = field(init=False, repr=False, compare=False)
    cs: Callable[[float], float] = field(init=False, repr=False, compare=False)
    asn: Callable[[float], float] = field(init=False, repr=False, compare=False)
    radius_limit: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in zip(("sn", "cs", "asn", "radius_limit"), _MODELS[self.kappa]):
            object.__setattr__(self, name, value)

    def vers(self, x: float) -> float:
        """2 sn(x/2)^2, that is x^2/2, 1 - cos x or cosh x - 1, exact near 0."""
        s = self.sn(0.5 * x)
        return 2.0 * s * s

    def avers(self, v: float) -> float:
        """Inverse of vers on [0, pi] (sphere) or [0, inf)."""
        return 2.0 * self.asn(math.sqrt(0.5 * v))

    def check_radius(self, r: float, what: str = "r") -> None:
        if not (r > 0.0) or not math.isfinite(r):
            raise SpindleError("BAD_RANGE", f"{what} must be positive, got {r}")
        if r >= self.radius_limit:
            raise SpindleError(
                "BAD_RANGE", f"{what} must be below pi/2 on the sphere, got {r}"
            )

    def __repr__(self) -> str:  # keeps records and error text short
        return f"Geometry({self.name})"


EUCLIDEAN = Geometry(0, "euclidean")
HYPERBOLIC = Geometry(-1, "hyperbolic")
SPHERICAL = Geometry(+1, "spherical")
GEOMETRIES = {g.name: g for g in (EUCLIDEAN, HYPERBOLIC, SPHERICAL)}


class Circle(NamedTuple):
    """Geodesic circle: points at geodesic distance `radius` from `center`."""

    center: Point
    radius: float


# --------------------------------------------------------------------------
# basic vector helpers (plain floats: single 3-vectors are too small for
# array overhead to pay off; numpy serves only all-pairs screens, as the
# width screen in measure does)

def det3(a, b, c) -> float:
    """Determinant of the 3x3 matrix with rows a, b, c."""
    return (
        a.x * (b.y * c.z - b.z * c.y)
        - a.y * (b.x * c.z - b.z * c.x)
        + a.z * (b.x * c.y - b.y * c.x)
    )


def _normalize_point(g: Geometry, x: float, y: float, z: float) -> Point:
    if g.kappa == 0:
        if abs(z - 1.0) > ON_SURFACE_EPS:
            raise SpindleError("BAD_RANGE", f"euclidean points need z = 1, got {z}")
        return Point(x, y, 1.0)
    if g.kappa > 0:
        n = math.sqrt(x * x + y * y + z * z)
        if n < _ZERO_NORM:
            raise SpindleError("BAD_RANGE", "cannot normalize the zero vector")
        return Point(x / n, y / n, z / n)
    q = z * z - x * x - y * y
    if q <= 0.0 or z <= 0.0:
        raise SpindleError("BAD_RANGE", "not a point of the upper hyperboloid sheet")
    n = math.sqrt(q)
    return Point(x / n, y / n, z / n)


def as_point(p: Sequence[float], g: Geometry, index: int = 0) -> Point:
    """The 3-sequence p (a Point, a list, a numpy row) as a Point of Python
    floats, checked to be a finite point of g's surface: z = 1 within
    ON_SURFACE_EPS in the plane, else x^2 + y^2 + kappa z^2 = kappa within
    ON_SURFACE_EPS (x^2 + y^2 + z^2), with z > 0 on the hyperboloid.
    BAD_RANGE names the point by index otherwise."""
    x, y, z = map(float, p)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise SpindleError("BAD_RANGE", f"point {index} is not finite: ({x}, {y}, {z})")
    if g.kappa == 0:
        on = abs(z - 1.0) <= ON_SURFACE_EPS
    else:
        xy = x * x + y * y
        on = abs(xy + g.kappa * z * z - g.kappa) <= ON_SURFACE_EPS * (xy + z * z)
        on = on and (g.kappa > 0 or z > 0.0)
    if not on:
        raise SpindleError("BAD_RANGE", f"point {index} is off the {g.name} surface: ({x}, {y}, {z})")
    return Point(x, y, z)


def origin(g: Geometry) -> Point:
    """Base point of the chart: (0, 0, 1) in every model."""
    return Point(0.0, 0.0, 1.0)


def embed(g: Geometry, x: float, y: float) -> Point:
    """Lift chart coordinates onto the surface: z = sqrt(1 - kappa (x^2 + y^2)),
    so on the sphere x^2 + y^2 must stay below 1."""
    s = 1.0 - g.kappa * (x * x + y * y)
    if s <= 0.0:
        raise SpindleError("BAD_RANGE", "spherical chart needs x^2 + y^2 < 1")
    return Point(x, y, math.sqrt(s))


# --------------------------------------------------------------------------
# metric

def distance(p: Point, q: Point, g: Geometry) -> float:
    """Geodesic distance.  Raises ANTIPODAL for opposite spherical points."""
    if g.kappa == 0:
        return math.hypot(q.x - p.x, q.y - p.y)
    if g.kappa > 0:
        dot = p.x * q.x + p.y * q.y + p.z * q.z
        if dot <= -1.0 + _ANTIPODAL_DOT:
            raise SpindleError("ANTIPODAL", "antipodal points have no unique geodesic")
        # chordal forms are stable near 0 and near pi
        if dot >= 0.0:
            dx, dy, dz = q.x - p.x, q.y - p.y, q.z - p.z
            h = 0.5 * math.sqrt(dx * dx + dy * dy + dz * dz)
            return 2.0 * math.asin(min(1.0, h))
        sx, sy, sz = q.x + p.x, q.y + p.y, q.z + p.z
        h = 0.5 * math.sqrt(sx * sx + sy * sy + sz * sz)
        return math.pi - 2.0 * math.asin(min(1.0, h))
    dx, dy, dz = q.x - p.x, q.y - p.y, q.z - p.z
    q2 = dx * dx + dy * dy - dz * dz  # equals 4 sinh^2(d/2)
    return 2.0 * math.asinh(0.5 * math.sqrt(max(q2, 0.0)))


def chord2(p: Point, q: Point, g: Geometry) -> float:
    """form(q - p, q - p) = 2 vers d(p, q): a monotone stand-in for the
    distance, for comparisons against 2 vers of a bound."""
    dx, dy, dz = q.x - p.x, q.y - p.y, q.z - p.z
    return dx * dx + dy * dy + g.kappa * dz * dz


def _distinct(points: Sequence[Point], g: Geometry) -> list[int]:
    """Indices of the points left when each one within MERGE_EPS of an
    earlier kept point (chord2 <= 2 vers MERGE_EPS) merges into it.

    A point meets only the kept points whose x lies within a window, found
    by bisection: O(n log n) when few points share one.  For Z = max(1, |z|)
    over the input, chord2 >= dx^2 / Z^2 on every surface (in E and S the
    other terms are squares; on the hyperboloid z is tanh-Lipschitz in (x, y),
    so chord2 >= |d(x, y)|^2 / max(z_p, z_q)^2), so a merge needs |dx| <=
    sqrt(merge) Z.  The window adds 64 eps Z^3 for the rounding of chord2 on
    the hyperboloid, and spans all points once 64 eps Z^2 >= 1 (16.6 out).
    """
    merge = 2.0 * g.vers(MERGE_EPS)
    z = max([1.0] + [abs(p.z) for p in points])
    win = math.sqrt(merge) * z + 2.0 ** -46 * z ** 3 if 2.0 ** -46 * z * z < 1.0 else math.inf
    xs, near, kept = [], [], []  # kept x-coordinates ascending, their points, indices
    for i, p in enumerate(points):
        lo, hi = bisect_left(xs, p.x - win), bisect_right(xs, p.x + win)
        if all(chord2(p, q, g) > merge for q in near[lo:hi]):
            k = bisect_left(xs, p.x)
            xs.insert(k, p.x)
            near.insert(k, p)
            kept.append(i)
    return kept


def _check_tangent(p: Point, u: Tangent, g: Geometry) -> None:
    # unit in the tangent form, and in the tangent plane: form(p, u) = 0 (flat: u.z = 0)
    unit = u.x * u.x + u.y * u.y + g.kappa * u.z * u.z
    ortho = abs(p.x * u.x + p.y * u.y + g.kappa * p.z * u.z if g.kappa else u.z)
    if abs(unit - 1.0) > _TANGENT_EPS or ortho > _TANGENT_EPS:
        raise SpindleError("BAD_TANGENT", "direction is not a unit tangent at p")


def _normalize_tangent(p: Point, ux: float, uy: float, uz: float, g: Geometry) -> Tangent:
    # project defensively onto the tangent plane, then rescale to unit length
    if g.kappa == 0:
        n = math.hypot(ux, uy)
        if n < _ZERO_NORM:
            raise SpindleError("DEGENERATE", "zero tangent vector")
        return Tangent(ux / n, uy / n, 0.0)
    if g.kappa > 0:
        d = ux * p.x + uy * p.y + uz * p.z
        ux, uy, uz = ux - d * p.x, uy - d * p.y, uz - d * p.z
        n = math.sqrt(ux * ux + uy * uy + uz * uz)
    else:
        d = ux * p.x + uy * p.y - uz * p.z
        ux, uy, uz = ux + d * p.x, uy + d * p.y, uz + d * p.z
        n = math.sqrt(max(ux * ux + uy * uy - uz * uz, 0.0))
    if n < _ZERO_NORM:
        raise SpindleError("DEGENERATE", "zero tangent vector")
    return Tangent(ux / n, uy / n, uz / n)


def exp_map(p: Point, u: Tangent, t: float, g: Geometry) -> Point:
    """Walk distance t from p along the geodesic with initial direction u."""
    _check_tangent(p, u, g)
    if t < 0.0 or not math.isfinite(t):
        raise SpindleError("BAD_RANGE", f"exp_map needs t >= 0, got {t}")
    if g.kappa == 0:
        return Point(p.x + t * u.x, p.y + t * u.y, 1.0)
    if t >= 2.0 * g.radius_limit:
        raise SpindleError("BAD_RANGE", "spherical exp_map needs t < pi")
    c, s = g.cs(t), g.sn(t)
    return _normalize_point(g, c * p.x + s * u.x, c * p.y + s * u.y, c * p.z + s * u.z)


def log_dir(p: Point, q: Point, g: Geometry) -> Tangent:
    """Initial unit direction of the geodesic from p to q: the tangent part
    of q - cs(d) p, with cs d = 1 - kappa chord2 / 2, so no distance is
    taken (the chord form q - p + (kappa chord2 / 2) p keeps its digits
    when q is close to p, the form on p + q when q is near the antipode)."""
    dx, dy, dz = q.x - p.x, q.y - p.y, q.z - p.z
    c2 = dx * dx + dy * dy + g.kappa * dz * dz
    if c2 < _DEGENERATE_CHORD2:
        raise SpindleError("DEGENERATE", "no direction between coincident points")
    if g.kappa > 0 and c2 >= _ANTIPODAL_CHORD2:
        raise SpindleError("ANTIPODAL", "antipodal points have no unique geodesic")
    h = 0.5 * g.kappa * c2
    if h > 1.0:
        # past a right angle on the sphere q - p + h p cancels down to the
        # size of p + q; the same vector is (p + q) - (|p + q|^2 / 2) p
        sx, sy, sz = p.x + q.x, p.y + q.y, p.z + q.z
        h = 0.5 * (sx * sx + sy * sy + sz * sz)
        return _normalize_tangent(p, sx - h * p.x, sy - h * p.y, sz - h * p.z, g)
    return _normalize_tangent(p, dx + h * p.x, dy + h * p.y, dz + h * p.z, g)


def perp(p: Point, u: Tangent, g: Geometry) -> Tangent:
    """Tangent u rotated by +90 degrees (counterclockwise) at p: p x u with
    its third component scaled by kappa, so that <p x u, w> = det(p, u, w)
    for tangents w, in the tangent form of every plane."""
    return Tangent(
        p.y * u.z - p.z * u.y,
        p.z * u.x - p.x * u.z,
        g.kappa * (p.x * u.y - p.y * u.x),
    )


def rotate_tangent(p: Point, u: Tangent, alpha: float, g: Geometry) -> Tangent:
    c, s = math.cos(alpha), math.sin(alpha)
    # c u + s perp(p, u), with perp written out rather than built
    return _normalize_tangent(
        p, c * u.x + s * (p.y * u.z - p.z * u.y), c * u.y + s * (p.z * u.x - p.x * u.z),
        c * u.z + s * (g.kappa * (p.x * u.y - p.y * u.x)), g
    )


def tangent_dot(u: Tangent, v: Tangent, g: Geometry) -> float:
    # Minkowski sign on the hyperboloid; Euclidean tangents have z = 0
    return u.x * v.x + u.y * v.y + g.kappa * u.z * v.z


def _negate(u: Tangent) -> Tangent:
    return Tangent(-u.x, -u.y, -u.z)


def turn_angle(p: Point, u: Tangent, v: Tangent, g: Geometry) -> float:
    """Signed counterclockwise angle from tangent u to tangent v at p."""
    return math.atan2(det3(p, u, v), tangent_dot(u, v, g))


def turn_toward(p: Point, u: Tangent, q: Point, g: Geometry) -> float:
    """Signed counterclockwise angle from tangent u to the direction p -> q:
    turn_angle(p, u, log_dir(p, q, g), g) without building the direction.

    log_dir(p, q) is a positive multiple of q - cs(d) p, and p drops out of
    det3(p, u, .) and of the tangent form with u, so both are taken on the
    chord q - p, which keeps its digits when q is close to p.
    """
    dx, dy, dz = q.x - p.x, q.y - p.y, q.z - p.z
    # det3(p, u, q - p) and tangent_dot(u, q - p), written out: building the
    # chord as a Point doubles the cost in the width loop
    return math.atan2(
        p.x * (u.y * dz - u.z * dy) - p.y * (u.x * dz - u.z * dx) + p.z * (u.x * dy - u.y * dx),
        u.x * dx + u.y * dy + g.kappa * u.z * dz,
    )


def tangent_basis(p: Point, g: Geometry) -> tuple[Tangent, Tangent]:
    """Deterministic orthonormal tangent frame at p (t2 = perp of t1)."""
    if g.kappa == 0:
        return Tangent(1.0, 0.0, 0.0), Tangent(0.0, 1.0, 0.0)
    seed = Point(0.0, 0.0, 1.0) if abs(p.z) < 0.9 or g.kappa < 0 else Point(1.0, 0.0, 0.0)
    if g.kappa < 0 and abs(p.x) < _AXIS_EPS and abs(p.y) < _AXIS_EPS:
        seed = Point(1.0, 0.0, 0.0)
    t1 = _normalize_tangent(p, seed.x, seed.y, seed.z, g)
    return t1, perp(p, t1, g)


def tangent_from_angle(p: Point, theta: float, g: Geometry) -> Tangent:
    t1, t2 = tangent_basis(p, g)
    c, s = math.cos(theta), math.sin(theta)
    return _normalize_tangent(
        p, c * t1.x + s * t2.x, c * t1.y + s * t2.y, c * t1.z + s * t2.z, g
    )


def from_polar(g: Geometry, theta: float, t: float) -> Point:
    """Point at distance t from the chart origin, direction angle theta."""
    return exp_map(origin(g), tangent_from_angle(origin(g), theta, g), t, g)


def frame_angle(p: Point, u: Tangent, g: Geometry) -> float:
    """Angle of tangent u in the frame at p, in [0, 2*pi); inverts tangent_from_angle."""
    t1, t2 = tangent_basis(p, g)
    return math.atan2(tangent_dot(u, t2, g), tangent_dot(u, t1, g)) % (2.0 * math.pi)


def angle_coord(o: Point, x: Point, g: Geometry) -> float:
    """Angle of the direction o -> x in the frame at o, in [0, 2*pi)."""
    return frame_angle(o, log_dir(o, x, g), g)


def midpoint(p: Point, q: Point, g: Geometry) -> Point:
    """Midpoint of the geodesic segment p q: (p + q) / sqrt(4 - kappa chord2),
    as form(p + q, p + q) = 4 - kappa chord2 on every surface.  Past a right
    angle on the sphere 4 - chord2 cancels, and the norm of p + q is taken
    instead (as distance switches to |q + p| there)."""
    c2 = chord2(p, q, g)
    if g.kappa > 0 and c2 >= _ANTIPODAL_CHORD2:
        raise SpindleError("ANTIPODAL", "antipodal points have no unique geodesic")
    x, y, z = p.x + q.x, p.y + q.y, p.z + q.z
    s = 1.0 / math.sqrt(4.0 - g.kappa * c2 if g.kappa * c2 <= 2.0 else x * x + y * y + z * z)
    return Point(x * s, y * s, z * s)


# --------------------------------------------------------------------------
# law of cosines and circles

def cos_angle(a: float, b: float, c: float, g: Geometry) -> float:
    """Cosine of the angle between sides a and b of a triangle whose third
    side is c: (vers a - vers c + cs a vers b) / (sn a sn b)."""
    return (g.vers(a) - g.vers(c) + g.cs(a) * g.vers(b)) / (g.sn(a) * g.sn(b))


def _intersection_angle(cosb: float) -> Optional[float]:
    """Angle at the first center between the line of centers and an
    intersection point of two circles, from its cosine by the law of
    cosines: None when they miss, 0 or pi when they touch."""
    if abs(cosb) > 1.0 + _MISS_SLACK:
        return None
    if 1.0 - abs(cosb) <= _TOUCH_EPS:
        return 0.0 if cosb > 0 else math.pi
    return math.acos(cosb)


def _points_off_axis(p: Point, u: Tangent, t: float, beta: float, g: Geometry) -> tuple[Point, ...]:
    """Points at distance t from p in the directions turned by +beta (left)
    and -beta (right) from the unit tangent u; one point if beta is 0 or pi.

    Each is cs t p + sn t w for the turned unit tangent w, normalized once
    (exp_map's walk, without its tangent check).  Only the left direction v
    is turned; the right one is its mirror about u, 2 cos(beta) u - v.
    """
    c, s = g.cs(t), g.sn(t)
    v = rotate_tangent(p, u, beta, g)
    left = _normalize_point(g, c * p.x + s * v.x, c * p.y + s * v.y, c * p.z + s * v.z)
    if beta == 0.0 or beta == math.pi:
        return (left,)
    m = 2.0 * math.cos(beta)
    wx, wy, wz = m * u.x - v.x, m * u.y - v.y, m * u.z - v.z
    return left, _normalize_point(g, c * p.x + s * wx, c * p.y + s * wy, c * p.z + s * wz)


def circle_circle_intersection(
    c1: Circle, c2: Circle, g: Geometry
) -> tuple[Point, ...]:
    """Intersection points of two geodesic circles.

    Returns (), a single tangency point, or two points ordered (left, right)
    of the oriented geodesic c1.center -> c2.center.  COINCIDENT circles are
    an error; concentric distinct circles (centers closer than log_dir
    takes a direction between) return ().  cos beta is cos_angle(r1, d, r2)
    with vers d = chord2 / 2 and sn d = sqrt(vers d (2 - kappa vers d)).
    """
    p, q, r1, r2 = c1.center, c2.center, c1.radius, c2.radius
    g.check_radius(r1)
    g.check_radius(r2)
    vers_d = 0.5 * chord2(p, q, g)
    if vers_d <= 0.5 * _DEGENERATE_CHORD2:
        if abs(r1 - r2) <= _CONCENTRIC_EPS:
            raise SpindleError("COINCIDENT", "the circles coincide")
        return ()
    u = log_dir(p, q, g)  # raises ANTIPODAL before sn d can vanish
    sn_d = math.sqrt(max(vers_d * (2.0 - g.kappa * vers_d), 0.0))
    beta = _intersection_angle((g.vers(r1) - g.vers(r2) + g.cs(r1) * vers_d) / (g.sn(r1) * sn_d))
    return () if beta is None else _points_off_axis(p, u, r1, beta, g)


def circumcenter(a: Point, b: Point, c: Point, g: Geometry) -> Optional[tuple[Point, float]]:
    """Center and radius of the circle through three points, or None.

    None means the points are too close to geodesically collinear: the chords
    u = a - b and v = b - c meet at an angle whose sine is below 1e-13, at any
    scale (hyperbolic triples whose equidistant locus is no circle give None).
    """
    ux, uy, uz = a.x - b.x, a.y - b.y, a.z - b.z
    vx, vy, vz = b.x - c.x, b.y - c.y, b.z - c.z
    uu, vv = ux * ux + uy * uy + uz * uz, vx * vx + vy * vy + vz * vz
    if g.kappa == 0:
        d = 2.0 * (
            a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y)
        )
        if d * d < 4.0 * _COLLINEAR_SIN ** 2 * uu * vv:  # |d| = 2 |u| |v| sin
            return None
        aa = a.x * a.x + a.y * a.y
        bb = b.x * b.x + b.y * b.y
        cc = c.x * c.x + c.y * c.y
        ux = (aa * (b.y - c.y) + bb * (c.y - a.y) + cc * (a.y - b.y)) / d
        uy = (aa * (c.x - b.x) + bb * (a.x - c.x) + cc * (b.x - a.x)) / d
        center = Point(ux, uy, 1.0)
        return center, distance(center, a, g)
    # the normal n = u x v of the plane through a, b, c (hyperboloid: n.z negated)
    nx, ny = uy * vz - uz * vy, uz * vx - ux * vz
    nz = ux * vy - uy * vx if g.kappa > 0 else uy * vx - ux * vy
    if g.kappa > 0:
        s = math.sqrt(nx * nx + ny * ny + nz * nz)
        if s < _COLLINEAR_SIN * math.sqrt(uu * vv):  # |n| = |u| |v| sin
            return None
        x, y, z = nx / s, ny / s, nz / s
        flip = x * a.x + y * a.y + z * a.z < 0.0
    else:
        q = nz * nz - nx * nx - ny * ny
        if q < _COLLINEAR_SIN * (nx * nx + ny * ny + nz * nz):
            return None  # equidistant locus is not a compact circle
        s = math.sqrt(q)
        x, y, z = nx / s, ny / s, nz / s
        flip = z < 0.0
    center = Point(-x, -y, -z) if flip else Point(x, y, z)
    return center, distance(center, a, g)


def smallest_enclosing_disk(
    points: Sequence[Point], g: Geometry
) -> tuple[Point, float, tuple[int, ...]]:
    """Smallest geodesic disk containing the points.

    Farthest-point pivoting, after Gärtner ("Fast and Robust Smallest
    Enclosing Balls", ESA 1999): from the disk at points[0], while the point
    f farthest from the center lies outside, the next disk is the smallest
    with f on its rim that holds the support (at most three points).  The
    radius strictly grows, as f lay outside, so no support set comes back:
    the loop ends within n + C(n, 2) + C(n, 3) steps (NO_CONVERGENCE past
    them).  Valid in every plane since disks are convex (spherical radii
    stay below pi/2).  A disk is kept as its reach chord2 = 2 vers R and the
    bound 2 vers(R + SED_SLACK), so a containment test is one chord2 and no
    disk takes an inverse-trigonometric distance until the last.  Returns
    (center, radius, support indices into points).
    """
    n, kappa = len(points), g.kappa
    if not n:
        raise SpindleError("BAD_RANGE", "need at least one point")
    v_eps, s_eps = g.vers(SED_SLACK), g.sn(SED_SLACK)

    def shifted(c2: float) -> float:
        # 2 vers(R + SED_SLACK) for c2 = 2 vers R: vers(a + b) = vers a + vers b
        # - kappa vers a vers b + sn a sn b, with sn R = sqrt(v (2 - kappa v))
        v = 0.5 * c2
        sn = math.sqrt(max(v * (2.0 - kappa * v), 0.0))
        return 2.0 * (v + v_eps - kappa * v * v_eps + sn * s_eps)

    def disk_about(center: Point, idx: tuple[int, ...]):
        # smallest disk about center holding points idx, as
        # (center, reach chord2, idx, bound)
        reach2 = max([chord2(center, points[k], g) for k in idx])
        return center, reach2, idx, shifted(reach2)

    def triple(i: int, j: int, k: int):
        cc = circumcenter(points[i], points[j], points[k], g)
        if cc is not None:
            return disk_about(cc[0], (i, j, k))
        # no circle through the three (too close to collinear, or no proper
        # hyperbolic circle): the smallest pair disk grown to cover the third
        return min((disk_about(midpoint(points[a], points[b], g), (a, b, c))
                    for a, b, c in ((i, j, k), (i, k, j), (j, k, i))), key=lambda d: d[1])

    def rank(d):
        # disks that hold the support first, then the smaller; the points a
        # disk was built on lie within its reach, so only the rest are tested
        return any(chord2(d[0], points[k], g) > d[3] for k in support if k not in d[2]), d[1]

    disk = (points[0], 0.0, (0,), shifted(0.0))
    for _ in range(n * (n * n + 5) // 6):  # n + C(n, 2) + C(n, 3)
        cx, cy, cz = disk[0]
        reach = [(x - cx) * (x - cx) + (y - cy) * (y - cy) + kappa * (z - cz) * (z - cz)
                 for x, y, z in points]  # chord2 from the center, written out
        far = max(reach)
        if far <= disk[3]:
            break
        # about the midpoint of f and a support point, else through f and two: a disk
        # through f and s has radius >= d(f, s) / 2, so a pair disk holding the support wins
        f, support = reach.index(far), disk[2]
        pairs = [disk_about(midpoint(points[f], points[s], g), (f, s)) for s in support]
        disk = min(pairs, key=rank)
        if rank(disk)[0]:
            disk = min([disk] + [triple(f, s, t) for s, t in combinations(support, 2)], key=rank)
    else:
        raise SpindleError("NO_CONVERGENCE", f"no smallest enclosing disk of {n} points")
    # radius and support (the points on the rim) of the last disk only
    center, _, idx, _ = disk
    reach = [distance(center, points[k], g) for k in idx]
    radius = max(reach)
    return center, radius, tuple(k for k, d in zip(idx, reach) if d >= radius - SED_SLACK)


def signed_distance_to_geodesic(x: Point, base: Point, u: Tangent, g: Geometry) -> float:
    """Signed distance from x to the geodesic through base with direction u.

    Positive on the left of the oriented geodesic.
    """
    _check_tangent(base, u, g)
    # det3(base, u, x) is sn of the signed distance in every plane
    return g.asn(det3(base, u, x))
