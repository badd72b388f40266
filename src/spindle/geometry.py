"""Primitives for the three constant-curvature planes on one embedding.

Points live in R^3 on the surface z^2 + kappa (x^2 + y^2) = 1, with z > 0
off the sphere: the Euclidean plane is the slice z = 1, the sphere is the
unit sphere, and the hyperbolic plane is the upper hyperboloid sheet
z^2 - x^2 - y^2 = 1.  The curvature magnitude is fixed to |kappa| = 1
(other curvatures are length rescalings).  Trigonometry is written once
for all three planes through the model-space functions sn, cs, tn and the
versine vers(x) = 2 sn(x/2)^2 (Bridson-Haefliger, Metric Spaces of
Non-Positive Curvature, ch. I.2): see Geometry and _intersection_angle.

Conventions used throughout the package:

* a Tangent is a unit tangent vector at the base point it is used with
  (Euclidean: z = 0; sphere: euclidean-orthogonal to the point;
  hyperboloid: Minkowski-orthogonal to the point): its tangency residual
  e(p, u) = p.z u.z + kappa (p.x u.x + p.y u.y), which is kappa form(p, u)
  on the curved surfaces and u.z in the plane, vanishes, so u - e(p, u) p
  projects any vector onto the tangent plane at p in all three planes;
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
* `make_arc` tests its endpoints and takes its extent on chord2, with no distance, and
  its turn t on det3(c, start - c, end - c) = sn^2 r sin t, on the chords from c;
* a counterclockwise arc is the part of its circle right of its chord,
  det3(start, end, x) <= 0, for any extent below 2 pi: a side test, not an angle;
* `circle_circle_intersection` rotates u once, to v: the right point takes 2 cos(beta) u - v.
* the points equidistant from a and b lie on the plane through the origin with
  normal l(a, b) = (dx, dy, -(dx (a.x + b.x) + dy (a.y + b.y)) / (a.z + b.z)), d = a - b:
  its z part is kappa (a.z - b.z) off the plane, read off the chart coordinates.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Sequence

# Each tolerance's comment opens with its unit: a length, a share (relative, or of
# a unit quantity), an angle (radians), a chord2 (= 2 vers of a length) or an area.
GEOM_EPS = 1e-10    # length: a disk's radius grows by this in containment tests
ANGLE_EPS = 1e-9    # angle: slack of cone and arc-span tests
MERGE_EPS = 10 * GEOM_EPS  # length: boundary vertices closer than this are merged
# share: relative residual of the surface equation an input point may carry
ON_SURFACE_EPS = 1e-9
# length: smallest_enclosing_disk counts a point this far past a disk's rim
# as inside it, and one this close to the rim of the last disk as support
SED_SLACK = 1e-9
# chord2: log_dir's DEGENERATE cut-off d < 1e-12, as chord2 = 2 vers d = d^2 (1 + O(d^2))
_DEGENERATE_CHORD2 = 1e-24
# chord2: a spherical chord2 = 2 - 2 p.q at or past this (p.q <= -1 + 1e-12) is ANTIPODAL
_ANTIPODAL_CHORD2 = 4.0 - 2e-12
_ZERO_NORM = 1e-14      # length: a vector shorter than this has no direction to normalize
_NORM_ROUNDING = 4.0 * 2.0 ** -52  # share: rounding of a norm q per z^2 + kappa^2 (x^2 + y^2)
_TANGENT_EPS = 1e-9     # share: a unit tangent's slack in length and off its tangent plane
_AXIS_EPS = 1e-9        # length: hyperboloid points with |x|, |y| below this frame on the x axis
_MISS_SLACK = 1e-9      # share: circles whose |cos beta| passes 1 by at most this still meet
_TOUCH_EPS = 1e-12      # share: a |cos beta| this close to 1 is a tangency, one point
_COLLINEAR_SIN = 1e-13  # angle (its sine): circumcenter gives None for chords meeting at less


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


# (sn, cs, tn, asn, radius_limit) per curvature sign
_MODELS = {
    0: (_identity, _one, _identity, _identity, math.inf),
    1: (math.sin, math.cos, math.tan, _asin_clamped, math.pi / 2),
    -1: (math.sinh, math.cosh, math.tanh, math.asinh, math.inf),
}


@dataclass(frozen=True)
class Geometry:
    """One of the three model planes, identified by curvature sign.

    sn, cs, tn = sn / cs and asn (the inverse of sn) are its model-space
    functions, derived from kappa: x, 1, x, x; sin, cos, tan, asin; or sinh,
    cosh, tanh, asinh.  tn stays finite where sn and cs overflow.
    radius_limit bounds disk radii: pi/2 keeps spherical disks inside an
    open hemisphere, where they are convex; elsewhere it is inf.
    """

    kappa: int
    name: str
    sn: Callable[[float], float] = field(init=False, repr=False, compare=False)
    cs: Callable[[float], float] = field(init=False, repr=False, compare=False)
    tn: Callable[[float], float] = field(init=False, repr=False, compare=False)
    asn: Callable[[float], float] = field(init=False, repr=False, compare=False)
    radius_limit: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in zip(("sn", "cs", "tn", "asn", "radius_limit"), _MODELS[self.kappa]):
            object.__setattr__(self, name, value)

    def vers(self, x: float) -> float:
        """2 sn(x/2)^2, that is x^2/2, 1 - cos x or cosh x - 1, exact near 0."""
        s = self.sn(0.5 * x)
        return 2.0 * s * s

    def check_radius(self, r: float, what: str = "r") -> None:
        if not (r > 0.0) or not math.isfinite(r):
            raise SpindleError("BAD_RANGE", f"{what} must be positive, got {r}")
        if r >= self.radius_limit:
            raise SpindleError(
                "BAD_RANGE", f"{what} must be below pi/2 on the sphere, got {r}"
            )

    def sn_cs(self, t: float, what: str = "t") -> tuple[float, float]:
        """(sn t, cs t) for 0 <= t < 2 radius_limit (pi on the sphere); BAD_RANGE
        names t off that range or past the float range of sn (H, t > 710.47)."""
        if not 0.0 <= t < 2.0 * self.radius_limit:
            raise SpindleError("BAD_RANGE", f"{what}={t} is off [0, {2.0 * self.radius_limit})")
        try:
            return self.sn(t), self.cs(t)
        except OverflowError:
            raise SpindleError("BAD_RANGE", f"sn {what} is past the float range at {what}={t}") from None

    def sn_radius(self, r: float) -> float:
        """sn r of a body's arc radius r, which check_radius accepts; past
        the float range of sn (H, r > 710.47) no body is built or measured,
        and BAD_RANGE names r."""
        self.check_radius(r)
        return self.sn_cs(r, "r")[0]

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
# array overhead to pay off; numpy serves only batch passes, as ball_hull's
# cover check and the Monte Carlo area do)

def det3(a, b, c) -> float:
    """Determinant of the 3x3 matrix with rows a, b, c."""
    return (
        a.x * (b.y * c.z - b.z * c.y)
        - a.y * (b.x * c.z - b.z * c.x)
        + a.z * (b.x * c.y - b.y * c.x)
    )


def _normalize_point(g: Geometry, x: float, y: float, z: float) -> Point:
    # scale onto z^2 + kappa (x^2 + y^2) = 1, exact in the plane (z = 1); a norm q
    # not above its rounding (nor nan or inf: `not >`) has no correct digit
    zz, xy = z * z, g.kappa * (x * x + y * y)
    q = zz + xy
    if (not q > _NORM_ROUNDING * (zz + g.kappa * xy) or q < _ZERO_NORM * _ZERO_NORM
            or (z <= 0.0 and g.kappa <= 0)):
        raise SpindleError("BAD_RANGE", f"no point of the {g.name} surface on ({x}, {y}, {z})")
    n = math.sqrt(q)
    return Point(x / n, y / n, z / n)


def as_point(p: Sequence[float], g: Geometry, index: int = 0) -> Point:
    """The 3-sequence p (a Point, a list, a numpy row) as a Point of Python
    floats, checked to be a finite point of g's surface: z = 1 within
    ON_SURFACE_EPS in the plane, else x^2 + y^2 + kappa z^2 = kappa within
    ON_SURFACE_EPS (x^2 + y^2 + z^2), with z > 0 on the hyperboloid.
    BAD_RANGE names the point by index otherwise, as it does a p that is
    not three numbers.  A point of the plane comes back with z = 1 exactly,
    which the kernel's walks then keep."""
    try:
        if isinstance(p, (str, bytes)):  # whose characters would parse as numbers
            raise TypeError
        x, y, z = map(float, p)
    except (TypeError, ValueError):
        raise SpindleError("BAD_RANGE", f"point {index} is not three numbers: {p!r}") from None
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise SpindleError("BAD_RANGE", f"point {index} is not finite: ({x}, {y}, {z})")
    if g.kappa == 0:
        on, z = abs(z - 1.0) <= ON_SURFACE_EPS, 1.0
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
    """Geodesic distance 2 asn(sqrt(chord2) / 2), as chord2 = 4 sn(d/2)^2.
    Past a right angle on the sphere asin flattens out, and d is taken as
    pi - 2 asin(|p + q| / 2), as |p + q| = 2 cos(d/2).  Raises ANTIPODAL
    for opposite spherical points."""
    dx, dy, dz = q.x - p.x, q.y - p.y, q.z - p.z
    c2 = dx * dx + dy * dy + g.kappa * dz * dz
    if g.kappa * c2 <= 2.0:
        return 2.0 * g.asn(0.5 * math.sqrt(max(c2, 0.0)))
    if c2 >= _ANTIPODAL_CHORD2:
        raise SpindleError("ANTIPODAL", "antipodal points have no unique geodesic")
    sx, sy, sz = q.x + p.x, q.y + p.y, q.z + p.z
    return math.pi - 2.0 * g.asn(0.5 * math.sqrt(sx * sx + sy * sy + sz * sz))


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
    # unit in the tangent form, and in the tangent plane: e(p, u) = 0
    unit = u.x * u.x + u.y * u.y + g.kappa * u.z * u.z
    e = p.z * u.z + g.kappa * (p.x * u.x + p.y * u.y)
    if abs(unit - 1.0) > _TANGENT_EPS or abs(e) > _TANGENT_EPS:
        raise SpindleError("BAD_TANGENT", "direction is not a unit tangent at p")


def _normalize_tangent(p: Point, ux: float, uy: float, uz: float, g: Geometry) -> Tangent:
    # project defensively onto the tangent plane, u - e(p, u) p, then
    # rescale to unit length in the tangent form
    e = p.z * uz + g.kappa * (p.x * ux + p.y * uy)
    ux, uy, uz = ux - e * p.x, uy - e * p.y, uz - e * p.z
    n = math.sqrt(max(ux * ux + uy * uy + g.kappa * uz * uz, 0.0))
    if n < _ZERO_NORM:
        raise SpindleError("DEGENERATE", "zero tangent vector")
    return Tangent(ux / n, uy / n, uz / n)


def exp_map(p: Point, u: Tangent, t: float, g: Geometry) -> Point:
    """Walk distance t from p along the geodesic with initial direction u."""
    _check_tangent(p, u, g)
    s, c = g.sn_cs(t)
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
    if g.kappa * c2 >= _ANTIPODAL_CHORD2:
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
    """Deterministic orthonormal tangent frame at p (t2 = perp of t1): t1 is
    the tangent part of (0, 0, 1), or of (1, 0, 0) where that part is short
    or on the hyperboloid's axis; in the plane the frame is the chart axes."""
    if g.kappa == 0:
        # the seed rule and perp give these axes too, but with -0.0 parts, with
        # which bench/run.py's mc_area read 1.26x its op_p50_ms (2-core Xeon VM)
        return Tangent(1.0, 0.0, 0.0), Tangent(0.0, 1.0, 0.0)
    seed = Point(0.0, 0.0, 1.0) if abs(p.z) < 0.9 or g.kappa < 0 else Point(1.0, 0.0, 0.0)
    if g.kappa < 0 and abs(p.x) < _AXIS_EPS and abs(p.y) < _AXIS_EPS:
        seed = Point(1.0, 0.0, 0.0)
    t1 = _normalize_tangent(p, seed.x, seed.y, seed.z, g)
    return t1, perp(p, t1, g)


def from_polar(g: Geometry, theta: float, t: float) -> Point:
    """Point at distance t from the chart origin, direction angle theta, in
    closed form: a walk's rescaling cancels to noise in H past t = 10."""
    s, c = g.sn_cs(t)
    return Point(s * math.cos(theta), s * math.sin(theta), c)


def midpoint(p: Point, q: Point, g: Geometry) -> Point:
    """Midpoint of the geodesic segment p q: (p + q) / sqrt(4 - kappa chord2),
    as form(p + q, p + q) = 4 - kappa chord2 on every surface.  Past a right
    angle on the sphere 4 - chord2 cancels, and the norm of p + q is taken
    instead (as distance switches to |q + p| there)."""
    c2 = chord2(p, q, g)
    if g.kappa * c2 >= _ANTIPODAL_CHORD2:
        raise SpindleError("ANTIPODAL", "antipodal points have no unique geodesic")
    x, y, z = p.x + q.x, p.y + q.y, p.z + q.z
    s = 1.0 / math.sqrt(4.0 - g.kappa * c2 if g.kappa * c2 <= 2.0 else x * x + y * y + z * z)
    return Point(x * s, y * s, z * s)


# --------------------------------------------------------------------------
# law of cosines and circles

def _intersection_angle(vers_d: float, r1: float, r2: float, g: Geometry) -> Optional[float]:
    """Angle beta at the center of the radius-r1 circle between the line of
    centers and a point of the radius-r2 circle about a center at vers d =
    chord2 / 2 from it, by the law of cosines: cos beta = (vers r1 - vers r2
    + cs r1 vers d) / (sn r1 sn d), sn d = sqrt(vers d (2 - kappa vers d)).
    None when the circles miss, 0 or pi when they touch."""
    sn_d = math.sqrt(max(vers_d * (2.0 - g.kappa * vers_d), 0.0))
    cosb = (g.vers(r1) - g.vers(r2) + g.cs(r1) * vers_d) / (g.sn(r1) * sn_d)
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
    takes a direction between) return ().  beta is _intersection_angle's,
    with vers d = chord2 / 2.
    """
    p, q, r1, r2 = c1.center, c2.center, c1.radius, c2.radius
    g.check_radius(r1)
    g.check_radius(r2)
    vers_d = 0.5 * chord2(p, q, g)
    if vers_d <= 0.5 * _DEGENERATE_CHORD2:
        if r1 == r2:
            raise SpindleError("COINCIDENT", "the circles coincide")
        return ()
    u = log_dir(p, q, g)  # raises ANTIPODAL before sn d can vanish
    beta = _intersection_angle(vers_d, r1, r2, g)
    return () if beta is None else _points_off_axis(p, u, r1, beta, g)


def _bisector_z(a: Point, b: Point, dx: float, dy: float, k: int) -> float:
    """The z part of the bisector normal l(a, b), for dx = a.x - b.x and
    dy = a.y - b.y, from the chart coordinates: rounding moves it by about
    eps t / s, for t = |dx (a.x + b.x)| + |dy (a.y + b.y)| and s = a.z + b.z.
    Where kappa (a.z - b.z), off by about eps s / 2, does better, 2 kappa t >=
    s^2 (only on the sphere, near the equator, where s can vanish), it is that."""
    u, v, s = dx * (a.x + b.x), dy * (a.y + b.y), a.z + b.z
    if 2.0 * k * (abs(u) + abs(v)) >= s * s:
        return k * (a.z - b.z)
    return -(u + v) / s


def circumcenter(a: Point, b: Point, c: Point, g: Geometry) -> Optional[Point]:
    """Center of the circle through three points, n / sqrt(q) on the side of a,
    for n = l(a, b) x l(b, c) and q = n.z^2 + kappa (n.x^2 + n.y^2), or None.

    None means the points are too close to geodesically collinear, q <= sin^2
    chord2(a, b) chord2(b, c) for a sine of 1e-13, at any scale, or (only on
    the hyperboloid) that n is nearly light-like and no compact circle holds them.
    """
    k = g.kappa
    abx, aby, bcx, bcy = a.x - b.x, a.y - b.y, b.x - c.x, b.y - c.y
    abz, bcz = _bisector_z(a, b, abx, aby, k), _bisector_z(b, c, bcx, bcy, k)
    nx, ny, nz = aby * bcz - abz * bcy, abz * bcx - abx * bcz, abx * bcy - aby * bcx
    nn = nx * nx + ny * ny
    q = nz * nz + k * nn
    ab2, bc2 = abx * abx + aby * aby + k * abz * abz, bcx * bcx + bcy * bcy + k * bcz * bcz
    if q <= _COLLINEAR_SIN ** 2 * ab2 * bc2 or q < _COLLINEAR_SIN * (nz * nz - k * nn):
        return None
    s = math.sqrt(q)
    if nz * a.z + k * (nx * a.x + ny * a.y) < 0.0:
        s = -s
    return Point(nx / s, ny / s, nz / s)


def smallest_enclosing_disk(
    points: Sequence[Point], g: Geometry
) -> tuple[Point, float, tuple[int, ...]]:
    """Smallest geodesic disk containing the points.

    Farthest-point pivoting, after Gärtner ("Fast and Robust Smallest
    Enclosing Balls", ESA 1999): from the disk at points[0], while the point
    f farthest from the center lies outside, the next disk is the smallest
    with f on its rim that holds the support (at most three points): the
    pair disk on f and the support point s farthest from f if it holds the
    rest (a disk through f and t has radius at least d(f, t) / 2, so no pair
    disk on a nearer t holds s), else the least by (misses the support,
    radius) of it and the disks through f and two support points.  The
    radius strictly grows, as f lay outside, so no support set comes back:
    the loop ends within n + C(n, 2) + C(n, 3) steps (NO_CONVERGENCE past
    them).  Valid in every plane since disks are convex (spherical radii
    stay below pi/2).  A disk is kept as its reach chord2 = 2 vers R and the
    bound 2 vers(R + SED_SLACK), so a containment test is one chord2 and no
    disk takes an inverse-trigonometric distance until the last.  Returns
    (center, radius, support), support indexing every point within
    SED_SLACK of the rim: the last disk's pins first, then index order.
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
            return disk_about(cc, (i, j, k))
        # no circle through the three (too close to collinear, or no proper
        # hyperbolic circle): the smallest pair disk grown to cover the third
        return min((disk_about(midpoint(points[a], points[b], g), (a, b, c))
                    for a, b, c in ((i, j, k), (i, k, j), (j, k, i))), key=lambda d: d[1])

    def misses(d) -> bool:
        # whether d misses a support point; those it was built on lie within its reach
        return any(chord2(d[0], points[k], g) > d[3] for k in support if k not in d[2])

    disk = (points[0], 0.0, (0,), shifted(0.0))
    for _ in range(n * (n * n + 5) // 6):  # n + C(n, 2) + C(n, 3)
        cx, cy, cz = disk[0]
        reach = [(x - cx) * (x - cx) + (y - cy) * (y - cy) + kappa * (z - cz) * (z - cz)
                 for x, y, z in points]  # chord2 from the center, written out
        far = max(reach)
        if far <= disk[3]:
            break
        f, support = reach.index(far), disk[2]
        s = max(support, key=lambda k: chord2(points[f], points[k], g))
        disk = disk_about(midpoint(points[f], points[s], g), (f, s))
        if misses(disk):
            disk = min([disk] + [triple(f, a, b) for a, b in combinations(support, 2)],
                       key=lambda d: (misses(d), d[1]))
    else:
        raise SpindleError("NO_CONVERGENCE", f"no smallest enclosing disk of {n} points")
    # radius: one distance, to the farthest pin; rim: off the last pass's chord2
    center, _, pins, _ = disk
    radius = distance(center, points[max(pins, key=reach.__getitem__)], g)
    rim = 2.0 * g.vers(max(radius - SED_SLACK, 0.0))
    first = [k for k in pins if reach[k] >= rim]
    return center, radius, tuple(first + [k for k, c in enumerate(reach) if c >= rim and k not in pins])


def signed_distance_to_geodesic(x: Point, base: Point, u: Tangent, g: Geometry) -> float:
    """Signed distance from x to the geodesic through base with direction u.

    Positive on the left of the oriented geodesic.
    """
    _check_tangent(base, u, g)
    # det3(base, u, x) is sn of the signed distance in every plane
    return g.asn(det3(base, u, x))
