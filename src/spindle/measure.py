"""Width, inradius and area of arc-bounded regions.

Area is exact: a signed geodesic-polygon part over the boundary vertices
plus closed-form circular-segment corrections, one per arc.  Width
(minimal double-normal length) treats every boundary piece as a circle
with an interval of outward normal lines, an arc as radius r and a vertex
as radius 0.  A rotating-calipers walk gives each line a coordinate, the
angle of its pole in one frame, reads every interval off stored points,
and tests the one candidate chord of each of its O(h) pairs, on the
geodesic through their centers, in the same coordinate.  The
inradius comes from a minimax reduction: the largest inscribed disk of an
intersection of radius-r disks is centered at the center of the smallest
disk enclosing their centers (DiskPolygon.centers_disk, the walk's base).

The Monte Carlo area check is written once for all three planes: area-uniform
disk samples have vers s uniform (sample_in_disk), and surface points satisfy
form(x - c, x - c) = 2 vers d(x, c) for the form of tangent_dot (_inside_disks).
Sample directions come from the half-angle tangent t = tan(theta / 2), as
((1 - t^2), 2 t) / (1 + t^2).  The estimate holds every theta (8 bytes per
sample) and one block of _BLOCK points at a time: it builds a block, counts
its hits and keeps only the count, so each numpy pass works on a few MB in
cache and no (n, 3) sample array is ever held.  A cap domain's samples off
its disk take no angle: one product per cap with its chord normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    ANGLE_EPS,
    GEOM_EPS,
    MERGE_EPS,
    Geometry,
    Point,
    SpindleError,
    Tangent,
    _negate,
    _normalize_point,
    chord2,
    det3,
    distance,
    exp_map,
    log_dir,
    rotate_tangent,
    tangent_basis,
    turn_angle,
)
from .regions import Arc, DiskPolygon, TWO_PI


# Monte Carlo samples per numpy pass, so that its temporaries stay a few MB,
# in cache, at any sample count
_BLOCK = 1 << 16


def disk_area(g: Geometry, rho: float) -> float:
    return TWO_PI * g.vers(rho)


# max(1, cs^2) tan^2(phi / 2) up to which _segment_minor sums its series
_SEGMENT_SERIES = 0.25


def _segment_minor(phi: float, rho: float, g: Geometry) -> float:
    """Area between a chord and its arc, central angle phi <= pi.

    With t = tan(phi / 2), V = vers rho and c = cs rho = 1 - kappa V the
    area is 2 kappa (atan(c t) - c atan t) (flat: rho^2 (phi - sin phi) / 2),
    which cancels when phi or rho is small.  Two forms keep the digits,
    written once for the three planes: for small t the series
    2 c sn^2 sum_k (-1)^(k+1) P_k t^(2k+1) / (2k+1), P_k = 1 + c^2 + ... +
    c^(2k-2), summed as 2 (c t) (sn t)^2 sum_k (-1)^(k+1) Q_k / (2k+1) with
    Q_k = P_k t^(2k-2) (Q_1 = 1, Q_k+1 = (c t)^2 Q_k + t^2k), so that no
    power of c or t leaves the float range as rho grows; else, with
    atan(c t) - atan t = -atan q, 2 V (atan t - t / (1 + c t^2)) - 2 kappa
    (atan q - q), q = kappa V t / (1 + c t^2).  That form cancels in turn as
    c falls to 1/3 and below, where the plain one is good again: it stays
    for c < 1/2 (spherical rho > pi/3).
    """
    v, c = g.vers(rho), g.cs(rho)
    t = math.tan(0.5 * phi)
    ct = c * t
    x, y = t * t, ct * ct
    if max(x, y) <= _SEGMENT_SERIES:
        total, qk, xk, n = 0.0, 1.0, x, 3  # qk and xk carry the sign (-1)^(k+1)
        while True:
            term = qk / n
            if total + term == total:  # the alternating tail is smaller than term
                st = g.sn(rho) * t
                return 2.0 * ct * st * st * total
            total += term
            qk, xk, n = -(y * qk + xk), -xk * x, n + 2
    if c < 0.5:
        return g.kappa * (2.0 * math.atan(c * t) - phi * c)
    d = 1.0 + c * x
    q = g.kappa * v * t / d
    # 2 (v (...)), not (2 v) (...): 2 v passes the float range before v does
    return 2.0 * (v * (math.atan(t) - t / d)) - 2.0 * g.kappa * (math.atan(q) - q)


def segment_area(phi: float, rho: float, g: Geometry) -> float:
    """Area between an arc of central angle phi and its chord, on the arc
    side; for phi > pi this is the major segment (contains the center)."""
    if phi < 0.0 or phi > TWO_PI + ANGLE_EPS:
        raise SpindleError("BAD_RANGE", f"segment angle out of range: {phi}")
    if phi >= TWO_PI - ANGLE_EPS:
        return disk_area(g, rho)
    if phi > math.pi:
        return disk_area(g, rho) - _segment_minor(TWO_PI - phi, rho, g)
    return _segment_minor(phi, rho, g)


def _excess(y: float, x: float, g: Geometry) -> float:
    # area 2 atan2(y, x) of a geodesic triangle given by its half-angle
    # tangent y / x (x > 0), or the flat limit 2 y / x
    return 2.0 * math.atan2(y, x) if g.kappa else 2.0 * y / x


def _polygon_area(verts: Sequence[Point], g: Geometry) -> float:
    """Signed area of the geodesic polygon with the given CCW vertex cycle.

    Sums the signed areas of the fan of triangles (a, b, c) = (v_0, v_i,
    v_i+1), so reflex vertices (the star-shaped cap-domain cycles) need no
    care.  Each has tan(kappa A / 2) = kappa det(a, b, c) / (1 + cs ab +
    cs bc + cs ca) (Van Oosterom and Strackee on the sphere; det / 2 when
    flat), with cs = 1 - kappa chord2 / 2 and det(a, b - a, c - a) taken on
    the chords: unlike Gauss-Bonnet, 2 pi minus the total turning, it keeps
    its digits on small polygons.
    """
    if len(verts) <= 2:
        return 0.0
    a = verts[0]
    half = 0.5 * g.kappa
    ab = chord2(a, verts[1], g)
    total = 0.0
    for b, c in zip(verts[1:], verts[2:]):
        ac = chord2(a, c, g)
        ux, uy, uz = b.x - a.x, b.y - a.y, b.z - a.z
        vx, vy, vz = c.x - a.x, c.y - a.y, c.z - a.z
        det = a.x * (uy * vz - uz * vy) - a.y * (ux * vz - uz * vx) + a.z * (ux * vy - uy * vx)
        total += _excess(det, 4.0 - half * (ab + ac + chord2(b, c, g)), g)
        ab = ac
    return total


def area(region) -> float:
    """Exact area of a DiskPolygon or CapDomain (a full disk: 0 + its 2 pi segment)."""
    g = region.geometry
    arcs: Sequence[Arc] = region.arcs
    verts = [a.start for a in arcs]
    total = _polygon_area(verts, g)
    for a in arcs:
        total += segment_area(a.extent, a.radius, g)
    return total


# --------------------------------------------------------------------------
# width

@dataclass(frozen=True)
class ThicknessWitness:
    """Minimal double normal: its length and the chord realizing it."""

    value: float
    kind: str  # "vertex-arc" | "arc-arc": a chord between two vertices is never the shortest
    a: Point
    b: Point


def angle_in(theta, lo: float, width: float, tol: float = ANGLE_EPS):
    """Whether the angle theta lies in the circular interval [lo, lo + width],
    with slack tol at both ends; theta may be a float or a numpy array."""
    a = (theta - lo) % TWO_PI
    return (a <= width + tol) | (a >= TWO_PI - tol)


def _intervals_overlap(lo1: float, w1: float, lo2: float, w2: float) -> Optional[float]:
    """A point common to two circular intervals [lo, lo+w], or None."""
    if angle_in(lo2, lo1, w1):
        return lo2
    if angle_in(lo1, lo2, w2):
        return lo1
    return None


_Frame = tuple[Tangent, Tangent]


def _pieces(poly: DiskPolygon) -> list[tuple[Point, float]]:
    """The boundary pieces (center, rho), vertices first, then arcs, both in
    arc order: a vertex is a circle of radius 0, an arc one of radius r."""
    return [(a.start, 0.0) for a in poly.arcs] + [(a.center, poly.r) for a in poly.arcs]


def _frame(x: Point, g: Geometry) -> _Frame:
    """The walk's frame at its base x: tangent_basis(x) scaled to euclidean
    unit length, in which a pole's angle runs as in tangent_basis.  Far out
    on the hyperboloid the parts of tangent_basis grow like Z = x.z, and a
    pole dotted with them rounds by eps Z^3, dotted with these by eps Z^2."""
    t1, t2 = tangent_basis(x, g)
    n1, n2 = math.hypot(*t1), math.hypot(*t2)
    return Tangent(t1.x / n1, t1.y / n1, t1.z / n1), Tangent(t2.x / n2, t2.y / n2, t2.z / n2)


def _coordinate(a: Point, b: Point, frame: _Frame) -> float:
    """The line coordinate of the geodesic from a toward b: the angle of its
    pole a x b in the frame (_frame), the pole taken as a x (b - a), which
    keeps its digits when b is close to a.  Reversed, a line adds pi."""
    dx, dy, dz = b.x - a.x, b.y - a.y, b.z - a.z
    px, py, pz = a.y * dz - a.z * dy, a.z * dx - a.x * dz, a.x * dy - a.y * dx
    s1, s2 = frame
    return math.atan2(px * s2.x + py * s2.y + pz * s2.z, px * s1.x + py * s1.y + pz * s1.z)


def _partners(arcs: Sequence[Arc], frame: _Frame
              ) -> tuple[list[tuple[int, int]], dict[int, tuple[float, float]]]:
    """The pairs (i, j) of pieces, i < j, j an arc, in row-major order, whose
    normal lines may meet head to head, and each piece's interval (lo,
    width) of line coordinates, by piece.  Round the boundary (vertex k, arc
    k, vertex k + 1, ...) each piece's normal lines run from its start line
    to the next piece's, and every start line runs from a center to the
    vertex v_k it starts at: vertex k's from c_k-1, arc k's from c_k.  A
    chord normal to pieces f and g has a coordinate in f's interval that pi
    takes into g's: one two-pointer pass merges the intervals, unwrapped,
    with their copies shifted by pi, and keeps each pair that meets within
    ANGLE_EPS.  MALFORMED_BOUNDARY: the start lines do not wind once forward.
    """
    h = len(arcs)
    m = 2 * h
    order = [k + h * arc for k in range(h) for arc in (0, 1)]  # vertex k, then arc k
    theta = []
    for k, arc in enumerate(arcs):
        theta += (_coordinate(arcs[k - 1].center, arc.start, frame), _coordinate(arc.center, arc.start, frame))
    # each step forward, back by at most ANGLE_EPS: a step further back
    # reads as one more turn
    steps = [(b - a + ANGLE_EPS) % TWO_PI - ANGLE_EPS for a, b in zip(theta, theta[1:] + theta[:1])]
    if round(sum(steps) / TWO_PI) != 1:
        raise SpindleError("MALFORMED_BOUNDARY", "the boundary normals do not turn once forward")
    ends = list(accumulate(steps, initial=theta[0]))
    # the shifted intervals [shifted[q], shifted[q + 1]], unrolled over two turns
    shifted = [e - math.pi for e in ends[:m]] + [e + math.pi for e in ends]
    pairs = set()
    q = 0
    for p in range(1, m, 2):  # the arcs: every pair kept has one
        lo, hi = ends[p] - ANGLE_EPS, ends[p + 1] + ANGLE_EPS
        while shifted[q + 1] < lo:
            q += 1
        for k in range(q, 2 * m):
            if shifted[k] > hi:
                break
            a, b = order[p], order[k % m]
            if a != b:
                pairs.add((a, b) if a < b else (b, a))
    return sorted(pairs), dict(zip(order, zip(theta, steps)))


def _normal_to_both(cf: Point, cg: Point, span_f: tuple, span_g: tuple, frame: _Frame) -> bool:
    """Whether the chord from cf toward cg is normal to both pieces: its
    line coordinate lies in f's interval (lo, width) and, plus pi, in g's."""
    theta = _coordinate(cf, cg, frame)
    return angle_in(theta, *span_f) and angle_in(theta + math.pi, *span_g)


def _common_normals(poly: DiskPolygon, f: int, k: int) -> Optional[tuple[Tangent, Tangent]]:
    """Outward normals of pieces f and k at their common center, one
    direction in f's span whose reverse is in k's, or None: every chord
    through a common center is normal to both circles.  Each span is a turn
    from a first normal, log_dir(c_k, start) on arc k, the turn from
    -log_dir(v, c_k-1) to -log_dir(v, c_k) at vertex k, taken as an angle in
    the frame at its center."""
    g, arcs, h = poly.geometry, poly.arcs, len(poly.arcs)

    def span(i: int) -> tuple[Point, Tangent, float]:
        if i >= h:
            a = arcs[i - h]
            return a.center, log_dir(a.center, a.start, g), a.extent
        v = arcs[i].start
        n_in = _negate(log_dir(v, arcs[i - 1].center, g))
        # signed, not reduced mod 2 pi: a smooth vertex turning by -1e-17
        # must not read as a full cone
        return v, n_in, turn_angle(v, n_in, _negate(log_dir(v, arcs[i].center, g)), g)

    (cf, uf, sf), (cg, ug, sg) = span(f), span(k)
    ef, eg = tangent_basis(cf, g)[0], tangent_basis(cg, g)[0]
    phi = _intervals_overlap(turn_angle(cf, ef, uf, g) % TWO_PI, sf,
                             turn_angle(cg, eg, ug, g) % TWO_PI + math.pi, sg)
    if phi is None:
        return None
    return rotate_tangent(cf, ef, phi, g), rotate_tangent(cg, eg, phi + math.pi, g)


def thickness(poly: DiskPolygon) -> ThicknessWitness:
    """Width of a disk polygon: the shortest double normal.

    A double normal is a chord meeting the boundary perpendicularly at both
    ends.  Each boundary piece is a circle (center, rho) with an interval of
    outward normal lines: an arc has rho = r, a vertex rho = 0 and the lines
    between its two arcs' normals.  A chord normal to two pieces lies on the
    geodesic through their centers, so each pair has one candidate, of
    length rho_F + rho_G - d, kept when its line from cf toward cg has a
    coordinate in f's interval that pi takes into g's; only a kept chord
    takes a distance, and only the winner builds its feet.  Centers within
    MERGE_EPS (a vertex at an arc's center, as at w = r) take the turn-angle
    test of _common_normals.  No two vertices are paired, as a polygon's
    width is a vertex-edge pair (Houle and Toussaint, IEEE TPAMI 10(5),
    1988): inside both cones their chord is a local maximum of the strip
    width, and on the edge of v1's cone, normal to its arc about c, the
    chord from v2 to that arc is as long, r - d(c, v2) = d(v1, v2).  Only
    the O(h) pairs of _partners are tested, a walk in the manner of rotating
    calipers (Toussaint, MELECON 1983), in row-major order: on an exact tie
    (at w = r, one chord of the regular triangle) the vertex-arc chord is
    reported.  The line coordinate runs forward along the lines through c
    when cs d(x, c) > 0, so its base x is the incircle center: on the sphere
    every arc center lies within r - rho < pi/2 of it, and every vertex
    within pi/2 (one farther would lie past r from a rim center).
    """
    if not isinstance(poly, DiskPolygon):
        raise SpindleError("BAD_RANGE", "width is defined for disk polygons")
    g = poly.geometry
    r = poly.r
    if poly.is_full_disk:
        c = poly.centers[0]
        u = tangent_basis(c, g)[0]
        return ThicknessWitness(
            2.0 * r, "arc-arc", exp_map(c, u, r, g), exp_map(c, _negate(u), r, g)
        )

    pieces = _pieces(poly)
    frame = _frame(poly.centers_disk[0], g)
    pairs, spans = _partners(poly.arcs, frame)
    merge = 2.0 * g.vers(MERGE_EPS)
    best, win = math.inf, None
    for f, k in pairs:
        (cf, rf), (cg, rg) = pieces[f], pieces[k]
        common = chord2(cf, cg, g) <= merge
        if not common and not _normal_to_both(cf, cg, spans[f], spans[k], frame):
            continue
        # the chord runs from each end toward the other center
        length = rf + rg if common else rf + rg - distance(cf, cg, g)
        # zero length: a vertex on its own arc
        if length <= MERGE_EPS or length >= best:
            continue
        normals = _common_normals(poly, f, k) if common else None
        if common and normals is None:
            continue
        best, win = length, (cf, rf, cg, rg, normals)

    if win is None:
        raise SpindleError("MALFORMED_BOUNDARY", "no double normal found")
    cf, rf, cg, rg, normals = win
    if normals is None:
        normals = (log_dir(cf, cg, g) if rf else None), log_dir(cg, cf, g)
    a = exp_map(cf, normals[0], rf, g) if rf else cf  # a vertex is its own foot
    return ThicknessWitness(best, "arc-arc" if rf else "vertex-arc", a, exp_map(cg, normals[1], rg, g))


# --------------------------------------------------------------------------
# inradius

@dataclass(frozen=True)
class Incircle:
    """Largest inscribed disk; contacts are its touching points on the
    boundary and contact_arcs the arc each lies on, one per distinct arc
    center on the rim of the centers' enclosing disk, its pins first."""

    center: Point
    radius: float
    contacts: tuple[Point, ...]
    contact_arcs: tuple[int, ...]


def incircle(poly: DiskPolygon) -> Incircle:
    if not isinstance(poly, DiskPolygon):
        raise SpindleError("BAD_RANGE", "inradius is defined for disk polygons")
    g = poly.geometry
    r = poly.r
    x, big_r, arcs = poly.centers_disk
    centers = poly.centers
    touch = tuple(exp_map(centers[i], log_dir(centers[i], x, g), r, g) for i in arcs)
    return Incircle(x, r - big_r, touch, arcs)


# --------------------------------------------------------------------------
# Monte Carlo area

# length: outward pad on the bounding disk's radius, so rounding cannot cut the region
_BOUND_PAD = 1e-9
# length: an arc center this close to the disk's center gives no direction away from it:
# the arc's far point is then taken at the arc's radius
_CENTER_EPS = 1e-12


def bounding_disk(region) -> tuple[Point, float]:
    """A geodesic disk certified to contain the region (not minimal)."""
    g = region.geometry
    arcs: Sequence[Arc] = region.arcs
    if len(arcs) == 1 and arcs[0].extent >= TWO_PI - ANGLE_EPS:
        return arcs[0].center, arcs[0].radius + _BOUND_PAD
    # vertex centroid, pushed back onto the surface
    sx, sy, sz = (sum(c) / len(arcs) for c in zip(*(a.start for a in arcs)))
    o = _normalize_point(g, sx, sy, sz)
    radius = 0.0
    for a in arcs:
        radius = max(radius, distance(o, a.start, g), distance(o, a.end, g))
        d_oc = distance(o, a.center, g)
        if d_oc <= _CENTER_EPS:
            radius = max(radius, a.radius)
            continue
        far = exp_map(a.center, _negate(log_dir(a.center, o, g)), a.radius, g)
        if det3(a.start, a.end, far) <= 0.0:  # right of the chord: on the arc
            radius = max(radius, distance(o, far, g))
    return o, radius + _BOUND_PAD


def _check_count(name: str, count, least: int) -> None:
    # count must be an integer (numpy's too), not a float or a bool, and >= least
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < least:
        raise SpindleError("BAD_RANGE", f"{name} must be an integer >= {least}, got {count!r}")


def sample_in_disk(
    o: Point, big_r: float, count: int, rng: np.random.Generator, g: Geometry,
    theta: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Area-uniform samples in the disk B(o, big_r), as an (n, 3) array of
    embedded points.

    The disk of radius s has area 2 pi vers s, so v = vers s is uniform on
    [0, vers big_r]; then cs s = 1 - kappa v and sn s = sqrt(v (2 - kappa v)),
    and the sample is cs s o + sn s (cos theta t1 + sin theta t2).  The
    direction takes t = tan(theta / 2), cos theta = (1 - t^2) / (1 + t^2)
    and sin theta = 2 t / (1 + t^2): one vectorized tan in place of cos and
    sin, which numpy evaluates by scalar libm calls.  All count theta are
    drawn first, then all v, unless the caller passes the count theta it has
    drawn already; rng then draws only v.  BAD_RANGE names a count that is
    not an integer >= 0, or a radius not in [0, pi) on the sphere, not
    finite, or so large that vers R (2 - kappa vers R) leaves the float
    range (in H, R > 355.58), where samples would turn nan.
    """
    _check_count("count", count, 0)
    g.sn_cs(big_r, "disk radius")
    top = g.vers(big_r)
    if not math.isfinite(top * (2.0 - g.kappa * top)):
        raise SpindleError("BAD_RANGE", f"disk radius={big_r}: sn of its samples leaves the float range")
    if theta is None:
        theta = rng.uniform(0.0, TWO_PI, count)
    v = top * rng.uniform(0.0, 1.0, count)
    t = np.tan(0.5 * theta)
    t2 = t * t
    sn = np.sqrt(v * (2.0 - g.kappa * v)) / (1.0 + t2)
    coef = np.stack([1.0 - g.kappa * v, sn * (1.0 - t2), sn * (2.0 * t)], axis=1)
    return coef @ np.array([o, *tangent_basis(o, g)])


def _form_weights(g: Geometry) -> np.ndarray:
    # form(a, b) = a_x b_x + a_y b_y + kappa a_z b_z, the bilinear form of
    # tangent_dot; for surface points form(x - c, x - c) = 2 vers d(x, c)
    return np.array([1.0, 1.0, float(g.kappa)])


def _inside_disks(pts: np.ndarray, centers: Sequence[Point], radius: float, g: Geometry,
                  xx: Optional[np.ndarray] = None) -> np.ndarray:
    """Which rows of pts lie in every disk B(c, radius), by
    form(x, x) - 2 form(x, c) + form(c, c) <= 2 vers(radius + GEOM_EPS); xx is
    form(x, x) per row, when the caller has it already."""
    w = _form_weights(g)
    if xx is None:
        xx = (pts * pts) @ w
    bound = 2.0 * g.vers(radius + GEOM_EPS)
    inside = np.ones(len(pts), dtype=bool)
    for c in centers:
        wc = w * c
        inside &= xx - pts @ (2.0 * wc) <= bound - wc @ c
    return inside


def _inside_cap_domain(pts: np.ndarray, dom, g: Geometry) -> np.ndarray:
    """CapDomain.contains over a point batch: the points off the disk
    B(p, rho) are tested against each cap, its chord side by one product
    with n and its lens by _inside_disks."""
    xx = (pts * pts) @ _form_weights(g)
    inside = _inside_disks(pts, [dom.center], dom.rho, g, xx)
    off = np.flatnonzero(~inside)
    pts, xx = pts[off], xx[off]
    capped = np.zeros(len(off), dtype=bool)
    for cl, cr, n in dom.caps:
        side = pts @ n >= 0.0
        if side.any():
            capped |= side & _inside_disks(pts, [cl, cr], dom.r, g, xx)
    inside[off[capped]] = True
    return inside


def area_monte_carlo(
    region, samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo area estimate and its standard error.

    Samples area-uniformly in a bounding disk (sample_in_disk) and counts
    hits with the batch forms of DiskPolygon.contains and
    CapDomain.contains.  The draws are those of one sample_in_disk call,
    all theta and then all v; the points are built and counted _BLOCK at a
    time, each block's v drawn as it is built.
    """
    _check_count("samples", samples, 1)
    g = region.geometry
    o, big_r = bounding_disk(region)
    theta = rng.uniform(0.0, TWO_PI, samples)
    hits = 0
    for s in range(0, samples, _BLOCK):
        tb = theta[s:s + _BLOCK]
        pts = sample_in_disk(o, big_r, len(tb), rng, g, tb)
        if isinstance(region, DiskPolygon):
            hits += int(_inside_disks(pts, region.centers, region.r, g).sum())
        else:
            hits += int(_inside_cap_domain(pts, region, g).sum())
    p_hat = hits / samples
    a_bound = disk_area(g, big_r)
    estimate = a_bound * p_hat
    se = a_bound * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return estimate, se
