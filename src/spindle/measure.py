"""Width, inradius and area of arc-bounded regions.

Area is exact: a signed geodesic-polygon part over the boundary vertices
plus closed-form circular-segment corrections, one per arc.  Width
(minimal double-normal length) treats every boundary piece as a circle
with a span of outward normals, an arc as radius r and a vertex as radius
0, and checks the one candidate chord of each pair of pieces, on the
geodesic through their centers: two form products turn every center
toward every other and drop the pairs whose normals miss a span by more
than a rounding slack, and the scalar test runs on the few pairs left.  The
inradius comes from a minimax reduction: the largest inscribed disk of an
intersection of radius-r disks is centered at the center of the smallest
disk enclosing their centers.

The Monte Carlo area check is written once for all three planes: area-uniform
disk samples have vers s uniform (sample_in_disk), and surface points satisfy
form(x - c, x - c) = 2 vers d(x, c) for the form of tangent_dot (_inside_disks).
Sample directions come from the half-angle tangent t = tan(theta / 2), as
((1 - t^2), 2 t) / (1 + t^2), and both the sampler and the hit count run in
blocks of _BLOCK rows, so that each numpy pass works on a few MB in cache
rather than streaming 1e6-row temporaries through memory.  A cap domain's
samples off its disk take no angle: one product per cap with its chord normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
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
    _distinct,
    _negate,
    _normalize_point,
    chord2,
    det3,
    distance,
    exp_map,
    frame_angle,
    log_dir,
    smallest_enclosing_disk,
    tangent_basis,
    tangent_from_angle,
    turn_angle,
    turn_toward,
)
from .regions import Arc, DiskPolygon, TWO_PI, angle_in


# rows per numpy pass (screen pairs, Monte Carlo samples), so that its
# temporaries stay a few MB, in cache, at any problem size
_BLOCK = 1 << 16


def disk_area(g: Geometry, rho: float) -> float:
    return TWO_PI * g.vers(rho)


# max(1, cs^2) tan^2(phi / 2) up to which _segment_minor sums its series
_SEGMENT_SERIES = 0.25
# the series stops at the first term this small relative to the sum so far
_SERIES_STOP = 1e-17
# central angles this close to pi measure exactly half the disk
_HALF_CIRCLE_EPS = 1e-9


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
            total += term
            if abs(term) <= _SERIES_STOP * total:
                st = g.sn(rho) * t
                return 2.0 * ct * st * st * total
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
    if abs(phi - math.pi) <= _HALF_CIRCLE_EPS:
        return 0.5 * disk_area(g, rho)
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
    kind: str  # "vertex-arc" | "arc-arc" | "vertex-vertex"
    a: Point
    b: Point


def _intervals_overlap(lo1: float, w1: float, lo2: float, w2: float) -> Optional[float]:
    """A point common to two circular intervals [lo, lo+w], or None."""
    if angle_in(lo2, lo1, w1):
        return lo2
    if angle_in(lo1, lo2, w2):
        return lo1
    return None


_KINDS = ("vertex-vertex", "vertex-arc", "arc-arc")  # by the number of arc ends

# span slack of the screen: the turns it judges differ from turn_toward's by
# rounding, <= 3.1e-9 on the width corpus (hyperbolic rings to D = 6) and
# 4.2e-8 on rings of near twins to D = 6; past that it grows like cosh^3 D,
# to 2.3e-6 at D = 8 (the chord-tensor screen's: 2.1e-6)
_SCREEN_EPS = 1e-6
# centers closer than this pass the screen unjudged: the common-center branch stays scalar
_SCREEN_NEAR = 1e-6
# rounding of a screen form product per Z^2, Z the largest center coordinate:
# measured <= 1.25 eps Z^2 on the short chords of hyperbolic rings to D = 8
_SCREEN_ROUNDING = 4.0 * 2.0 ** -52

_Piece = tuple[Point, float, Tangent, float]  # (center, rho, u0, span)
# a row (c, u) in the column orders (y, z, x) and (z, x, y): c x u by columns
_ROTATIONS = np.array([1, 2, 0, 4, 5, 3, 2, 0, 1, 5, 3, 4])


def _pieces(poly: DiskPolygon) -> list[_Piece]:
    """The boundary pieces, vertices first, then arcs, both in arc order.

    A vertex v's outward normal off the arc about c is the tangent part of
    v - c at v, (v - c) - kappa form(v - c, v) v, over sn r: parallel to
    -log_dir(v, c) for any v, and of unit length for v on the circle.  Its
    length is read nowhere (turn_angle, turn_toward and the screen's arctan2
    take only its direction), so it is not normalized.
    """
    g = poly.geometry
    arcs = poly.arcs
    kappa, s = g.kappa, 1.0 / g.sn(poly.r)

    def normal(v: Point, c: Point) -> Tangent:
        dx, dy, dz = v.x - c.x, v.y - c.y, v.z - c.z
        t = kappa * (dx * v.x + dy * v.y + kappa * dz * v.z)
        return Tangent((dx - t * v.x) * s, (dy - t * v.y) * s, (dz - t * v.z) * s)

    vert_pieces = []
    for k, arc in enumerate(arcs):
        v = arc.start
        n_in = normal(v, arcs[k - 1].center)
        # signed, not reduced mod 2 pi: a smooth vertex turning by -1e-17
        # must not read as a full cone
        vert_pieces.append((v, 0.0, n_in, turn_angle(v, n_in, normal(v, arc.center), g)))
    arc_pieces = [(a.center, poly.r, a.u0, a.extent) for a in arcs]
    return vert_pieces + arc_pieces


def _screen(pieces: Sequence[_Piece], g: Geometry) -> np.ndarray:
    """Which pairs of pieces may bound a double normal, as a symmetric
    boolean matrix: a superset of the pairs _chord_normals accepts.

    turn_toward from c_f toward c_g is the angle of (along, left) =
    (form(u_f, c_g - c_f), det3(c_f, u_f, c_g - c_f)), here two matrix
    products per block of rows (_BLOCK pairs), (U w) C^T and (C x U) C^T,
    minus their values at c_g = c_f (zero up to rounding, but for form(u_f,
    c_f) in the plane, where w drops z); two vertices flip both signs.  A
    pair survives when at each end its turn falls in the span within
    _SCREEN_EPS or the tangent part T of its chord, T^2 = along^2 + left^2 =
    chord2 (1 - kappa chord2 / 4), is short: at most b (1 + b), b = 2 vers
    _SCREEN_NEAR (so every chord2 <= b passes), or so short that the
    products' rounding, _SCREEN_ROUNDING Z^2, could turn it by _SCREEN_EPS /
    2 (T 2e-4 at D = 6 in H, 1.1e-2 at D = 8).
    """
    m = len(pieces)
    cu = np.fromiter(chain.from_iterable(p[0] + p[2] for p in pieces), float, 6 * m).reshape(m, 6)
    top = np.fromiter([p[3] for p in pieces], float, m)[:, None] + _SCREEN_EPS
    c = cu[:, :3]
    r = cu.take(_ROTATIONS, axis=1)
    uv = np.empty((2, m, 3))  # rows u w and c x u
    np.multiply(cu[:, 3:], _form_weights(g), out=uv[0])
    np.subtract(r[:, :3] * r[:, 9:], r[:, 6:9] * r[:, 3:6], out=uv[1])
    row_terms = (uv * c).sum(2)[:, :, None]
    h = m // 2  # the vertices, which _pieces puts first
    b = 2.0 * g.vers(_SCREEN_NEAR)
    reach = max(b * (1.0 + b), (2.0 * _SCREEN_ROUNDING * np.abs(c).max() ** 2 / _SCREEN_EPS) ** 2)
    keep = np.empty((m, m), dtype=bool)
    rows = max(1, _BLOCK // m)
    for s in range(0, m, rows):
        f = slice(s, s + rows)
        t = uv[:, f] @ c.T
        t -= row_terms[:, f]
        t[:, :max(h - s, 0), :h] *= -1.0  # rows and columns that are vertices
        along, left = t
        turn = np.arctan2(left, along)  # in (-pi, pi]; spans are >= 0 but for rounding
        top_f = top[f]
        keep[f] = ((turn <= top_f) & ((turn >= -_SCREEN_EPS) | (turn <= top_f - TWO_PI))
                   | (along * along + left * left <= reach))
    return keep & keep.T


def _chord_normals(pf: _Piece, pg: _Piece, common: bool, g: Geometry
                   ) -> Optional[tuple[Tangent, Tangent]]:
    """Outward normals at the two ends of the pair's candidate chord, or
    None when it is not normal to both pieces; common: the centers merge."""
    (cf, rf, uf, sf), (cg, rg, ug, sg) = pf, pg
    if common:
        # every chord through a common center is normal to both circles:
        # take a direction in one span whose reverse is in the other
        phi = _intervals_overlap(
            frame_angle(cf, uf, g), sf, frame_angle(cg, ug, g) + math.pi, sg
        )
        if phi is None:
            return None
        return tangent_from_angle(cf, phi, g), tangent_from_angle(cg, phi + math.pi, g)
    # two vertices: each normal points away from the other vertex
    flip = 0.0 if rf + rg else math.pi
    if not angle_in(turn_toward(cf, uf, cg, g) + flip, 0.0, sf):
        return None
    if not angle_in(turn_toward(cg, ug, cf, g) + flip, 0.0, sg):
        return None
    nf, ng = log_dir(cf, cg, g), log_dir(cg, cf, g)
    return (_negate(nf), _negate(ng)) if flip else (nf, ng)


def thickness(poly: DiskPolygon) -> ThicknessWitness:
    """Width of a disk polygon: the shortest double normal.

    A double normal is a chord meeting the boundary perpendicularly at both
    ends.  Each boundary piece is a circle (center, rho, u0, span) whose
    outward normals leave the center turned 0..span from u0: an arc has
    rho = r, a vertex rho = 0 and the turn between its two arcs' normals.
    A chord normal to two pieces lies on the geodesic through their centers,
    so each pair has one candidate, of length rho_F + rho_G - d (two
    vertices: d), kept when both end normals fall in their pieces' spans.
    An array screen (_screen) first drops, in numpy passes over all ~2h^2
    pairs, those whose normals certainly miss a span; only the survivors
    get the scalar test.
    """
    if not isinstance(poly, DiskPolygon):
        raise SpindleError("BAD_RANGE", "width is defined for disk polygons")
    g = poly.geometry
    r = poly.r
    h = len(poly.arcs)
    if poly.is_full_disk:
        c = poly.centers[0]
        u = tangent_basis(c, g)[0]
        return ThicknessWitness(
            2.0 * r, "arc-arc", exp_map(c, u, r, g), exp_map(c, _negate(u), r, g)
        )

    pieces = _pieces(poly)
    keep = _screen(pieces, g)
    # vertex-arc pairs first, then arc-arc, then vertex-vertex, each in
    # product / combinations order: on an exact tie (at w = r one chord of
    # the regular triangle is all three) the first family found is the one
    # reported
    i, j = np.nonzero(keep)
    upper = i < j
    i, j = i[upper], j[upper]
    arc_ends = (i >= h).astype(int) + (j >= h)
    order = np.argsort((arc_ends + 2) % 3, kind="stable")  # arc ends 1, 2, then 0

    def foot(c: Point, rho: float, u: Tangent) -> Point:
        return exp_map(c, u, rho, g) if rho else c

    best: Optional[ThicknessWitness] = None
    for f, k in zip(i[order].tolist(), j[order].tolist()):
        pf, pg = pieces[f], pieces[k]
        cf, rf, cg, rg = pf[0], pf[1], pg[0], pg[1]
        d = distance(cf, cg, g)
        common = d <= MERGE_EPS
        # with an arc end the chord runs toward the other center
        length = (rf + rg if common else rf + rg - d) if rf + rg else d
        # zero length: a vertex on its own arc, or two merged vertices
        if length <= MERGE_EPS or (best is not None and length >= best.value):
            continue
        normals = _chord_normals(pf, pg, common, g)
        if normals is None:
            continue
        kind = _KINDS[(rf > 0.0) + (rg > 0.0)]
        best = ThicknessWitness(length, kind, foot(cf, rf, normals[0]), foot(cg, rg, normals[1]))

    if best is None:
        raise SpindleError("MALFORMED_BOUNDARY", "no double normal found")
    return best


# --------------------------------------------------------------------------
# inradius

@dataclass(frozen=True)
class Incircle:
    """Largest inscribed disk; contacts are its touching points on the
    boundary, contact_arcs the index of the arc each contact lies on, and
    support the indices of the arcs it touches."""

    center: Point
    radius: float
    contacts: tuple[Point, ...]
    contact_arcs: tuple[int, ...]
    support: tuple[int, ...]


# arcs whose centers lie within this of the centers' enclosing circle support the incircle
_SUPPORT_EPS = 1e-9


def incircle(poly: DiskPolygon) -> Incircle:
    if not isinstance(poly, DiskPolygon):
        raise SpindleError("BAD_RANGE", "inradius is defined for disk polygons")
    g = poly.geometry
    r = poly.r
    centers = poly.centers
    distinct = [centers[i] for i in _distinct(centers, g)]
    if len(distinct) == 1:
        return Incircle(distinct[0], r, (), (), (0,))
    x, big_r, _ = smallest_enclosing_disk(distinct, g)
    rho = r - big_r
    # |d(c, x) - big_r| <= _SUPPORT_EPS, on chord2 = 2 vers d (vers is monotone)
    lo, hi = 2.0 * g.vers(max(big_r - _SUPPORT_EPS, 0.0)), 2.0 * g.vers(big_r + _SUPPORT_EPS)
    support = tuple(i for i, c in enumerate(centers) if lo <= chord2(c, x, g) <= hi)
    touch = [exp_map(centers[i], log_dir(centers[i], x, g), r, g) for i in support]
    keep = _distinct(touch, g)  # in support order
    return Incircle(x, rho, tuple(touch[k] for k in keep), tuple(support[k] for k in keep), support)


# --------------------------------------------------------------------------
# Monte Carlo area

# outward pad on the bounding disk's radius, so rounding cannot cut the region
_BOUND_PAD = 1e-9
# an arc center this close to the disk's center gives no direction away from it:
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


def sample_in_disk(
    o: Point, big_r: float, count: int, rng: np.random.Generator, g: Geometry
) -> np.ndarray:
    """Area-uniform samples in the disk B(o, big_r), as an (n, 3) array of
    embedded points.

    The disk of radius s has area 2 pi vers s, so v = vers s is uniform on
    [0, vers big_r]; then cs s = 1 - kappa v and sn s = sqrt(v (2 - kappa v)),
    and the sample is cs s o + sn s (cos theta t1 + sin theta t2).  The
    direction takes t = tan(theta / 2), cos theta = (1 - t^2) / (1 + t^2)
    and sin theta = 2 t / (1 + t^2): one vectorized tan in place of cos and
    sin, which numpy evaluates by scalar libm calls.  All theta are drawn
    first, then all v; the points are built _BLOCK rows per pass.
    """
    theta = rng.uniform(0.0, TWO_PI, count)
    v = g.vers(big_r) * rng.uniform(0.0, 1.0, count)
    frame = np.array([o, *tangent_basis(o, g)])
    out = np.empty((count, 3))
    for s in range(0, count, _BLOCK):
        b = slice(s, s + _BLOCK)
        vb, t = v[b], np.tan(0.5 * theta[b])
        t2 = t * t
        sn = np.sqrt(vb * (2.0 - g.kappa * vb)) / (1.0 + t2)
        coef = np.stack([1.0 - g.kappa * vb, sn * (1.0 - t2), sn * (2.0 * t)], axis=1)
        np.matmul(coef, frame, out=out[b])
    return out


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
    CapDomain.contains, _BLOCK samples per pass.
    """
    if samples <= 0:
        raise SpindleError("BAD_RANGE", "need a positive sample count")
    g = region.geometry
    o, big_r = bounding_disk(region)
    pts = sample_in_disk(o, big_r, samples, rng, g)
    blocks = (pts[s:s + _BLOCK] for s in range(0, samples, _BLOCK))
    if isinstance(region, DiskPolygon):
        hits = sum(int(_inside_disks(b, region.centers, region.r, g).sum()) for b in blocks)
    else:
        hits = sum(int(_inside_cap_domain(b, region, g).sum()) for b in blocks)
    p_hat = hits / samples
    a_bound = disk_area(g, big_r)
    estimate = a_bound * p_hat
    se = a_bound * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return estimate, se
