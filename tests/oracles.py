"""Independent reference computations backing the frozen test values.

Nothing here calls into the package's measurement pipeline: areas come
from integrating the polar exit distance of a region with mpmath,
inradii from re-solving the defining contact equations by bisection,
widths from brute-force support sampling, from enumerating double
normals family by family with the package's geometry primitives or (a
two-point lens) from the right triangle at its midpoint, the width's
pieces on unit directions, r-hulls by gift-wrapping, the incircle from a
refining grid search, the MERGE_EPS
dedup by comparing every pair, the smallest enclosing disk by pivoting on
every pair disk, the distance and tangent normalization
written once per plane, and geodesic directions, midpoints, circle
intersections and arcs by way of the inverse-trigonometric distance.  Tests compare package output
against digits these routines produce (see the constants in the test
modules).  The last sections hold helpers that only tests call: the
Monte Carlo area in one pass over the full sample array, the wedge
angle, arc spans and cap-domain membership by angular wedges, the law of
cosines on package primitives (a side from an angle, and an angle's cosine
from three sides), the inverse versine, a tangent's angle in the frame at
its point and the tangent at a given angle, and the proof-step
reproductions of acceptance criterion 10, which build cap domains and
take their areas with the package.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


# ---------------------------------------------------------------------------
# polar-exit area integration (mpmath)

def exit_distance(kappa, m, delta, radius):
    """Along the ray at angle delta from the direction of a circle center
    (center at distance m from the origin, origin strictly inside the
    circle), the distance at which the ray leaves the circle."""
    if kappa == 0:
        b = m * mp.cos(delta)
        return b + mp.sqrt(radius ** 2 - m ** 2 + b * b)
    if kappa > 0:
        a, b, c = mp.cos(m), mp.sin(m) * mp.cos(delta), mp.cos(radius)
        return mp.atan2(b, a) + mp.acos(c / mp.sqrt(a * a + b * b))
    a, b, c = mp.cosh(m), mp.sinh(m) * mp.cos(delta), mp.cosh(radius)
    return mp.atanh(b / a) + mp.acosh(c / mp.sqrt(a * a - b * b))


def point_polar(kappa, p):
    """(angle, distance) of an embedded point as seen from the origin."""
    x, y, z = (mp.mpf(c) for c in (p[0], p[1], p[2]))
    ang = mp.atan2(y, x)
    h = mp.hypot(x, y)
    if kappa == 0:
        return ang, h
    if kappa > 0:
        return ang, mp.atan2(h, z)
    return ang, mp.asinh(h)


def disk_intersection_exit(kappa, circles):
    """Exit function for an intersection of disks; circles holds
    (center angle, center distance, radius) triples, origin inside all."""

    def radius_fn(theta):
        return min(
            exit_distance(kappa, m, theta - ang, rr) for ang, m, rr in circles
        )

    return radius_fn


def cap_domain_exit(kappa, rho, caps):
    """Exit function for a disk of radius rho with caps attached.

    caps: (lo, hi, left circle, right circle) per cap, where lo <= hi is
    the unwrapped footprint window on the disk boundary and each circle
    is a (center angle, center distance, radius) triple.  Outside every
    window the boundary is the disk itself.
    """
    two_pi = 2 * mp.pi

    def radius_fn(theta):
        for lo, hi, cl, cr in caps:
            t = lo + (theta - lo) % two_pi
            if t <= hi:
                return min(
                    exit_distance(kappa, cl[1], theta - cl[0], cl[2]),
                    exit_distance(kappa, cr[1], theta - cr[0], cr[2]),
                )
        return rho

    return radius_fn


def polar_area(kappa, radius_fn, breakpoints, dps=40):
    """Area of a star-shaped region around the origin from its polar exit
    function; breakpoints are the angles where the boundary formula
    switches (the integrand is smooth between consecutive ones)."""
    with mp.workdps(dps):
        if kappa == 0:
            def density(R):
                return R * R / 2
        elif kappa > 0:
            def density(R):
                return 1 - mp.cos(R)
        else:
            def density(R):
                return mp.cosh(R) - 1
        pts = sorted(mp.mpf(b) for b in breakpoints)
        pts.append(pts[0] + 2 * mp.pi)
        total = mp.mpf(0)
        for lo, hi in zip(pts, pts[1:]):
            if hi - lo > mp.mpf("1e-30"):
                total += mp.quad(lambda t: density(radius_fn(t)), [lo, hi])
        return total


# ---------------------------------------------------------------------------
# geodesic law of cosines (mpmath)

def side_opposite(kappa, b, c, alpha):
    """Side length opposite the angle alpha enclosed by sides b and c."""
    if kappa == 0:
        return mp.sqrt(b * b + c * c - 2 * b * c * mp.cos(alpha))
    if kappa > 0:
        return mp.acos(mp.cos(b) * mp.cos(c) + mp.sin(b) * mp.sin(c) * mp.cos(alpha))
    return mp.acosh(mp.cosh(b) * mp.cosh(c) - mp.sinh(b) * mp.sinh(c) * mp.cos(alpha))


def triangle_inradius_reference(kappa, w, r, dps=40):
    """Inradius of the regular arc triangle, re-derived by bisection.

    Three arc centers sit at distance r - rho from the origin, 120 degrees
    apart, each sharing a ray with the vertex it faces; a vertex lies on
    the circles around the other two centers, at some distance t from the
    origin along its ray; the far point of the arc facing it sits at
    distance rho on the opposite ray, so the figure has width w when
    t + rho = w.  Solves the constraint system directly (law of cosines
    plus root finding), with no use of any closed-form inradius
    expression.
    """
    with mp.workdps(dps):
        w = mp.mpf(w)
        r = mp.mpf(r)
        third = 2 * mp.pi / 3

        def vertex_distance(rho):
            m = r - rho
            # d(v1, c2) = r with v1 on the angle-0 ray, c2 on the 2pi/3 ray
            f = lambda t: side_opposite(kappa, t, m, third) - r
            return mp.findroot(f, w - rho)

        def closure(rho):
            return vertex_distance(rho) + rho - w

        lo, hi = mp.mpf("1e-12"), w / 2 - mp.mpf("1e-12")
        flo, fhi = closure(lo), closure(hi)
        if flo * fhi > 0:
            raise ValueError("no bracket for the inradius bisection")
        for _ in range(dps * 4):
            mid = (lo + hi) / 2
            if closure(mid) * flo <= 0:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


def _hyperbolic_inradius(w, r):
    # (w - x) / 2 from the avers closed form r + x = acosh(1 + (4 vers r -
    # vers(r - w)) / 3), vers = cosh - 1
    v = (4 * (mp.cosh(r) - 1) - (mp.cosh(r - w) - 1)) / 3
    return (w + r - mp.acosh(1 + v)) / 2


def hyperbolic_inradius_reference(w, r):
    """(rho0, d rho0 / dw, d rho0 / dr) of the hyperbolic regular disk
    triangle from the avers closed form, the partials by mp.diff, at 80
    digits, with no float on the way."""
    with mp.workdps(80):
        w, r = mp.mpf(w), mp.mpf(r)
        return (_hyperbolic_inradius(w, r),
                mp.diff(lambda t: _hyperbolic_inradius(t, r), w),
                mp.diff(lambda t: _hyperbolic_inradius(w, t), r))


def hyperbolic_triangle_area_reference(w, r):
    """Area of the hyperbolic regular disk triangle by Gauss-Bonnet, A = pi -
    3 theta + 3 phi cosh r: three arcs of geodesic curvature coth r and
    length phi sinh r, with interior vertex angle theta.  phi, and the angle
    pi - theta between the two arc centers seen from a vertex, come from the
    law of cosines; both shrink like e^-r, so the digits grow with r."""
    def apex_angle(leg, m):
        # apex angle of the isosceles triangle with legs leg whose base joins
        # two points at distance m from the incenter, 2pi/3 apart
        base = mp.cosh(m) ** 2 + mp.sinh(m) ** 2 / 2
        return mp.acos((mp.cosh(leg) ** 2 - base) / mp.sinh(leg) ** 2)

    with mp.workdps(80 + int(r)):
        w, r = mp.mpf(w), mp.mpf(r)
        rho = _hyperbolic_inradius(w, r)
        theta = mp.pi - apex_angle(r, r - rho)
        return mp.pi - 3 * theta + 3 * apex_angle(r, w - rho) * mp.cosh(r)


# ---------------------------------------------------------------------------
# two-point lens width (mpmath)

def lens_width_reference(x, y, r, g):
    """Width 2r - 2h of the lens of embedded points x and y: h is the
    distance from their midpoint to either circle center, by the right
    triangle center-midpoint-x, cs r = cs(d/2) cs h, in mpmath on the
    points' coordinates (cs(d/2) = sqrt(1 - kappa chord2 / 4))."""
    with mp.workdps(50):
        c2 = sum(w * (mp.mpf(b) - mp.mpf(a)) ** 2 for w, a, b in zip((1, 1, g.kappa), x, y))
        if g.kappa == 0:
            h = mp.sqrt(r * r - c2 / 4)
        elif g.kappa > 0:
            h = mp.acos(mp.cos(r) / mp.sqrt(1 - c2 / 4))
        else:
            h = mp.acosh(mp.cosh(r) / mp.sqrt(1 + c2 / 4))
        return float(2 * r - 2 * h)


# ---------------------------------------------------------------------------
# brute-force width (Euclidean only, numpy)

def euclidean_width_reference(poly, directions=10000, arc_samples=4000):
    """Minimal width of a Euclidean arc polygon by support sampling: the
    boundary is sampled densely, projections taken over a fan of
    directions, and the width is the smallest support interval."""
    pts = []
    for arc in poly.arcs:
        for s in np.linspace(0.0, arc.extent, arc_samples):
            p = arc.point_at(float(s))
            pts.append((p.x, p.y))
    b = np.asarray(pts)
    best = math.inf
    thetas = np.linspace(0.0, math.pi, directions, endpoint=False)
    for lo in range(0, directions, 1000):
        th = thetas[lo:lo + 1000]
        u = np.stack([np.cos(th), np.sin(th)], 1)
        proj = b @ u.T
        best = min(best, float(np.min(proj.max(0) - proj.min(0))))
    return best


# ---------------------------------------------------------------------------
# double normals by family (package primitives)

def double_normal_reference(poly):
    """Shortest double normal of a disk polygon, enumerated family by family.

    Vertex to arc, arc to arc, then vertex to vertex, each with its own
    normal test: a vertex's outward normal cone is spanned from the normal
    of its incoming arc to that of its outgoing arc, and an arc's normals
    are the rays from its center through it.  Returns (value, kind, a, b)
    of the first shortest chord found.
    """
    from spindle.geometry import (
        ANGLE_EPS,
        MERGE_EPS,
        _negate,
        det3,
        distance,
        exp_map,
        log_dir,
        tangent_basis,
        tangent_dot,
    )
    from spindle.measure import angle_in

    g = poly.geometry
    r = poly.r
    arcs = poly.arcs
    centers = poly.centers
    if poly.is_full_disk or all(distance(c, centers[0], g) <= MERGE_EPS for c in centers):
        c = centers[0]
        u = tangent_basis(c, g)[0]
        return 2.0 * r, "arc-arc", exp_map(c, u, r, g), exp_map(c, _negate(u), r, g)

    verts = poly.vertices
    cones = [
        (_negate(log_dir(v, arcs[i - 1].center, g)), _negate(log_dir(v, arcs[i].center, g)))
        for i, v in enumerate(verts)
    ]

    def in_cone(v, w, n1, n2):
        if det3(v, n1, w) < -ANGLE_EPS or det3(v, w, n2) < -ANGLE_EPS:
            return False
        return tangent_dot(w, n1, g) + tangent_dot(w, n2, g) > 0.0

    best = None

    def consider(value, kind, a, b):
        nonlocal best
        if best is None or value < best[0]:
            best = (value, kind, a, b)

    for k, v in enumerate(verts):
        for arc in arcs:
            if distance(v, arc.start, g) <= MERGE_EPS or distance(v, arc.end, g) <= MERGE_EPS:
                continue  # incident arcs give zero-length chords
            c = arc.center
            d_cv = distance(c, v, g)
            if d_cv <= ANGLE_EPS:
                # vertex at the arc's center: every chord to the arc is
                # normal there; need one whose reverse lies in the cone
                a0 = frame_angle(v, log_dir(c, arc.start, g), g)
                n1, n2 = cones[k]
                th1 = frame_angle(v, n1, g)
                width_cone = (frame_angle(v, n2, g) - th1) % (2.0 * math.pi)
                lo2 = (th1 + math.pi) % (2.0 * math.pi)
                psi = lo2 if angle_in(lo2, a0, arc.extent) else (
                    a0 if angle_in(a0, lo2, width_cone) else None)
                if psi is not None:
                    consider(r, "vertex-arc", v, exp_map(v, tangent_from_angle(v, psi, g), r, g))
                continue
            if not contains_ray_angle(arc, v) or not in_cone(v, log_dir(v, c, g), *cones[k]):
                continue
            consider(r - d_cv, "vertex-arc", v, exp_map(c, log_dir(c, v, g), r, g))

    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            ci, cj = centers[i], centers[j]
            dij = distance(ci, cj, g)
            if dij <= MERGE_EPS:
                # same supporting circle on both sides: a diameter
                m = arcs[i].point_at(0.5 * arcs[i].extent)
                anti = exp_map(ci, _negate(log_dir(ci, m, g)), r, g)
                if contains_ray_angle(arcs[j], anti):
                    consider(2.0 * r, "arc-arc", m, anti)
                continue
            xi = exp_map(ci, log_dir(ci, cj, g), r, g)
            xj = exp_map(cj, log_dir(cj, ci, g), r, g)
            if contains_ray_angle(arcs[i], xi) and contains_ray_angle(arcs[j], xj):
                consider(2.0 * r - dij, "arc-arc", xj, xi)

    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            vi, vj = verts[i], verts[j]
            if distance(vi, vj, g) <= MERGE_EPS:
                continue
            out_i = _negate(log_dir(vi, vj, g))
            out_j = _negate(log_dir(vj, vi, g))
            if in_cone(vi, out_i, *cones[i]) and in_cone(vj, out_j, *cones[j]):
                consider(distance(vi, vj, g), "vertex-vertex", vi, vj)
    return best


# ---------------------------------------------------------------------------
# the width's pieces on unit directions (package primitives)

def pieces_reference(poly):
    """The boundary pieces of measure.thickness, vertices first, then arcs,
    both in arc order, with each vertex normal and arc direction a unit log_dir."""
    from spindle.geometry import _negate, log_dir, turn_angle

    g = poly.geometry
    arcs = poly.arcs
    vert_pieces = []
    for k, arc in enumerate(arcs):
        v = arc.start
        n_in = _negate(log_dir(v, arcs[k - 1].center, g))
        n_out = _negate(log_dir(v, arc.center, g))
        # signed, not reduced mod 2 pi: a smooth vertex turning by -1e-17
        # must not read as a full cone
        vert_pieces.append((v, 0.0, n_in, turn_angle(v, n_in, n_out, g)))
    arc_pieces = [(a.center, poly.r, log_dir(a.center, a.start, g), a.extent) for a in arcs]
    return vert_pieces + arc_pieces


# ---------------------------------------------------------------------------
# r-hull by gift-wrapping (package primitives)

def gift_wrap_reference(points, r, g):
    """The r-hull vertex cycle by gift-wrapping, O(n h).

    At each vertex the successor is the point whose left supporting-circle
    center makes the least counterclockwise turn from the reference
    direction; turns within 1e-12 rank equal and go to the farthest point,
    so points on a supporting circle drop out.  The wrap starts at the point
    farthest from the smallest enclosing disk's center o, whose supporting
    disk is the radius-r disk internally tangent there.  Returns (vertices,
    arc centers), arc i running from vertex i to vertex i + 1, or None for
    inputs the wrap does not handle: two points, or an enclosing radius
    within 1e-9 of r.  Raises ball_hull's error codes otherwise.
    """
    from spindle.geometry import (
        MERGE_EPS,
        Circle,
        SpindleError,
        _intersection_angle,
        circle_circle_intersection,
        distance,
        log_dir,
        smallest_enclosing_disk,
        turn_toward,
    )

    two_pi, tie = 2.0 * math.pi, 1e-12
    g.check_radius(r)
    kept = []
    for p in points:
        if all(distance(p, q, g) > MERGE_EPS for q in kept):
            kept.append(p)
    if not kept:
        raise SpindleError("EMPTY", "need at least one point")
    if len(kept) == 1:
        raise SpindleError("DEGENERATE_POINT", "all points coincide")
    o, radius, _ = smallest_enclosing_disk(kept, g)
    if radius > r + 1e-9:
        raise SpindleError("NOT_ENCLOSABLE", "points do not fit in any radius-r disk")
    if len(kept) == 2 or radius > r - 1e-9:
        return None

    def wrap_step(a, ref):
        best = None
        for x in kept:
            d_ax = distance(a, x, g)
            if d_ax <= MERGE_EPS:
                continue
            beta = _intersection_angle(g.vers(d_ax), r, r, g)
            if beta is None:
                continue
            ang = (turn_toward(a, ref, x, g) + beta) % two_pi
            if ang >= two_pi - tie:
                ang = 0.0  # a point on the current circle: no turn
            if best is None or ang < best[0] - tie:
                best = (ang, d_ax, x)
            elif ang <= best[0] + tie and d_ax > best[1]:
                best = (min(ang, best[0]), d_ax, x)
        if best is None:
            raise SpindleError("MALFORMED_BOUNDARY", "hull wrap found no successor")
        return best[2], circle_circle_intersection(Circle(a, r), Circle(best[2], r), g)[0]

    start = max(kept, key=lambda p: distance(o, p, g))
    first, c_first = wrap_step(start, log_dir(start, o, g))
    verts, centers = [first], []
    current, ref = first, log_dir(first, c_first, g)
    for _ in range(len(kept) + 2):
        nxt, c = wrap_step(current, ref)
        centers.append(c)
        if distance(nxt, first, g) <= MERGE_EPS:
            break
        verts.append(nxt)
        current, ref = nxt, log_dir(nxt, c, g)
    else:
        raise SpindleError("MALFORMED_BOUNDARY", "hull wrap failed to close")
    if len(verts) == 1:
        raise SpindleError("MALFORMED_BOUNDARY", "hull wrap degenerated")
    if any(distance(c, p, g) > r + 1e-7 for c in centers for p in kept):
        raise SpindleError("MALFORMED_BOUNDARY", "hull does not cover its input")
    return verts, centers


# ---------------------------------------------------------------------------
# grid-search incircle (numpy + package primitives for point placement)

def incircle_grid_reference(poly, levels=8, grid=17):
    """Brute-force inradius: grid search plus an exact 1D ridge polish.

    Maximizes the clearance min_i (r - d(c_i, x)).  A recentering grid
    alone has an accuracy floor here: at an optimum with two active
    circles the clearance flattens along a ridge, and the argmax escapes
    any window that shrinks by a fixed ratio.  But that ridge is the
    perpendicular bisector geodesic of the two active centers, and the
    clearance is concave along every geodesic (each r - d(c, .) is), so a
    ternary search along each plausible bisector nails the maximum.  The
    grid phase only has to localize well enough to pick the active set.
    """
    from spindle.geometry import (
        Tangent,
        _normalize_point,
        distance,
        exp_map,
        log_dir,
        perp,
        tangent_basis,
    )

    g = poly.geometry
    r = poly.r
    centers = []
    for c in poly.centers:
        if all(distance(c, d, g) > 1e-9 for d in centers):
            centers.append(c)

    def clearance(x):
        return min(r - distance(c, x, g) for c in centers)

    if len(centers) == 1:
        return r, centers[0]

    acc = [0.0, 0.0, 0.0]
    for v in poly.vertices:
        acc[0] += v.x
        acc[1] += v.y
        acc[2] += v.z
    n = max(len(poly.vertices), 1)
    seed = _normalize_point(g, acc[0] / n, acc[1] / n, acc[2] / n)
    half = 0.8 * r
    best_x, best_val = seed, clearance(seed)
    for _ in range(levels):
        e1, e2 = tangent_basis(best_x, g)
        base = best_x
        lin = np.linspace(-half, half, grid)
        for a in lin:
            for b in lin:
                s = math.hypot(a, b)
                if s < 1e-15:
                    continue
                u = Tangent(
                    (a * e1.x + b * e2.x) / s,
                    (a * e1.y + b * e2.y) / s,
                    (a * e1.z + b * e2.z) / s,
                )
                x = exp_map(base, u, s, g)
                val = clearance(x)
                if val > best_val:
                    best_val, best_x = val, x
        half *= 0.5

    # candidate optima off the grid: each center alone, and the bisector
    # geodesic of every pair that is close to active at the grid optimum
    for c in centers:
        val = clearance(c)
        if val > best_val:
            best_val, best_x = val, c

    worst = max(distance(c, best_x, g) for c in centers)
    active = [c for c in centers if distance(c, best_x, g) >= worst - 0.05 * r]
    if len(active) < 2:
        active = centers
    span = min(2.5 * r, 1.5) if g.kappa > 0 else 2.5 * r
    for i in range(len(active)):
        for j in range(i + 1, len(active)):
            c1, c2 = active[i], active[j]
            m = _normalize_point(g, 0.5 * (c1.x + c2.x), 0.5 * (c1.y + c2.y),
                                 0.5 * (c1.z + c2.z))
            u = perp(m, log_dir(m, c2, g), g)

            def on_ridge(t):
                if t >= 0.0:
                    return exp_map(m, u, t, g)
                return exp_map(m, Tangent(-u.x, -u.y, -u.z), -t, g)

            # coarse bracket, then ternary: the slice is concave
            ts = np.linspace(-span, span, 257)
            vals = [clearance(on_ridge(float(t))) for t in ts]
            k = int(np.argmax(vals))
            lo = float(ts[max(k - 1, 0)])
            hi = float(ts[min(k + 1, len(ts) - 1)])
            for _ in range(90):
                t1 = lo + (hi - lo) / 3.0
                t2 = hi - (hi - lo) / 3.0
                if clearance(on_ridge(t1)) < clearance(on_ridge(t2)):
                    lo = t1
                else:
                    hi = t2
            x = on_ridge(0.5 * (lo + hi))
            val = clearance(x)
            if val > best_val:
                best_val, best_x = val, x
    return best_val, best_x


# ---------------------------------------------------------------------------
# distance and tangent normalization once per plane (the forms the
# curvature-generic ones replaced)

def distance_reference(p, q, g):
    """Geodesic distance by plane: hypot of the chart difference; on the
    sphere asin of the half chord, or pi minus asin of |p + q| / 2 once
    p.q < 0; asinh of the half Minkowski chord on the hyperboloid."""
    from spindle.geometry import SpindleError

    if g.kappa == 0:
        return math.hypot(q.x - p.x, q.y - p.y)
    if g.kappa > 0:
        dot = p.x * q.x + p.y * q.y + p.z * q.z
        if dot <= -1.0 + 1e-12:
            raise SpindleError("ANTIPODAL", "antipodal points have no unique geodesic")
        if dot >= 0.0:
            dx, dy, dz = q.x - p.x, q.y - p.y, q.z - p.z
            return 2.0 * math.asin(min(1.0, 0.5 * math.sqrt(dx * dx + dy * dy + dz * dz)))
        sx, sy, sz = q.x + p.x, q.y + p.y, q.z + p.z
        return math.pi - 2.0 * math.asin(min(1.0, 0.5 * math.sqrt(sx * sx + sy * sy + sz * sz)))
    dx, dy, dz = q.x - p.x, q.y - p.y, q.z - p.z
    return 2.0 * math.asinh(0.5 * math.sqrt(max(dx * dx + dy * dy - dz * dz, 0.0)))


def normalize_tangent_reference(p, ux, uy, uz, g):
    """(ux, uy, uz) projected onto the tangent plane at p and scaled to unit
    length by plane: the chart part (ux, uy) over its hypot in the plane,
    u - (u.p) p on the sphere, u + form(u, p) p on the hyperboloid."""
    from spindle.geometry import SpindleError, Tangent

    if g.kappa == 0:
        n = math.hypot(ux, uy)
        if n < 1e-14:
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
    if n < 1e-14:
        raise SpindleError("DEGENERATE", "zero tangent vector")
    return Tangent(ux / n, uy / n, uz / n)


# ---------------------------------------------------------------------------
# direction and midpoint through the distance (the forms the chord2 ones
# replaced)

def log_dir_reference(p, q, g):
    """Direction p -> q as the tangent part of q - cs(d) p, with d taken
    by the package's inverse-trigonometric distance."""
    from spindle.geometry import SpindleError, Tangent, _normalize_tangent, distance

    d = distance(p, q, g)
    if d < 1e-12:
        raise SpindleError("DEGENERATE", "no direction between coincident points")
    if g.kappa == 0:
        return Tangent((q.x - p.x) / d, (q.y - p.y) / d, 0.0)
    c = g.cs(d)
    return _normalize_tangent(p, q.x - c * p.x, q.y - c * p.y, q.z - c * p.z, g)


def midpoint_reference(p, q, g):
    """Midpoint as the point half the distance along log_dir_reference."""
    from spindle.geometry import distance, exp_map

    return exp_map(p, log_dir_reference(p, q, g), 0.5 * distance(p, q, g), g)


# ---------------------------------------------------------------------------
# circle intersection and arcs through the distance, with two rotations per
# intersection (the forms the chord2 ones and the mirrored point replaced)

def points_off_axis_reference(p, u, t, beta, g):
    """Points at distance t from p in the directions turned by +beta (left)
    and -beta (right) from the unit tangent u, each turned by its own
    rotate_tangent call; one point if beta is 0 or pi."""
    from spindle.geometry import _normalize_point, rotate_tangent

    c, s = g.cs(t), g.sn(t)
    points = []
    for angle in (beta,) if beta in (0.0, math.pi) else (beta, -beta):
        v = rotate_tangent(p, u, angle, g)
        points.append(_normalize_point(g, c * p.x + s * v.x, c * p.y + s * v.y, c * p.z + s * v.z))
    return tuple(points)


def circle_circle_intersection_reference(c1, c2, g):
    """Intersection points of two circles, (left, right) of c1 -> c2, with
    the center distance taken by the inverse-trigonometric distance and its
    versine passed to the package's law of cosines."""
    from spindle.geometry import SpindleError, _intersection_angle, distance, log_dir

    r1, r2 = c1.radius, c2.radius
    g.check_radius(r1)
    g.check_radius(r2)
    d = distance(c1.center, c2.center, g)
    if d <= 1e-12:
        if abs(r1 - r2) <= 1e-12:
            raise SpindleError("COINCIDENT", "the circles coincide")
        return ()
    beta = _intersection_angle(g.vers(d), r1, r2, g)
    if beta is None:
        return ()
    return points_off_axis_reference(c1.center, log_dir(c1.center, c2.center, g), r1, beta, g)


def make_arc_reference(center, radius, start, end, g):
    """Arc from start to end counterclockwise about center, its endpoint
    test |d(center, x) - radius| <= 1e-7 and its extent taken on distances."""
    from spindle.geometry import SpindleError, distance, log_dir, turn_toward
    from spindle.regions import Arc

    two_pi = 2.0 * math.pi
    for p in (start, end):
        if abs(distance(center, p, g) - radius) > 1e-7:
            raise SpindleError("MALFORMED_BOUNDARY", "arc endpoint off its circle")
    chord = distance(start, end, g)
    if chord < 1e-15:
        raise SpindleError("MALFORMED_BOUNDARY", "zero-extent arc")
    q = g.sn(0.5 * chord) / g.sn(radius)
    if q > 1.0 + 1e-9:
        raise SpindleError("OUT_OF_RANGE", "chord longer than the circle diameter")
    extent = 2.0 * math.asin(min(1.0, q))
    ccw = turn_toward(center, log_dir(center, start, g), end, g) % two_pi
    if abs(ccw - extent) > abs(ccw - (two_pi - extent)):
        extent = two_pi - extent
    return Arc(center, radius, start, end, extent, g)


# ---------------------------------------------------------------------------
# MERGE_EPS dedup, every pair (package chord2)

def distinct_reference(points, g):
    """Indices of the points left when each one within MERGE_EPS of an
    earlier kept point merges into it, comparing every point with every
    kept one: the O(n^2) loop the windowed dedup replaced."""
    from spindle.geometry import MERGE_EPS, chord2

    merge = 2.0 * g.vers(MERGE_EPS)
    kept, kept_points = [], []
    for i, p in enumerate(points):
        if all(chord2(p, q, g) > merge for q in kept_points):
            kept.append(i)
            kept_points.append(p)
    return kept


# ---------------------------------------------------------------------------
# smallest enclosing disk, every pair disk per pivot step (package primitives)

def smallest_enclosing_disk_reference(points, g):
    """Farthest-point pivoting that builds, at each step, the pair disk on
    the new rim point f and every support point, ranks them by (misses the
    support, reach) and adds the disks through f and two support points
    when none holds the support: the all-pairs form the one-pair step
    replaced, with the same containment tests and the same rim step.
    Returns ((center, radius, support), pivot steps)."""
    from itertools import combinations

    from spindle.geometry import SED_SLACK, SpindleError, chord2, circumcenter, distance, midpoint

    n, kappa = len(points), g.kappa
    if not n:
        raise SpindleError("BAD_RANGE", "need at least one point")
    v_eps, s_eps = g.vers(SED_SLACK), g.sn(SED_SLACK)

    def shifted(c2):
        v = 0.5 * c2
        sn = math.sqrt(max(v * (2.0 - kappa * v), 0.0))
        return 2.0 * (v + v_eps - kappa * v * v_eps + sn * s_eps)

    def disk_about(center, idx):
        reach2 = max([chord2(center, points[k], g) for k in idx])
        return center, reach2, idx, shifted(reach2)

    def triple(i, j, k):
        cc = circumcenter(points[i], points[j], points[k], g)
        if cc is not None:
            return disk_about(cc, (i, j, k))
        return min((disk_about(midpoint(points[a], points[b], g), (a, b, c))
                    for a, b, c in ((i, j, k), (i, k, j), (j, k, i))), key=lambda d: d[1])

    def rank(d):
        return any(chord2(d[0], points[k], g) > d[3] for k in support if k not in d[2]), d[1]

    disk, steps = (points[0], 0.0, (0,), shifted(0.0)), 0
    for _ in range(n * (n * n + 5) // 6):
        reach = [chord2(disk[0], p, g) for p in points]
        far = max(reach)
        if far <= disk[3]:
            break
        steps += 1
        f, support = reach.index(far), disk[2]
        disk = min([disk_about(midpoint(points[f], points[s], g), (f, s)) for s in support], key=rank)
        if rank(disk)[0]:
            disk = min([disk] + [triple(f, s, t) for s, t in combinations(support, 2)], key=rank)
    else:
        raise SpindleError("NO_CONVERGENCE", f"no smallest enclosing disk of {n} points")
    center, _, pins, _ = disk
    radius = distance(center, points[max(pins, key=reach.__getitem__)], g)
    rim = 2.0 * g.vers(max(radius - SED_SLACK, 0.0))
    first = [k for k in pins if reach[k] >= rim]
    return (center, radius, tuple(first + [k for k, c in enumerate(reach) if c >= rim and k not in pins])), steps


# ---------------------------------------------------------------------------
# Monte Carlo area in one pass (package sampler and batch membership)

def area_monte_carlo_reference(region, samples, rng):
    """measure.area_monte_carlo without streaming: the full (samples, 3)
    array from one sample_in_disk call (all theta, then all v), then one hit
    count over it; the estimate and its standard error."""
    from spindle import measure
    from spindle.regions import DiskPolygon

    g = region.geometry
    o, big_r = measure.bounding_disk(region)
    pts = measure.sample_in_disk(o, big_r, samples, rng, g)
    if isinstance(region, DiskPolygon):
        hits = int(measure._inside_disks(pts, region.centers, region.r, g).sum())
    else:
        hits = int(measure._inside_cap_domain(pts, region, g).sum())
    p_hat = hits / samples
    a_bound = measure.disk_area(g, big_r)
    return a_bound * p_hat, a_bound * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)


# ---------------------------------------------------------------------------
# angles and sides (package primitives)

def angle_coord(o, x, g):
    """Angle of the direction o -> x in the frame at o, in [0, 2*pi)."""
    from spindle.geometry import tangent_basis, turn_toward

    return turn_toward(o, tangent_basis(o, g)[0], x, g) % (2.0 * math.pi)


def contains_ray_angle(arc, x):
    """Whether the ray arc.center -> x falls inside the arc's angular span,
    within ANGLE_EPS at both ends."""
    from spindle.geometry import log_dir, turn_toward
    from spindle.measure import angle_in

    c, g = arc.center, arc.geometry
    return angle_in(turn_toward(c, log_dir(c, arc.start, g), x, g), 0.0, arc.extent)


def cap_wedges(dom):
    """Per cap of a CapDomain, (c_left, c_right, t_in, t_out, lo, width):
    its two arc centers, its tangency points (where the left arc starts and
    the right arc ends) and its angular footprint about the disk center,
    from the frame angle of t_in counterclockwise to that of t_out; the
    full circle when the two coincide, at full reach 2r - rho."""
    g = dom.geometry
    cap_arcs = [a for a in dom.arcs if a.radius == dom.r]
    out = []
    for left, right in zip(cap_arcs[0::2], cap_arcs[1::2]):
        t_in, t_out = left.start, right.end
        lo = angle_coord(dom.center, t_in, g)
        width = (angle_coord(dom.center, t_out, g) - lo) % (2.0 * math.pi)
        if t_in == t_out:
            width = 2.0 * math.pi
        out.append((left.center, right.center, t_in, t_out, lo, width))
    return out


def cap_domain_contains_reference(dom, x):
    """CapDomain membership by angular wedges: x within rho + GEOM_EPS of
    the disk center, or, for some cap, the direction center -> x within
    ANGLE_EPS of the cap's footprint (cap_wedges) and x within r + GEOM_EPS
    of both arc centers."""
    from spindle.geometry import GEOM_EPS, distance
    from spindle.measure import angle_in

    g = dom.geometry
    if distance(dom.center, x, g) <= dom.rho + GEOM_EPS:
        return True
    theta = angle_coord(dom.center, x, g)
    return any(angle_in(theta, lo, width) and distance(cl, x, g) <= dom.r + GEOM_EPS
               and distance(cr, x, g) <= dom.r + GEOM_EPS
               for cl, cr, _, _, lo, width in cap_wedges(dom))


def angle_at(a, b, c, g):
    """Interior angle at b of the geodesic wedge a-b-c, in [0, pi]."""
    from spindle.geometry import log_dir, turn_angle

    return abs(turn_angle(b, log_dir(b, a, g), log_dir(b, c, g), g))


def side_from_cosine_law(b, c, alpha, g):
    """Side opposite the angle alpha enclosed by sides b and c.

    Uses the versine form vers a = vers(b - c) + 2 sn b sn c sin^2(alpha/2),
    so tiny sides lose no precision (hyperbolic b = c = 1e-4, alpha = pi/3
    comes out to 1e-4 within 1e-10).
    """
    from spindle.geometry import SpindleError

    if b <= 0.0 or c <= 0.0:
        raise SpindleError("BAD_RANGE", "sides must be positive")
    if not (0.0 < alpha < math.pi):
        raise SpindleError("BAD_RANGE", "angle must lie strictly between 0 and pi")
    if b >= g.radius_limit or c >= g.radius_limit:
        raise SpindleError("BAD_RANGE", "spherical sides must stay below pi/2")
    sh = math.sin(0.5 * alpha)
    v = g.vers(b - c) + 2.0 * g.sn(b) * g.sn(c) * sh * sh
    if g.kappa > 0:
        if v > 2.0 + 2e-12:
            raise SpindleError("OUT_OF_RANGE", "no spherical triangle with these data")
        if v > 1.0:
            # the arcsine form of avers loses digits past a right angle
            return math.acos(max(-1.0, 1.0 - v))
    return avers(g, v)


def cos_angle(a, b, c, g):
    """Cosine of the angle between sides a and b of a triangle whose third
    side is c: (vers a - vers c + cs a vers b) / (sn a sn b)."""
    return (g.vers(a) - g.vers(c) + g.cs(a) * g.vers(b)) / (g.sn(a) * g.sn(b))


def avers(g, v):
    """Inverse of g.vers on [0, pi] (sphere) or [0, inf): 2 asn(sqrt(v / 2))."""
    return 2.0 * g.asn(math.sqrt(0.5 * v))


def tangent_from_angle(p, theta, g):
    """The unit tangent at p at angle theta from the first axis of
    tangent_basis(p), counterclockwise."""
    from spindle.geometry import rotate_tangent, tangent_basis

    return rotate_tangent(p, tangent_basis(p, g)[0], theta, g)


def frame_angle(p, u, g):
    """Angle of tangent u in the frame at p, in [0, 2*pi); inverts tangent_from_angle."""
    from spindle.geometry import tangent_basis, turn_angle

    return turn_angle(p, tangent_basis(p, g)[0], u, g) % (2.0 * math.pi)


# ---------------------------------------------------------------------------
# proof-step reproductions (package regions and areas)

def symmetric_cap_domain(dom):
    """Rebuild a three-cap domain with its caps rotated to directions
    2pi/3 apart (the first apex keeps its direction, all apex distances
    are preserved).  Returns None when the rotated caps would overlap,
    which cannot happen for three congruent caps that fit disjointly."""
    from spindle.geometry import Circle, SpindleError, distance, exp_map
    from spindle.regions import cap_domain

    if len(dom.apexes) != 3:
        return None
    g = dom.geometry
    p = dom.center
    base = angle_coord(p, dom.apexes[0], g)
    apexes = []
    for k, q in enumerate(dom.apexes):
        d = distance(p, q, g)
        u = tangent_from_angle(p, base + 2.0 * math.pi * k / 3.0, g)
        apexes.append(exp_map(p, u, d, g))
    try:
        return cap_domain(Circle(p, dom.rho), apexes, dom.r, g)
    except SpindleError:
        return None


def cap_rotation_check(g, trials, seed=0, r=1.0):
    """Random admissible three-cap domains, rotated to the symmetric
    position: the area must not move.

    The caps sit over disjoint stretches of the disk boundary in both
    configurations, so each contributes its area independently of where
    around the disk it sits.  Returns max |area difference| and any
    violations beyond 1e-9.
    """
    from spindle.geometry import GEOMETRIES, Circle, SpindleError, exp_map, origin
    from spindle.measure import area
    from spindle.regions import cap_domain

    gi = list(GEOMETRIES).index(g.name)
    violations = []
    worst = 0.0
    built = 0
    attempt = 0
    while built < trials and attempt < 50 * trials:
        rng = np.random.default_rng((seed, gi, attempt))
        attempt += 1
        rho = r * rng.uniform(0.15, 0.4)
        # keep each cap footprint under ~pi/4 so three caps have room:
        # beyond d_slim the tangent points spread too far around the disk
        # (Euclidean bound, a serviceable proxy at these curvatures)
        m = r - rho
        d_slim = 0.5 * (math.sqrt(max(4 * r * r - 2 * m * m, 0.0)) - math.sqrt(2) * m)
        if d_slim <= rho:
            continue
        dists = rho + (d_slim - rho) * rng.uniform(0.1, 0.9, 3)
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 3))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
        if np.min(gaps) < 1.65:
            continue  # crowded directions rarely admit disjoint caps
        p = origin(g)
        apexes = [
            exp_map(p, tangent_from_angle(p, float(t), g), float(d), g)
            for t, d in zip(angles, dists)
        ]
        try:
            dom = cap_domain(Circle(p, rho), apexes, r, g)
        except SpindleError:
            continue
        sym = symmetric_cap_domain(dom)
        if sym is None:
            continue
        built += 1
        diff = abs(area(dom) - area(sym))
        worst = max(worst, diff)
        if diff > 1e-9:
            violations.append(f"attempt {attempt - 1}: area moved by {diff}")
    return {"built": built, "max_diff": worst, "violations": violations}


def distance_monotonicity_check(g, pairs, seed=0, steps=8):
    """Two overlapping circles of equal radius: walking the boundary of
    the first from an intersection point toward the point diametrically
    away from the second center, the gap to the second disk must grow
    strictly.

    Checks the gap d(c2, x) - r at `steps` stations along that quarter
    of boundary for `pairs` random configurations.  Any non-increasing
    consecutive pair is a violation.
    """
    from spindle.geometry import (
        GEOMETRIES,
        Circle,
        _negate,
        circle_circle_intersection,
        distance,
        exp_map,
        log_dir,
        origin,
    )

    gi = list(GEOMETRIES).index(g.name)
    violations = []
    for k in range(pairs):
        rng = np.random.default_rng((seed, gi, k))
        r = float(rng.uniform(0.5, 1.2))
        c1 = origin(g)
        sep = r * float(rng.uniform(0.1, 0.9))
        direction = tangent_from_angle(c1, float(rng.uniform(0, 2 * math.pi)), g)
        c2 = exp_map(c1, direction, sep, g)
        hits = circle_circle_intersection(Circle(c1, r), Circle(c2, r), g)
        if len(hits) != 2:
            continue
        f = hits[0]
        v = exp_map(c1, _negate(log_dir(c1, c2, g)), r, g)
        phi_f = angle_coord(c1, f, g)
        phi_v = angle_coord(c1, v, g)
        delta = (phi_v - phi_f) % (2.0 * math.pi)
        if delta > math.pi:
            delta -= 2.0 * math.pi
        gaps = []
        for s in np.linspace(0.0, 1.0, steps):
            x = exp_map(
                c1, tangent_from_angle(c1, phi_f + float(s) * delta, g), r, g
            )
            gaps.append(distance(c2, x, g) - r)
        for a, b in zip(gaps, gaps[1:]):
            if not b > a:
                violations.append(f"pair {k}: gap step {a} -> {b}")
                break
    return {"pairs": pairs, "violations": violations}
