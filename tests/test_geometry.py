"""Kernel tests: distances, exponential map, frames, circles, enclosing disks.

Reference digits come from tests/oracles.py (mpmath, 40 significant digits).
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from spindle import geometry
from spindle.geometry import (
    EUCLIDEAN,
    GEOMETRIES,
    HYPERBOLIC,
    MERGE_EPS,
    SPHERICAL,
    Circle,
    Point,
    SpindleError,
    Tangent,
    _distinct,
    _intersection_angle,
    chord2,
    circle_circle_intersection,
    circumcenter,
    det3,
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
    tangent_basis,
    tangent_dot,
    turn_toward,
)
from oracles import (
    angle_at,
    angle_coord,
    avers,
    circle_circle_intersection_reference,
    cos_angle,
    distance_reference,
    distinct_reference,
    log_dir_reference,
    midpoint_reference,
    normalize_tangent_reference,
    side_from_cosine_law,
    smallest_enclosing_disk_reference,
    tangent_from_angle,
)
from spindle.regions import ball_hull
from test_regions import jittered_ring

ALL = tuple(GEOMETRIES.values())

# d(p, q) for p = from_polar(0.0, 0.3), q = from_polar(2.0, 0.7); oracles.py
DIST_PIN = {
    "euclidean": 0.8687817167446606680109,
    "hyperbolic": 0.875342482547970217566,
    "spherical": 0.8612945084723973981492,
}


def random_point(g, rng, scale=1.0):
    return from_polar(g, rng.uniform(0.0, 2.0 * math.pi), scale * rng.uniform(0.05, 1.0))


def test_distance_pins():
    for g in ALL:
        p = from_polar(g, 0.0, 0.3)
        q = from_polar(g, 2.0, 0.7)
        assert distance(p, q, g) == pytest.approx(DIST_PIN[g.name], abs=1e-14)


def test_generic_primitives_match_the_per_plane_forms():
    # distance and _normalize_tangent are written once for all three planes;
    # they agree with the per-plane forms within 8 eps relative on
    # near-coincident pairs, sphere pairs past a right angle and near the
    # antipode, and hyperboloid points out to 8
    rng = np.random.default_rng(131)
    eps = 2.0 ** -52

    def angle():
        return rng.uniform(0.0, 2.0 * math.pi)

    pairs = []
    for g in ALL:
        for _ in range(100):
            p = from_polar(g, angle(), rng.uniform(0.0, 1.2))
            pairs.append((p, exp_map(p, tangent_from_angle(p, angle(), g), 10.0 ** rng.uniform(-9, -2), g), g))
    for _ in range(200):
        p = from_polar(SPHERICAL, angle(), rng.uniform(0.0, 1.5))
        t = math.pi - 10.0 ** rng.uniform(-5, 0.2)  # 1.0 to pi - 1e-5
        pairs.append((p, exp_map(p, tangent_from_angle(p, angle(), SPHERICAL), t, SPHERICAL), SPHERICAL))
    for _ in range(200):
        pairs.append((from_polar(HYPERBOLIC, angle(), rng.uniform(0.0, 8.0)),
                      from_polar(HYPERBOLIC, angle(), rng.uniform(0.0, 8.0)), HYPERBOLIC))
    for p, q, g in pairs:
        d, ref = distance(p, q, g), distance_reference(p, q, g)
        assert abs(d - ref) <= 8 * eps * ref
        for u in ((q.x - p.x, q.y - p.y, q.z - p.z), tuple(rng.normal(size=3))):
            if g is EUCLIDEAN:
                u = (u[0], u[1], 0.0)
            got, want = geometry._normalize_tangent(p, *u, g), normalize_tangent_reference(p, *u, g)
            scale = max(map(abs, want))
            assert max(abs(a - b) for a, b in zip(got, want)) <= 8 * eps * scale
    for p in (from_polar(SPHERICAL, 0.4, 1.1), Point(0.0, 0.0, 1.0)):
        q = Point(-p.x, -p.y, -p.z)
        for fn in (distance, distance_reference):
            with pytest.raises(SpindleError, match="ANTIPODAL"):
                fn(p, q, SPHERICAL)
    # a flat direction off its tangent plane is refused, not projected
    with pytest.raises(SpindleError, match="BAD_TANGENT"):
        exp_map(from_polar(EUCLIDEAN, 0.7, 3.0), Tangent(1.0, 0.0, 0.5), 1.0, EUCLIDEAN)
    # no point of the surface on the zero vector (sphere) or a space-like one (hyperboloid)
    for g, v in ((SPHERICAL, (0.0, 0.0, 0.0)), (HYPERBOLIC, (2.0, 0.5, 1.0))):
        with pytest.raises(SpindleError, match="BAD_RANGE"):
            geometry._normalize_point(g, *v)
    # the plane's walks land on z = 1 exactly, far out too, and its entry
    # points carry z = 1 exactly
    assert geometry.as_point((3.0, -4.0, 1.0 + 5e-10), EUCLIDEAN) == Point(3.0, -4.0, 1.0)
    for _ in range(200):
        p = from_polar(EUCLIDEAN, angle(), 10.0 ** rng.uniform(-3, 3))
        q = exp_map(p, tangent_from_angle(p, angle(), EUCLIDEAN), 10.0 ** rng.uniform(-9, 3), EUCLIDEAN)
        assert p.z == 1.0 and q.z == 1.0
    assert all(q.z == 1.0 for p, q, g in pairs if g is EUCLIDEAN)


def test_distance_metric_properties():
    rng = np.random.default_rng(101)
    for g in ALL:
        for _ in range(300):
            p, q, s = (random_point(g, rng) for _ in range(3))
            dpq = distance(p, q, g)
            assert dpq == distance(q, p, g)
            assert distance(p, p, g) == 0.0
            assert dpq <= distance(p, s, g) + distance(s, q, g) + 1e-12
            assert dpq >= 0.0


def test_exp_log_round_trip():
    rng = np.random.default_rng(102)
    for g in ALL:
        for _ in range(300):
            p, q = random_point(g, rng), random_point(g, rng)
            d = distance(p, q, g)
            if d < 1e-9:
                continue
            u = log_dir(p, q, g)
            assert tangent_dot(u, u, g) == pytest.approx(1.0, abs=1e-12)
            back = exp_map(p, u, d, g)
            assert distance(back, q, g) < 1e-12
            # t = 0 stays put
            assert distance(exp_map(p, u, 0.0, g), p, g) < 1e-15


def test_exp_map_is_unit_speed():
    rng = np.random.default_rng(103)
    for g in ALL:
        for _ in range(100):
            p = random_point(g, rng)
            u = tangent_from_angle(p, rng.uniform(0, 2 * math.pi), g)
            t = rng.uniform(0.01, 1.2)
            assert distance(p, exp_map(p, u, t, g), g) == pytest.approx(t, abs=1e-12)


def test_perp_and_rotation():
    rng = np.random.default_rng(104)
    for g in ALL:
        for _ in range(150):
            p = random_point(g, rng)
            u = tangent_from_angle(p, rng.uniform(0, 2 * math.pi), g)
            v = perp(p, u, g)
            assert tangent_dot(u, v, g) == pytest.approx(0.0, abs=1e-12)
            assert tangent_dot(v, v, g) == pytest.approx(1.0, abs=1e-12)
            # quarter turn of u is v, and the turn direction is the left one
            w = rotate_tangent(p, u, 0.5 * math.pi, g)
            assert max(abs(w.x - v.x), abs(w.y - v.y), abs(w.z - v.z)) < 1e-9
            assert det3_sign(p, u, v, g) > 0.0


def det3_sign(p, u, v, g):
    # scalar triple product; positive for a left (counterclockwise) frame
    return (
        p.x * (u.y * v.z - u.z * v.y)
        - p.y * (u.x * v.z - u.z * v.x)
        + p.z * (u.x * v.y - u.y * v.x)
    )


def test_rotation_composes_additively():
    rng = np.random.default_rng(105)
    for g in ALL:
        p = random_point(g, rng)
        u = tangent_from_angle(p, 0.7, g)
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=2)
            once = rotate_tangent(p, u, a + b, g)
            twice = rotate_tangent(p, rotate_tangent(p, u, a, g), b, g)
            assert max(abs(once.x - twice.x), abs(once.y - twice.y), abs(once.z - twice.z)) < 1e-9
        full = rotate_tangent(p, u, 2.0 * math.pi, g)
        assert max(abs(full.x - u.x), abs(full.y - u.y), abs(full.z - u.z)) < 1e-9


def test_tangent_basis_and_angle_coord():
    rng = np.random.default_rng(106)
    for g in ALL:
        for _ in range(150):
            p = random_point(g, rng)
            t1, t2 = tangent_basis(p, g)
            assert tangent_dot(t1, t1, g) == pytest.approx(1.0, abs=1e-12)
            assert tangent_dot(t2, t2, g) == pytest.approx(1.0, abs=1e-12)
            assert tangent_dot(t1, t2, g) == pytest.approx(0.0, abs=1e-12)
            theta = rng.uniform(0, 2 * math.pi)
            q = exp_map(p, tangent_from_angle(p, theta, g), 0.4, g)
            got = angle_coord(p, q, g)
            diff = (got - theta) % (2.0 * math.pi)
            assert min(diff, 2.0 * math.pi - diff) < 1e-10


def test_angle_coord_at_origin_matches_chart_azimuth():
    for g in ALL:
        o = origin(g)
        for theta in (0.0, 0.4, 2.0, 3.9, 5.8):
            q = from_polar(g, theta, 0.5)
            assert angle_coord(o, q, g) == pytest.approx(theta, abs=1e-12)


def test_from_polar_round_trip():
    rng = np.random.default_rng(107)
    for g in ALL:
        o = origin(g)
        for _ in range(100):
            theta = rng.uniform(0, 2 * math.pi)
            t = rng.uniform(0.01, 1.3)
            p = from_polar(g, theta, t)
            assert distance(o, p, g) == pytest.approx(t, abs=1e-12)


@pytest.mark.parametrize("t", (15.0, 18.0, 20.0, 40.0, 700.0))
def test_from_polar_stays_on_the_hyperboloid_far_out(t):
    # the closed form (sinh t cos theta, sinh t sin theta, cosh t): a walk
    # from the origin renormalizes by z^2 - x^2 - y^2, which cancels out here
    for k in range(64):
        theta = 2.0 * math.pi * k / 64
        p = from_polar(HYPERBOLIC, theta, t)
        assert p.z == math.cosh(t)
        assert math.hypot(p.x, p.y) == pytest.approx(math.sinh(t), rel=1e-15)


@pytest.mark.parametrize("name, t", (
    ("euclidean", -0.5), ("hyperbolic", -1e-300), ("euclidean", math.inf),
    ("hyperbolic", math.nan), ("spherical", math.pi), ("spherical", 4.0),
    ("hyperbolic", 710.5), ("hyperbolic", 1e6),
))
def test_from_polar_refuses_a_distance_out_of_range(name, t):
    with pytest.raises(SpindleError) as err:
        from_polar(GEOMETRIES[name], 0.3, t)
    assert err.value.code == "BAD_RANGE" and str(t) in str(err.value)


def test_exp_map_refuses_a_walk_past_the_float_range():
    # cosh t overflows past t = 710.47: a coded error naming t, not OverflowError
    o = origin(HYPERBOLIC)
    with pytest.raises(SpindleError) as err:
        exp_map(o, tangent_from_angle(o, 0.3, HYPERBOLIC), 711.0, HYPERBOLIC)
    assert err.value.code == "BAD_RANGE" and "t=711.0" in str(err.value)


@pytest.mark.parametrize("t", (30.0, 100.0, 350.0, 400.0, 700.0))
def test_exp_map_refuses_a_walk_lost_to_rounding(t):
    # past t = 17 on the hyperboloid z^2 - x^2 - y^2 = 1 cancels below the
    # rounding of z^2: rescaled by it, the walk has no correct digit (z =
    # 7.8e7 at t = 30, where cosh t = 5.3e12), and from t = 400 it is nan; a
    # walk to t = 17, whose norm keeps a few digits, still runs
    o = origin(HYPERBOLIC)
    u = tangent_from_angle(o, 0.3, HYPERBOLIC)
    with pytest.raises(SpindleError) as err:
        exp_map(o, u, t, HYPERBOLIC)
    assert err.value.code == "BAD_RANGE"
    assert exp_map(o, u, 17.0, HYPERBOLIC).z == pytest.approx(math.cosh(17.0), rel=1e-2)


def test_midpoint_bisects():
    rng = np.random.default_rng(108)
    for g in ALL:
        for _ in range(100):
            p, q = random_point(g, rng), random_point(g, rng)
            d = distance(p, q, g)
            if d < 1e-6:
                continue
            m = midpoint(p, q, g)
            assert distance(p, m, g) == pytest.approx(0.5 * d, abs=1e-12)
            assert distance(m, q, g) == pytest.approx(0.5 * d, abs=1e-12)


def direction_and_midpoint_reference(p, q, g):
    """50-digit values, for the float inputs as given, of the direction
    p -> q (the tangent part of q - cs(d) p, normalized) and of the
    midpoint (p + q normalized on the surface; (p + q) / 2 when flat)."""
    with mp.workdps(50):
        k = g.kappa
        P, Q = ([mp.mpf(c) for c in x] for x in (p, q))
        w = (1, 1, k)

        def form(a, b):
            return sum(c * x * y for c, x, y in zip(w, a, b))

        D = [b - a for a, b in zip(P, Q)]
        U = [d + k * form(D, D) / 2 * a for d, a in zip(D, P)]
        if k:
            U = [u - form(P, U) / form(P, P) * a for u, a in zip(U, P)]
            n = mp.sqrt(abs(form(U, U)))
        else:
            n = mp.sqrt(form(U, U))
        S = [a + b for a, b in zip(P, Q)]
        s = mp.sqrt(abs(form(S, S))) if k else 2
        return [u / n for u in U], [x / s for x in S]


def relative_gap(a, b):
    return float(max(abs(x - y) for x, y in zip(a, b)) / max(abs(x) for x in b))


@pytest.mark.parametrize("name, offset, d_max", [
    ("euclidean", 50.0, 1.4),
    ("spherical", 0.0, math.pi - 1.5e-6),
    ("spherical", 1.0, math.pi - 1.5e-6),
    ("spherical", 1.5, 1.4),
    ("hyperbolic", 1.0, 1.4),
    ("hyperbolic", 5.0, 1.4),
])
def test_log_dir_and_midpoint_match_the_distance_forms(name, offset, d_max):
    # chords d from 1e-10 to d_max, a quarter of them at exactly 1e-10 and,
    # on the sphere, another quarter at d_max (pi - 1.5e-6 is just short of
    # the ANTIPODAL cut-off at pi - 1.4e-6); base points up to `offset` from
    # the origin.  tol is 1e-14, times the coordinate scale cosh^2 D on the
    # hyperboloid.  The forms through chord2 must match 50-digit values of
    # the same float inputs within tol at every d, and the forms through
    # distance (tests/oracles.py) within tol where those are well
    # conditioned, 0.1 <= d <= 3: they lose digits like eps / d^2 at short
    # chords (2.3e-9 on the sphere, 6.8e-6 at hyperbolic offset 5) and like
    # eps / (pi - d) near the antipode.  The midpoint's equidistance is
    # held to tol / cos(d/2) on the sphere: the inputs are unit vectors only
    # to rounding, which alone moves it like eps / (pi - d) there
    g = GEOMETRIES[name]
    rng = np.random.default_rng(115)
    for i in range(400):
        p = from_polar(g, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, offset))
        d = 10.0 ** rng.uniform(-10.0, math.log10(d_max))
        if i % 4 == 0:
            d = 1e-10
        elif i % 4 == 1 and g.kappa > 0:
            d = d_max
        q = exp_map(p, tangent_from_angle(p, rng.uniform(0.0, 2.0 * math.pi), g), d, g)
        tol = 1e-14 * (math.cosh(offset) ** 2 if g.kappa < 0 else 1.0)
        ref_dir, ref_mid = direction_and_midpoint_reference(p, q, g)
        for new, old, ref in ((log_dir(p, q, g), log_dir_reference(p, q, g), ref_dir),
                              (midpoint(p, q, g), midpoint_reference(p, q, g), ref_mid)):
            assert relative_gap(new, ref) <= tol
            if 0.1 <= d <= 3.0:
                assert relative_gap(new, old) <= tol
        m = midpoint(p, q, g)
        equi_tol = tol / math.cos(0.5 * d) if g.kappa > 0 else tol
        assert abs(distance(p, m, g) - distance(m, q, g)) <= equi_tol


def test_log_dir_and_midpoint_keep_the_distance_cut_offs():
    # DEGENERATE below d = 1e-12, ANTIPODAL past p.q = -1 + 1e-12 (d > pi - 1.41e-6)
    for g in ALL:
        p = from_polar(g, 0.3, 0.2)
        u = tangent_from_angle(p, 1.0, g)
        for f in (log_dir, log_dir_reference):
            f(p, exp_map(p, u, 1.1e-12, g), g)
            with pytest.raises(SpindleError) as err:
                f(p, exp_map(p, u, 0.9e-12, g), g)
            assert err.value.code == "DEGENERATE"
    p = from_polar(SPHERICAL, 0.3, 0.2)
    u = tangent_from_angle(p, 1.0, SPHERICAL)
    for f in (log_dir, log_dir_reference, midpoint, midpoint_reference):
        f(p, exp_map(p, u, math.pi - 1.5e-6, SPHERICAL), SPHERICAL)
        with pytest.raises(SpindleError) as err:
            f(p, exp_map(p, u, math.pi - 1e-6, SPHERICAL), SPHERICAL)
        assert err.value.code == "ANTIPODAL"


def equilateral_angle(s, g):
    # vertex angle of the equilateral triangle with side s
    if g.kappa == 0:
        return math.pi / 3.0
    if g.kappa > 0:
        return math.acos(math.cos(s) / (1.0 + math.cos(s)))
    return math.acos(math.cosh(s) / (1.0 + math.cosh(s)))


def test_angle_at_equilateral():
    # pi/3 when flat, larger on the sphere, smaller in the hyperbolic plane
    s = 0.8
    for g in ALL:
        alpha = equilateral_angle(s, g)
        a = from_polar(g, 0.0, s)
        b = origin(g)
        c = from_polar(g, alpha, s)
        assert distance(a, c, g) == pytest.approx(s, abs=1e-12)
        assert side_from_cosine_law(s, s, alpha, g) == pytest.approx(s, abs=1e-12)
        # all three interior angles agree by symmetry
        assert angle_at(a, b, c, g) == pytest.approx(alpha, abs=1e-12)
        assert angle_at(b, a, c, g) == pytest.approx(alpha, abs=1e-10)
        assert angle_at(a, c, b, g) == pytest.approx(alpha, abs=1e-10)
        if g.kappa > 0:
            assert alpha > math.pi / 3.0 + 1e-3
        elif g.kappa < 0:
            assert alpha < math.pi / 3.0 - 1e-3


def law_of_cosines_reference(b, c, alpha, g):
    # direct textbook forms, evaluated in high precision
    with mp.workdps(40):
        bb, cc, aa = mp.mpf(b), mp.mpf(c), mp.mpf(alpha)
        if g.kappa == 0:
            out = mp.sqrt(bb * bb + cc * cc - 2 * bb * cc * mp.cos(aa))
        elif g.kappa > 0:
            out = mp.acos(mp.cos(bb) * mp.cos(cc) + mp.sin(bb) * mp.sin(cc) * mp.cos(aa))
        else:
            out = mp.acosh(mp.cosh(bb) * mp.cosh(cc) - mp.sinh(bb) * mp.sinh(cc) * mp.cos(aa))
        return float(out)


MODEL_REFERENCE = {
    # kappa: (sn, cs, vers, avers), the textbook forms
    0: (lambda x: x, lambda x: mp.mpf(1), lambda x: x * x / 2, lambda v: mp.sqrt(2 * v)),
    1: (mp.sin, mp.cos, lambda x: 1 - mp.cos(x), lambda v: mp.acos(1 - v)),
    -1: (mp.sinh, mp.cosh, lambda x: mp.cosh(x) - 1, lambda v: mp.acosh(1 + v)),
}
MODEL_ARGS = (1e-8, 1e-3, 0.3, 1.0, 1.4, 3.0)


def test_model_functions_match_reference():
    for g in ALL:
        sn, cs, vers, avers_ref = MODEL_REFERENCE[g.kappa]
        with mp.workdps(50):
            for x in MODEL_ARGS:
                assert g.sn(x) == pytest.approx(float(sn(mp.mpf(x))), rel=1e-15)
                assert g.cs(x) == pytest.approx(float(cs(mp.mpf(x))), rel=1e-15)
                assert g.vers(x) == pytest.approx(float(vers(mp.mpf(x))), rel=1e-15)
                v = g.vers(x)
                assert avers(g, v) == pytest.approx(float(avers_ref(mp.mpf(v))), rel=1e-15)


def test_avers_inverts_vers():
    for g in ALL:
        for x in MODEL_ARGS:
            assert avers(g, g.vers(x)) == pytest.approx(x, rel=1e-15)
    # the sphere's arcsine saturates instead of failing on a sine past 1
    assert SPHERICAL.asn(1.0 + 1e-15) == 0.5 * math.pi


def turn_toward_reference(p, u, q, g):
    # atan2(det3(p, u, v), form(u, v)) for the direction v = q - cs(d) p,
    # with cs d = 1 - kappa vers d and form(q - p, q - p) = 2 vers d
    with mp.workdps(50):
        P, U, Q = ([mp.mpf(c) for c in x] for x in (p, u, q))
        k = g.kappa
        D = [b - a for a, b in zip(P, Q)]
        cs = 1 - k * (D[0] ** 2 + D[1] ** 2 + k * D[2] ** 2) / 2
        V = [b - cs * a for a, b in zip(P, Q)]
        det = mp.det(mp.matrix([P, U, V]))
        return mp.atan2(det, U[0] * V[0] + U[1] * V[1] + k * U[2] * V[2])


@pytest.mark.parametrize("name, offset, tol", [
    ("euclidean", 50.0, 1e-14),
    ("spherical", 1.5, 1e-14),
    ("hyperbolic", 1.0, 1e-14),
    ("hyperbolic", 5.0, 1e-10),
])
def test_turn_toward_matches_reference(name, offset, tol):
    # chords d from 1e-8 to 1.4, base points up to `offset` from the origin;
    # turning to log_dir(p, q) instead loses 2.5e-9 on the sphere and
    # 3.7e-6 at hyperbolic offset 5
    g = GEOMETRIES[name]
    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(1000):
        p = from_polar(g, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, offset))
        u = tangent_from_angle(p, rng.uniform(0.0, 2.0 * math.pi), g)
        d = 10.0 ** rng.uniform(-8.0, math.log10(1.4))
        q = exp_map(p, tangent_from_angle(p, rng.uniform(0.0, 2.0 * math.pi), g), d, g)
        err = abs(turn_toward(p, u, q, g) - turn_toward_reference(p, u, q, g))
        worst = max(worst, float(min(err, 2 * mp.pi - err)))
    assert worst <= tol


@pytest.mark.parametrize("name, offset", [
    ("euclidean", 50.0),
    ("spherical", 1.5),
    ("hyperbolic", 1.0),
    ("hyperbolic", 5.0),
])
def test_chord2_is_twice_the_versine_of_the_distance(name, offset):
    # chords d from 1e-4 to 1.4, base points up to `offset` from the origin
    g = GEOMETRIES[name]
    rng = np.random.default_rng(114)
    for _ in range(1000):
        p = from_polar(g, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, offset))
        d = 10.0 ** rng.uniform(-4.0, math.log10(1.4))
        q = exp_map(p, tangent_from_angle(p, rng.uniform(0.0, 2.0 * math.pi), g), d, g)
        assert chord2(p, q, g) == pytest.approx(2.0 * g.vers(distance(p, q, g)), rel=1e-14)


def test_distinct_merges_each_point_into_an_earlier_kept_one():
    # steps of 0.6 MERGE_EPS along a geodesic: the second merges into the
    # first, the third is kept (its only close neighbour was merged), the
    # fourth merges into the third; a repeat merges into its first copy
    for g in ALL:
        p = from_polar(g, 0.4, 0.3)
        u = tangent_from_angle(p, 1.0, g)
        step = [exp_map(p, u, k * 0.6 * MERGE_EPS, g) for k in range(1, 5)]
        far = from_polar(g, 2.0, 0.5)
        pts = [step[0], far, step[1], step[2], step[3], far]
        assert _distinct(pts, g) == [0, 1, 3]


def planted_twins(g, base, rng, shares=(0.5, 0.99)):
    """base plus, for each point, a twin MERGE_EPS * share away in a random
    direction, for each share, all in a seeded random order."""
    pts = list(base)
    for share in shares:
        pts += [exp_map(p, tangent_from_angle(p, rng.uniform(0.0, 2.0 * math.pi), g),
                        share * MERGE_EPS, g) for p in base]
    return [pts[i] for i in rng.permutation(len(pts))]


def test_distinct_matches_every_pair_reference():
    rng = np.random.default_rng(311)
    for g in ALL:
        for n in (1, 2, 12, 48, 200):
            base = [random_point(g, rng, scale=0.6) for _ in range(n)]
            pts = planted_twins(g, base, rng)
            assert _distinct(pts, g) == distinct_reference(pts, g)
            assert len(_distinct(pts, g)) < len(pts)
            # chains of steps of 0.6 MERGE_EPS, interleaved: which link is
            # kept depends on which came first
            chains = []
            for p in base[:max(1, n // 4)]:
                u = tangent_from_angle(p, rng.uniform(0.0, 2.0 * math.pi), g)
                chains += [exp_map(p, u, k * 0.6 * MERGE_EPS, g) for k in range(1, 6)]
            pts = [chains[i] for i in rng.permutation(len(chains))] + base
            assert _distinct(pts, g) == distinct_reference(pts, g)
    for n in (1, 2, 12, 48, 200):
        # one shared x, steps of 0.4 MERGE_EPS in y: every point in the window
        column = [Point(0.3, 0.1 + k * 0.4 * MERGE_EPS, 1.0) for k in range(n)]
        assert _distinct(column, EUCLIDEAN) == distinct_reference(column, EUCLIDEAN)


def sheet_point(theta, t):
    """Hyperboloid point t from the origin at angle theta, from (sinh t,
    cosh t): exp_map's normalization fails far out."""
    return Point(math.sinh(t) * math.cos(theta), math.sinh(t) * math.sin(theta), math.cosh(t))


def test_distinct_matches_reference_far_out_and_on_the_equator():
    rng = np.random.default_rng(313)
    for n in (1, 2, 12, 48, 200):
        # hyperbolic points up to 20 from the origin, where the window grows
        # like cosh^3; twins off them radially and sideways
        base = [(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 20.0)) for _ in range(n)]
        pts = [sheet_point(th, t) for th, t in base]
        for share in (0.5, 0.99):
            d = share * MERGE_EPS
            pts += [sheet_point(th, t + d) for th, t in base]
            pts += [sheet_point(th + d / max(math.sinh(t), d), t) for th, t in base]
        pts = [pts[i] for i in rng.permutation(len(pts))]
        assert _distinct(pts, HYPERBOLIC) == distinct_reference(pts, HYPERBOLIC)
        # radial neighbours 1e-9 to 1e-5 apart, 5 to 16 out: their rounded
        # chord2 can fall to zero or below, and the rounding term of the
        # window must reach them
        base = [(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(5.0, 16.0)) for _ in range(n)]
        pts = [sheet_point(th, t + d) for th, t in base for d in (0.0, 10 ** rng.uniform(-9, -5))]
        pts = [pts[i] for i in rng.permutation(len(pts))]
        assert _distinct(pts, HYPERBOLIC) == distinct_reference(pts, HYPERBOLIC)
        # spherical points on the equator, z = 0
        base = [Point(math.cos(th), math.sin(th), 0.0)
                for th in rng.uniform(0.0, 2.0 * math.pi, n)]
        pts = planted_twins(SPHERICAL, base, rng)
        assert _distinct(pts, SPHERICAL) == distinct_reference(pts, SPHERICAL)
        assert len(_distinct(pts, SPHERICAL)) < len(pts)


def cos_angle_reference(a, b, c, g):
    """Cosine of the angle between sides a and b opposite side c, at 50 digits."""
    with mp.workdps(50):
        a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        if g.kappa == 0:
            out = (a * a + b * b - c * c) / (2 * a * b)
        elif g.kappa > 0:
            out = (mp.cos(c) - mp.cos(a) * mp.cos(b)) / (mp.sin(a) * mp.sin(b))
        else:
            out = (mp.cosh(a) * mp.cosh(b) - mp.cosh(c)) / (mp.sinh(a) * mp.sinh(b))
        return float(out)


def test_cos_angle_matches_reference():
    # the law of cosines inside _intersection_angle: a circle of radius a
    # about one center meets one of radius c about a center b away at beta
    # off the line of centers, the angle between sides a and b
    sides = (
        (1e-8, 1e-8, 1e-8),
        (1e-8, 2e-8, 1.5e-8),
        (0.5, 0.7, 0.6),
        (1.0, 1.2, 0.9),
        (0.3, 1.1, 1.0),
    )
    for g in ALL:
        for a, b, c in sides:
            want = math.acos(cos_angle_reference(a, b, c, g))
            assert _intersection_angle(g.vers(b), a, c, g) == pytest.approx(want, rel=1e-15)


def test_side_from_cosine_law_matches_reference():
    rng = np.random.default_rng(109)
    for g in ALL:
        for _ in range(200):
            b = rng.uniform(0.05, 1.4)
            c = rng.uniform(0.05, 1.4)
            alpha = rng.uniform(0.05, math.pi - 0.05)
            want = law_of_cosines_reference(b, c, alpha, g)
            assert side_from_cosine_law(b, c, alpha, g) == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_side_from_cosine_law_tiny_sides():
    # the half-angle form must not cancel when b = c = 1e-4
    for g in ALL:
        b = c = 1e-4
        got = side_from_cosine_law(b, c, math.pi / 3.0, g)
        assert abs(got - 1e-4) < 1e-10
        # near-degenerate data: the direct acos/acosh form still keeps
        # ~27 good digits at dps 40, enough to judge the half-angle form
        tiny = side_from_cosine_law(0.5, 0.5 + 1e-6, 1e-7, g)
        assert tiny == pytest.approx(
            law_of_cosines_reference(0.5, 0.5 + 1e-6, 1e-7, g), rel=1e-9
        )


def test_side_from_cosine_law_agrees_with_embedding():
    rng = np.random.default_rng(110)
    for g in ALL:
        for _ in range(100):
            b = rng.uniform(0.05, 1.2)
            c = rng.uniform(0.05, 1.2)
            alpha = rng.uniform(0.05, math.pi - 0.05)
            p = origin(g)
            q = from_polar(g, 0.0, b)
            s = from_polar(g, alpha, c)
            assert side_from_cosine_law(b, c, alpha, g) == pytest.approx(
                distance(q, s, g), abs=1e-12
            )


def test_side_from_cosine_law_rejects_bad_input():
    for g in ALL:
        with pytest.raises(SpindleError) as err:
            side_from_cosine_law(-1.0, 1.0, 1.0, g)
        assert err.value.code == "BAD_RANGE"
        with pytest.raises(SpindleError):
            side_from_cosine_law(0.5, 0.5, 0.0, g)
        with pytest.raises(SpindleError):
            side_from_cosine_law(0.5, 0.5, math.pi, g)
    with pytest.raises(SpindleError):
        side_from_cosine_law(1.6, 0.5, 1.0, SPHERICAL)


def test_circle_intersection_points_lie_on_both_circles():
    rng = np.random.default_rng(111)
    for g in ALL:
        hits = 0
        for _ in range(300):
            c1 = Circle(random_point(g, rng), rng.uniform(0.2, 1.0))
            c2 = Circle(random_point(g, rng), rng.uniform(0.2, 1.0))
            if g.kappa > 0 and (c1.radius >= math.pi / 2 or c2.radius >= math.pi / 2):
                continue
            pts = circle_circle_intersection(c1, c2, g)
            for p in pts:
                assert distance(c1.center, p, g) == pytest.approx(c1.radius, abs=1e-9)
                assert distance(c2.center, p, g) == pytest.approx(c2.radius, abs=1e-9)
            if len(pts) == 2:
                hits += 1
                left, right = pts
                assert det3(c1.center, c2.center, left) > 0.0
                assert det3(c1.center, c2.center, right) < 0.0
        assert hits > 50


def test_circle_intersection_tangent_and_empty_cases():
    for g in ALL:
        o = origin(g)
        far = from_polar(g, 0.3, 0.9)
        # externally tangent: the single point sits on the center geodesic
        c1 = Circle(o, 0.4)
        c2 = Circle(exp_map(o, log_dir(o, far, g), 0.4 + 0.35, g), 0.35)
        pts = circle_circle_intersection(c1, c2, g)
        assert len(pts) == 1
        assert distance(c1.center, pts[0], g) == pytest.approx(0.4, abs=1e-9)
        # disjoint, concentric, nested: all empty
        assert circle_circle_intersection(Circle(o, 0.2), Circle(far, 0.2), g) == ()
        assert circle_circle_intersection(Circle(o, 0.2), Circle(o, 0.5), g) == ()
        # concentric circles coincide only at equal radii: 1e-13 apart they miss
        assert circle_circle_intersection(Circle(o, 0.3), Circle(o, 0.3 + 1e-13), g) == ()
        inner = Circle(from_polar(g, 0.0, 0.05), 0.1)
        assert circle_circle_intersection(Circle(o, 0.8), inner, g) == ()
        with pytest.raises(SpindleError) as err:
            circle_circle_intersection(Circle(o, 0.3), Circle(o, 0.3), g)
        assert err.value.code == "COINCIDENT"


def test_circle_intersection_matches_the_distance_reference():
    # cos beta from chord2 and the right point as the mirror of the left one
    # against vers of the inverse-trigonometric distance and two rotations, on r-scan
    # pairs (equal radii r about ring points), cap_domain pairs (r - rho, r)
    # and near-tangent pairs (1e-12 < 1 - |cos beta| < 1e-10).  Points agree
    # within 1e-14 of their size, or where the pair is near tangent within
    # what a few ulps of cos beta move them: 2e-15 sn r1 / sin beta
    rng = np.random.default_rng(112)
    for g in ALL:
        pairs = []
        for r in (0.7, 1.0, 1.4):
            ring = jittered_ring(g, 24, r, rng)
            pairs += [(Circle(ring[i], r), Circle(ring[(i + k) % 24], r))
                      for i in range(24) for k in (1, 8, 12)]
            for _ in range(60):
                rho = rng.uniform(0.2, 0.8) * r
                p = random_point(g, rng, 0.3)
                u = tangent_from_angle(p, rng.uniform(0.0, 2.0 * math.pi), g)
                q = exp_map(p, u, rng.uniform(rho, 2.0 * r - rho), g)
                pairs.append((Circle(p, r - rho), Circle(q, r)))
                # a circle about p and one through the point at beta off its
                # line of centers, beta (or pi - beta) in (sqrt(2e-12), sqrt(2e-10))
                beta = rng.uniform(1.42e-6, 1.41e-5)
                x = exp_map(p, rotate_tangent(p, u, beta if rng.uniform() < 0.5 else math.pi - beta, g), r, g)
                q = exp_map(p, u, rng.uniform(0.1, 1.0) * r, g)
                if 1e-3 < distance(q, x, g) < g.radius_limit:
                    pairs.append((Circle(p, r), Circle(q, distance(q, x, g))))
        near = 0
        for c1, c2 in pairs:
            got, want = circle_circle_intersection(c1, c2, g), circle_circle_intersection_reference(c1, c2, g)
            assert len(got) == len(want) == 2, (g, c1, c2)
            cosb = cos_angle(c1.radius, distance(c1.center, c2.center, g), c2.radius, g)
            sinb = math.sqrt(max(1.0 - cosb * cosb, 0.0))
            near += sinb < 1.5e-5
            for a, b in zip(got, want):
                size = max(abs(b.x), abs(b.y), abs(b.z), 1.0)
                tol = size * max(1e-14, 2e-15 * g.sn(c1.radius) / sinb)
                assert max(abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z)) <= tol, (g, c1, c2)
        assert near >= 100


def test_smallest_enclosing_disk_basics():
    g = EUCLIDEAN
    pts = [embed(g, x, y) for x, y in [(0, 0), (1, 0), (0.5, 0.8), (0.4, 0.3)]]
    center, radius, support = smallest_enclosing_disk(pts, g)
    for p in pts:
        assert distance(center, p, g) <= radius + 1e-12
    for i in support:
        assert distance(center, pts[i], g) == pytest.approx(radius, abs=1e-9)
    assert len(support) in (2, 3)


def brute_force_sed(pts, g):
    # try every pair midpoint and every triple circumcenter; smallest wins
    best = (math.inf, None)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            c = midpoint(pts[i], pts[j], g)
            r = max(distance(c, p, g) for p in pts)
            best = min(best, (r, c), key=lambda t: t[0])
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                try:
                    c, r, _ = smallest_enclosing_disk([pts[i], pts[j], pts[k]], g)
                except SpindleError:
                    continue
                r_all = max(distance(c, p, g) for p in pts)
                if r_all <= r + 1e-12:
                    best = min(best, (r_all, c), key=lambda t: t[0])
    return best[0]


def test_smallest_enclosing_disk_is_minimal():
    rng = np.random.default_rng(112)
    for g in ALL:
        for _ in range(40):
            pts = [random_point(g, rng, scale=0.6) for _ in range(rng.integers(3, 8))]
            center, radius, _ = smallest_enclosing_disk(pts, g)
            assert all(distance(center, p, g) <= radius + 1e-9 for p in pts)
            assert radius <= brute_force_sed(pts, g) + 1e-9


def test_smallest_enclosing_disk_permutation_invariant():
    rng = np.random.default_rng(113)
    for g in ALL:
        pts = [random_point(g, rng) for _ in range(7)]
        c0, r0, _ = smallest_enclosing_disk(pts, g)
        for _ in range(10):
            perm = list(rng.permutation(len(pts)))
            c1, r1, _ = smallest_enclosing_disk([pts[i] for i in perm], g)
            assert r1 == pytest.approx(r0, abs=1e-10)
            assert distance(c0, c1, g) < 1e-8


def check_enclosing_disk(pts, g):
    """The disk covers every point within 1e-9, each support point lies on
    its circle, and its radius is the brute-force minimum."""
    center, radius, support = smallest_enclosing_disk(pts, g)
    assert all(distance(center, p, g) <= radius + 1e-9 for p in pts)
    assert support and all(0 <= i < len(pts) for i in support)
    for i in support:
        assert distance(center, pts[i], g) == pytest.approx(radius, abs=1e-9)
    assert radius == pytest.approx(brute_force_sed(pts, g), abs=1e-9)
    return center, radius, support


def test_smallest_enclosing_disk_up_to_48_points():
    rng = np.random.default_rng(115)
    for g in ALL:
        p = random_point(g, rng)
        assert smallest_enclosing_disk([p], g) == (p, 0.0, (0,))
        for n in (2, 3, 9, 20, 48):
            check_enclosing_disk([random_point(g, rng, scale=0.6) for _ in range(n)], g)


def test_smallest_enclosing_disk_of_ring_hull_centers():
    # arc centers of a jittered ring hull are nearly cocircular: every
    # triple is a candidate support set of almost the same radius
    rng = np.random.default_rng(116)
    for g in ALL:
        for n in (16, 48):
            hull = ball_hull(jittered_ring(g, n, 1.0, rng), 1.0, g)
            centers = list(hull.centers)
            assert len(centers) == n
            first = check_enclosing_disk(centers, g)
            assert smallest_enclosing_disk(centers, g) == first  # same bits


def test_smallest_enclosing_disk_takes_few_distances(monkeypatch):
    # containment is tested on chord2 against 2 vers(R + 1e-9): the
    # inverse-trigonometric distance runs only in circumcenter and for the
    # last disk's radius, not once per covers test (which made 866-1141
    # calls here)
    calls = 0

    def counted(p, q, g):
        nonlocal calls
        calls += 1
        return distance(p, q, g)

    monkeypatch.setattr(geometry, "distance", counted)
    rng = np.random.default_rng(209)
    for g in ALL:
        pts = jittered_ring(g, 48, 1.0, rng)
        calls = 0
        smallest_enclosing_disk(pts, g)
        assert calls <= 3 * len(pts)


def test_smallest_enclosing_disk_near_duplicates():
    rng = np.random.default_rng(117)
    for g in ALL:
        base = [random_point(g, rng, scale=0.6) for _ in range(6)]
        twins = [
            exp_map(p, tangent_from_angle(p, rng.uniform(0.0, 2.0 * math.pi), g), MERGE_EPS, g)
            for p in base
        ]
        check_enclosing_disk(base + twins, g)
        check_enclosing_disk([base[0]] * 4 + [twins[0]], g)


def test_smallest_enclosing_disk_pivots_on_ties_and_large_sets():
    # exactly cocircular regular k-gons (every triple of vertices spans the
    # same circle), the 42-point spherical ring whose support sets
    # {10, 18, 34} and {10, 19, 34} are 1.9e-10 apart in radius,
    # near-duplicates at MERGE_EPS and n = 200.  Each disk covers its points
    # within 1e-9 and has the radius of its pins' smallest disk (support[:3]),
    # found among the pair midpoints and the circumcenter, which bounds the
    # smallest radius from below, so it is the smallest within 1e-9; a pivot
    # loop past its bound would raise NO_CONVERGENCE
    def check(pts, g):
        center, radius, support = smallest_enclosing_disk(pts, g)
        assert all(distance(center, p, g) <= radius + 1e-9 for p in pts)
        few = [pts[i] for i in support[:3]]
        centers = [midpoint(p, q, g) for p, q in itertools.combinations(few, 2)]
        if len(few) == 3 and circumcenter(*few, g) is not None:
            centers.append(circumcenter(*few, g))
        assert radius == pytest.approx(min(max(distance(c, p, g) for p in few) for c in centers),
                                       abs=1e-9)
        return radius

    rng = np.random.default_rng(118)
    for g in ALL:
        for k in range(4, 49):
            gon = [from_polar(g, 0.3 + 2.0 * math.pi * i / k, 0.6) for i in range(k)]
            assert check(gon, g) == pytest.approx(0.6, abs=1e-9)
            # every vertex lies on the rim, so the support lists all k
            assert sorted(smallest_enclosing_disk(gon, g)[2]) == list(range(k))
        base = [random_point(g, rng, scale=0.6) for _ in range(12)]
        twins = [exp_map(p, tangent_from_angle(p, rng.uniform(0.0, 2.0 * math.pi), g), MERGE_EPS, g)
                 for p in base]
        check_enclosing_disk(base + twins, g)
        check([random_point(g, rng, scale=0.6) for _ in range(200)], g)
    ring = jittered_ring(SPHERICAL, 42, 1.4, np.random.default_rng((8, 17)))
    check_enclosing_disk(ring, SPHERICAL)


def sed_corpus(g, rng):
    """Uniform sets and jittered rings of n = 2..48 points, the arc centers
    of their hulls, exactly cocircular k-gons, MERGE_EPS twins, n = 200 and
    (on the sphere) the 42-point ring of near-tied support sets."""
    for n in range(2, 49):
        for pts in ([random_point(g, rng, scale=0.6) for _ in range(n)],
                    jittered_ring(g, n, 1.0, rng)):
            yield pts
            yield list(ball_hull(pts, 1.0, g).centers)
    for k in range(4, 49):
        yield [from_polar(g, 0.3 + 2.0 * math.pi * i / k, 0.6) for i in range(k)]
    base = [random_point(g, rng, scale=0.6) for _ in range(12)]
    twins = [exp_map(p, tangent_from_angle(p, rng.uniform(0.0, 2.0 * math.pi), g), MERGE_EPS, g)
             for p in base]
    yield base + twins
    yield [base[0]] * 4 + [twins[0]]
    yield [random_point(g, rng, scale=0.6) for _ in range(200)]
    if g is SPHERICAL:
        yield jittered_ring(g, 42, 1.4, np.random.default_rng((8, 17)))


def test_smallest_enclosing_disk_builds_one_pair_disk_per_step(monkeypatch):
    # the pair disk on f and the support point farthest from it gives the
    # same bits as ranking the pair disks on every support point (the
    # reference), with one midpoint per pivot step while every triple has
    # a circle (the all-pairs step took up to three)
    calls = {"midpoint": 0, "no_circle": 0}

    def counted_midpoint(p, q, g):
        calls["midpoint"] += 1
        return midpoint(p, q, g)

    def counted_circumcenter(a, b, c, g):
        cc = circumcenter(a, b, c, g)
        calls["no_circle"] += cc is None
        return cc

    rng = np.random.default_rng(119)
    for g in ALL:
        one_per_step = 0
        for pts in sed_corpus(g, rng):
            want, steps = smallest_enclosing_disk_reference(pts, g)
            calls.update(midpoint=0, no_circle=0)
            with monkeypatch.context() as m:
                m.setattr(geometry, "midpoint", counted_midpoint)
                m.setattr(geometry, "circumcenter", counted_circumcenter)
                assert smallest_enclosing_disk(pts, g) == want, (g.name, len(pts))
            if not calls["no_circle"]:
                assert calls["midpoint"] <= steps, (g.name, len(pts))
                one_per_step += 1
        assert one_per_step >= 200


def tiny_triangle(g, offset=0.3):
    p = from_polar(g, 0.4, offset)
    return [exp_map(p, tangent_from_angle(p, a, g), 1e-7, g) for a in (0.1, 2.2, 4.3)]


def test_circumcenter_of_tiny_triangle():
    # collinearity is judged by the angle, not by an absolute cut-off, so
    # a triangle of circumradius 1e-7 still has its circle; the bisector
    # normals take their z parts from the chart coordinates, so the circle
    # keeps its digits at that scale in every plane
    for offset in (0.3, 1.0):
        for g in ALL:
            tri = tiny_triangle(g, offset)
            cc = circumcenter(*tri, g)
            assert cc is not None
            for p in tri:
                assert distance(cc, p, g) == pytest.approx(1e-7, abs=2e-15)
            assert smallest_enclosing_disk(tri, g)[1] == pytest.approx(1e-7, abs=2e-15)


def test_circumcenter_none_below_the_sine_cut():
    g = EUCLIDEAN
    assert circumcenter(embed(g, 0.0, 0.0), embed(g, 0.5, 0.25), embed(g, 1.0, 0.5), g) is None
    # chords of length t meeting at a sine of about h / t (plus t / 2 on the
    # sphere, where the geodesic through them curves)
    t = 1e-14
    for g in (EUCLIDEAN, SPHERICAL):
        a, b = embed(g, 0.0, 0.0), embed(g, t, 0.0)
        assert circumcenter(a, b, embed(g, 2.0 * t, 1e-29), g) is None
        assert circumcenter(a, b, embed(g, 2.0 * t, 1e-25), g) is not None
    # three points at distance 0.5 from the geodesic y = 0 of the hyperboloid
    # lie on a hypercycle, no circle
    g = HYPERBOLIC
    ch, sh = math.cosh(0.5), math.sinh(0.5)
    hyper = [Point(ch * math.sinh(t), sh, ch * math.cosh(t)) for t in (-1.0, 0.2, 1.0)]
    assert circumcenter(*hyper, g) is None
    # three points near the origin on the circle of radius 18 about
    # (0, -sinh 18, cosh 18), where z = 1 - y tanh 18: the center lies past
    # the cut of a light-like n, though the points are far from collinear
    th, sech2 = math.tanh(18.0), 1.0 / math.cosh(18.0) ** 2
    ys = [(x, -x * x / (th + math.sqrt(th * th - x * x * sech2))) for x in (-1.0, 0.2, 1.0)]
    assert circumcenter(*[Point(x, y, 1.0 - y * th) for x, y in ys], g) is None


def test_circumcenter_near_the_equator():
    # a.z + b.z = 0: the chart form of kappa (a.z - b.z) has nothing to divide
    # by, and the z difference itself is taken; a tiny triangle 1.4 from the
    # pole keeps the chart form, which keeps its digits
    g = SPHERICAL
    tri = [Point(math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))
           for lon, lat in ((0.0, 0.3), (0.2, -0.3), (0.1, 0.5))]
    for a, b, c in itertools.permutations(tri):
        cc = circumcenter(a, b, c, g)
        d = [distance(cc, p, g) for p in tri]
        assert max(d) - min(d) < 1e-15
    tri = tiny_triangle(g, 1.4)
    cc = circumcenter(*tri, g)
    for p in tri:
        assert distance(cc, p, g) == pytest.approx(1e-7, abs=2e-15)


def test_smallest_enclosing_disk_circumcenter_fallback(monkeypatch):
    # a near-collinear triple never reaches the three-point step (the disk
    # on its outer pair covers the middle point), but a tiny triangle does;
    # with no circle through it, the grown pair disk must still cover all
    calls = []

    def no_circle(*args):
        calls.append(args)
        return None

    monkeypatch.setattr(geometry, "circumcenter", no_circle)
    for g in ALL:
        for perm in itertools.permutations(tiny_triangle(g)):
            calls.clear()
            smallest_enclosing_disk(list(perm), g)
            assert calls, "the third point lies outside every pair disk"
            check_enclosing_disk(list(perm), g)


def test_signed_distance_to_geodesic():
    rng = np.random.default_rng(114)
    for g in ALL:
        for _ in range(100):
            p = random_point(g, rng, scale=0.5)
            u = tangent_from_angle(p, rng.uniform(0, 2 * math.pi), g)
            t = rng.uniform(0.05, 0.8)
            v = perp(p, u, g)
            left = exp_map(p, v, t, g)
            right = exp_map(p, rotate_tangent(p, v, math.pi, g), t, g)
            on = exp_map(p, u, rng.uniform(0.0, 0.5), g)
            assert signed_distance_to_geodesic(left, p, u, g) == pytest.approx(t, abs=1e-10)
            assert signed_distance_to_geodesic(right, p, u, g) == pytest.approx(-t, abs=1e-10)
            assert abs(signed_distance_to_geodesic(on, p, u, g)) < 1e-10


def test_embedding_and_domain_errors():
    with pytest.raises(SpindleError) as err:
        from_polar(EUCLIDEAN, 0.0, -0.5)
    assert err.value.code == "BAD_RANGE"
    with pytest.raises(SpindleError):
        embed(SPHERICAL, 10.0, 10.0)
    with pytest.raises(SpindleError) as err:
        log_dir(origin(EUCLIDEAN), origin(EUCLIDEAN), EUCLIDEAN)
    assert err.value.code == "DEGENERATE"
    with pytest.raises(SpindleError) as err:
        log_dir(Point(0.0, 0.0, 1.0), Point(0.0, 0.0, -1.0), SPHERICAL)
    assert err.value.code == "ANTIPODAL"
    with pytest.raises(SpindleError) as err:
        exp_map(origin(EUCLIDEAN), Tangent(0.0, 0.0, 0.0), 1.0, EUCLIDEAN)
    assert err.value.code == "BAD_TANGENT"
    for g in ALL:
        with pytest.raises(SpindleError):
            g.check_radius(0.0)
        with pytest.raises(SpindleError):
            g.check_radius(float("nan"))
    with pytest.raises(SpindleError):
        SPHERICAL.check_radius(math.pi / 2)


def test_a_zero_tangent_has_no_direction():
    # _ZERO_NORM turns the zero vector into DEGENERATE, not a ZeroDivisionError
    for g in ALL:
        with pytest.raises(SpindleError) as err:
            rotate_tangent(origin(g), Tangent(0.0, 0.0, 0.0), 0.3, g)
        assert err.value.code == "DEGENERATE"
