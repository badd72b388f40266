"""Regular disk triangles and the six-arc family: inradius, partials, areas.

Frozen decimals from tests/oracles.py (triangle reconstruction via mpmath
root solving at 40 digits, partials via central differences at h = 1e-12).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    angle_coord,
    disk_intersection_exit,
    hyperbolic_inradius_reference,
    hyperbolic_triangle_area_reference,
    polar_area,
    side_from_cosine_law,
    triangle_inradius_reference,
)
from spindle.extremal import (
    regular_disk_hexagon,
    regular_disk_triangle,
    triangle_area,
    triangle_inradius,
    triangle_inradius_partials,
)
from spindle.geometry import (
    EUCLIDEAN,
    GEOMETRIES,
    HYPERBOLIC,
    SPHERICAL,
    SpindleError,
    distance,
    from_polar,
    origin,
)
from spindle.measure import area, disk_area, incircle, thickness

ALL = tuple(GEOMETRIES.values())
TWO_THIRDS_PI = 2.0 * math.pi / 3.0

# (geometry, w, r) -> inradius; oracles.py
RHO0 = {
    ("euclidean", 1.0, 2.0): 0.3819660112501051517954,
    ("euclidean", 1.0, 1.0): 0.4226497308103742354909,
    ("hyperbolic", 1.0, 1.0): 0.4297101728858705666076,
    ("hyperbolic", 0.8, 1.2): 0.32624766601810791136,
    ("hyperbolic", 1.0, 1.5): 0.4129623933930428795637,
    ("spherical", math.pi / 3.0, math.pi / 3.0): 0.4317178425262104050867,
    ("spherical", 0.8, 1.2): 0.3031252526222165947785,
}

# (geometry, w, r) -> (d rho0 / dw, d rho0 / dr); oracles.py
PARTIALS = {
    ("euclidean", 1.0, 2.0): (0.4254644007500070101197, -0.02174919474995092916214),
    ("hyperbolic", 0.8, 1.2): (0.4618393696717517728204, -0.0227807755769023188214),
    ("spherical", 0.8, 1.2): (0.4340662739499653497528, -0.06529293264064103458178),
}


def test_inradius_frozen_values():
    for (name, w, r), want in RHO0.items():
        got = triangle_inradius(w, r, GEOMETRIES[name])
        assert got == pytest.approx(want, abs=5e-13)


def test_inradius_euclidean_closed_forms():
    # w = 1, r = 2: (3 - sqrt(5)) / 2; w = r = 1 (Reuleaux): 1 - 1/sqrt(3)
    assert triangle_inradius(1.0, 2.0, EUCLIDEAN) == pytest.approx(
        0.5 * (3.0 - math.sqrt(5.0)), abs=1e-15
    )
    assert triangle_inradius(1.0, 1.0, EUCLIDEAN) == pytest.approx(
        1.0 - 1.0 / math.sqrt(3.0), abs=1e-15
    )


def test_inradius_matches_root_solver():
    # independent reconstruction: solve the closure t + rho = w where the
    # vertex distance t satisfies the cosine-law side condition
    cases = [
        (EUCLIDEAN, 0.7, 1.1),
        (HYPERBOLIC, 0.9, 1.4),
        (SPHERICAL, 0.6, 1.0),
    ]
    for g, w, r in cases:
        want = triangle_inradius_reference(g.kappa, w, r, dps=25)
        assert triangle_inradius(w, r, g) == pytest.approx(float(want), abs=1e-12)


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_inradius_keeps_its_digits_at_small_widths(g):
    # x = (r + w - 2 rho0) - r by its half-angle tangent cancels nothing: within
    # 5e-16 relative of a 25-digit bisection (2.2e-16 measured), where
    # the avers form of r + x was off by up to 7.1e-15 at w = 0.05 r
    for r in (0.1, 0.3, 0.7, 1.0, 1.4):
        for share in (0.05, 0.2, 0.5, 1.0):
            want = triangle_inradius_reference(g.kappa, share * r, r, dps=25)
            assert abs(triangle_inradius(share * r, r, g) / want - 1) <= 5e-16


def test_inradius_flat_limit_of_curved_forms():
    # shrinking scale: all three geometries converge to the euclidean value
    for g in (HYPERBOLIC, SPHERICAL):
        for scale in (1e-2, 1e-3):
            got = triangle_inradius(scale, 2.0 * scale, g)
            flat = triangle_inradius(scale, 2.0 * scale, EUCLIDEAN)
            assert got == pytest.approx(flat, rel=1e-3)


def test_inradius_thin_body_limit():
    # r -> infinity: the euclidean triangle inradius tends to w / 3
    assert triangle_inradius(1.0, 1e6, EUCLIDEAN) == pytest.approx(1.0 / 3.0, abs=1e-5)
    # and the hyperbolic one decays to its plateau exponentially fast
    vals = [triangle_inradius(1.0, float(r), HYPERBOLIC) for r in (2, 5, 10, 50)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[3] == pytest.approx(vals[2], abs=1e-7)


def test_inradius_range_errors():
    for g in ALL:
        with pytest.raises(SpindleError) as err:
            triangle_inradius(0.0, 1.0, g)
        assert err.value.code == "BAD_RANGE"
        with pytest.raises(SpindleError):
            triangle_inradius(1.2, 1.0, g)  # w > r
        with pytest.raises(SpindleError):
            triangle_inradius(-0.5, 1.0, g)
    with pytest.raises(SpindleError):
        triangle_inradius(1.0, 1.8, SPHERICAL)  # r past pi/2


@pytest.mark.parametrize("r", (10.0, 50.0, 300.0, 351.0, 700.0, 1e3, 1e6))
def test_hyperbolic_bound_keeps_its_digits_at_large_radii(r):
    # one form at every r: c = 1 / tanh r and k = delta / sinh r stay of order
    # one.  The two forms this replaced were off by 5.1e-15 (rho0) and 1.3e-14
    # (d/dr) at r = 300, and the log-space one by 4.6e-13 at r = 351 and
    # 6.6e-10 at r = 1e6 (rho0)
    for w in (0.1, 0.5, 1.0):
        assert_hyperbolic_bound_digits(w, r)


@pytest.mark.parametrize("w, r", ((5.0, 5.0), (20.0, 20.0), (40.0, 40.0), (30.0, 40.0),
                                  (720.0, 720.0), (715.0, 1000.0)))
def test_hyperbolic_bound_keeps_its_digits_at_large_widths(w, r):
    # sn(w/2) sn(r - w/2) / sn r and sn(r - w) / sn r taken as cs h - c sn h
    # and cs w - c sn w cancelled two numbers of size e^h / 2 and e^w / 2:
    # rho0 off by 3.6e-10 at w = r = 20 and 7.2e-3 at w = r = 40, d/dr by
    # 1.5e-5 at (30, 40); past w = 710 cs w overflowed
    assert_hyperbolic_bound_digits(w, r)


def assert_hyperbolic_bound_digits(w, r):
    rho0, dw, dr = hyperbolic_inradius_reference(w, r)
    assert abs(triangle_inradius(w, r, HYPERBOLIC) / rho0 - 1) <= 1e-15
    got_w, got_r = triangle_inradius_partials(w, r, HYPERBOLIC)
    assert abs(got_w - dw) <= 1e-15
    assert abs(got_r - dr) <= 1e-15


@pytest.mark.parametrize("r", (10.0, 50.0, 100.0, 300.0, 350.0, 400.0, 700.0, 710.0))
def test_hyperbolic_triangle_area_at_large_radii(r):
    # against Gauss-Bonnet at 80 + r digits.  At w = 1 the log-space inradius
    # left 1.4e-14 at r = 400 and 2.3e-13 at r = 700, and at r = 710 the
    # segment took 2 vers r, past the float range: nan.  The segment's series
    # (w = 0.1, 0.5) summed powers of cs r and tan(phi / 2) that left the
    # float range: 8.6e-9 off at w = 0.5, r = 50, and nan from r = 300
    for w in (0.1, 0.5, 1.0):
        want = hyperbolic_triangle_area_reference(w, r)
        assert abs(triangle_area(w, r, HYPERBOLIC) / want - 1) <= 1e-15


def test_triangle_past_the_float_range_is_a_range_error():
    # sinh r overflows past r = 710.47: the inradius still has its value, but
    # no area is taken and no body built
    assert triangle_inradius(1.0, 720.0, HYPERBOLIC) == pytest.approx(0.40439781748494, rel=1e-12)
    for build, args in ((triangle_area, ()), (regular_disk_triangle, ()),
                        (regular_disk_hexagon, (0.45,))):
        with pytest.raises(SpindleError, match="r=720") as err:
            build(1.0, 720.0, *args, HYPERBOLIC)
        assert err.value.code == "BAD_RANGE"
    # at w = r = 1500 the vertices lie about 750 out, so sn a overflows too
    with pytest.raises(SpindleError, match="r=1500") as err:
        triangle_area(1500.0, 1500.0, HYPERBOLIC)
    assert err.value.code == "BAD_RANGE"


def test_partials_frozen_values():
    for (name, w, r), (dw_want, dr_want) in PARTIALS.items():
        dw, dr = triangle_inradius_partials(w, r, GEOMETRIES[name])
        assert dw == pytest.approx(dw_want, rel=1e-12)
        assert dr == pytest.approx(dr_want, rel=1e-12)


def test_partials_euclidean_closed_forms():
    # at w = 1, r = 2 the root is sqrt(45) and the partials collapse to
    # (1 - 1/sqrt(45))/2 and (1 - 7/sqrt(45))/2
    dw, dr = triangle_inradius_partials(1.0, 2.0, EUCLIDEAN)
    s = math.sqrt(45.0)
    assert dw == pytest.approx(0.5 * (1.0 - 1.0 / s), abs=1e-15)
    assert dr == pytest.approx(0.5 * (1.0 - 7.0 / s), abs=1e-15)


def test_partials_match_central_differences():
    h = 1e-6
    for g in ALL:
        for w, r in ((0.5, 0.9), (0.8, 1.2), (1.0, 1.4)):
            dw, dr = triangle_inradius_partials(w, r, g)
            fd_w = (triangle_inradius(w + h, r, g) - triangle_inradius(w - h, r, g)) / (2 * h)
            fd_r = (triangle_inradius(w, r + h, g) - triangle_inradius(w, r - h, g)) / (2 * h)
            assert dw == pytest.approx(fd_w, rel=1e-6)
            assert dr == pytest.approx(fd_r, rel=1e-6, abs=1e-12)


def test_partial_signs_across_grid():
    # wider bodies have larger cores; rounder hulls (smaller r) do too
    for g in ALL:
        for w in np.linspace(0.3, 1.0, 6):
            for r in np.linspace(1.05, 1.5, 6):
                dw, dr = triangle_inradius_partials(float(w), float(r), g)
                assert dw > 0.0
                assert dr < 0.0


def test_triangle_construction_invariants():
    for g in ALL:
        for w, r in ((0.6, 0.9), (0.8, 1.2), (1.0, 1.3)):
            tri = regular_disk_triangle(w, r, g)
            rho0 = tri.rho0
            assert rho0 == pytest.approx(triangle_inradius(w, r, g))
            p = tri.incenter
            verts = tri.region.vertices
            centers = tri.region.centers
            assert len(verts) == 3
            # vertices at distance w - rho0, arc centers at r - rho0, and
            # every arc passes through its two vertices at distance r
            for v in verts:
                assert distance(p, v, g) == pytest.approx(w - rho0, abs=1e-9)
            for c in centers:
                assert distance(p, c, g) == pytest.approx(r - rho0, abs=1e-9)
            for arc in tri.region.arcs:
                assert distance(arc.center, arc.start, g) == pytest.approx(r, abs=1e-9)
                assert distance(arc.center, arc.end, g) == pytest.approx(r, abs=1e-9)
            # the cosine-law identity tying the three lengths together
            assert side_from_cosine_law(w - rho0, r - rho0, TWO_THIRDS_PI, g) == (
                pytest.approx(r, abs=1e-10)
            )
            # each vertex sits across the body from an arc midpoint, one
            # width away
            for arc in tri.region.arcs:
                mid = arc.point_at(0.5 * arc.extent)
                far = max(distance(mid, v, g) for v in verts)
                assert far == pytest.approx(w, abs=1e-9)


def test_triangle_width_and_incircle():
    for g in ALL:
        for w, r in ((0.5, 1.45), (0.8, 1.2), (1.2, 1.5)):
            if g.kappa > 0 and r >= math.pi / 2:
                continue
            tri = regular_disk_triangle(w, r, g)
            assert thickness(tri.region).value == pytest.approx(w, abs=1e-9)
            inc = incircle(tri.region)
            assert inc.radius == pytest.approx(tri.rho0, abs=1e-9)
            assert distance(inc.center, tri.incenter, g) < 1e-9


def test_triangle_respects_center_and_angle():
    for g in ALL:
        c = from_polar(g, 0.7, 0.4)
        tri = regular_disk_triangle(0.8, 1.2, g, center=c, angle=0.9)
        assert distance(tri.incenter, c, g) < 1e-12
        angles = sorted(angle_coord(c, v, g) for v in tri.region.vertices)
        want = sorted((0.9 + k * TWO_THIRDS_PI) % (2.0 * math.pi) for k in range(3))
        for a, b in zip(angles, want):
            assert a == pytest.approx(b, abs=1e-9)
        # area does not depend on placement
        home = regular_disk_triangle(0.8, 1.2, g)
        assert area(tri.region) == pytest.approx(area(home.region), rel=1e-12)


def test_area_decreases_in_r():
    # slimmer arcs (larger r) cut the body down, at every width
    for g in ALL:
        for w in (0.5, 0.9):
            areas = [
                area(regular_disk_triangle(w, float(r), g).region)
                for r in np.linspace(max(w, 0.95), 1.5, 6)
            ]
            assert all(a > b for a, b in zip(areas, areas[1:]))


AREA_GRID = [
    (g, f * r, r)
    for g in ALL
    for r in ((0.1, 0.3, 0.7, 1.0, 1.4) + ((3.0,) if g.kappa <= 0 else (1.5,)))
    for f in (0.05, 0.3, 0.6, 1.0)
]


def test_triangle_area_matches_the_built_triangle():
    worst = max(
        abs(triangle_area(w, r, g) / area(regular_disk_triangle(w, r, g).region) - 1.0)
        for g, w, r in AREA_GRID
    )
    assert worst <= 4e-15


def test_triangle_area_euclidean_limits():
    # Reuleaux triangle at w = r; Pal's equilateral triangle w^2 / sqrt 3 as
    # r -> inf, at the tolerance of acceptance criterion 3
    for w in (0.25, 1.0, 3.0):
        reuleaux = (math.pi - math.sqrt(3.0)) * w * w / 2.0
        assert triangle_area(w, w, EUCLIDEAN) == pytest.approx(reuleaux, rel=1e-14)
    assert triangle_area(1.0, 1e6, EUCLIDEAN) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-4)


@pytest.mark.parametrize("g", [HYPERBOLIC, SPHERICAL], ids=lambda g: g.name)
def test_curved_reuleaux_area_closed_form(g):
    # at w = r the triangle is the Reuleaux triangle of its plane (Leichtweiss,
    # Abh. Math. Sem. Univ. Hamburg 75, 2005): three sectors of angle theta about
    # the vertices, minus twice the equilateral triangle of area kappa (3 theta - pi)
    # (Gauss-Bonnet), with cos theta = cs w / (1 + cs w) by the law of cosines
    for w in (0.7, 1.2, 1.5):
        theta = math.acos(g.cs(w) / (1.0 + g.cs(w)))
        reuleaux = 3.0 * theta * g.vers(w) - 2.0 * g.kappa * (3.0 * theta - math.pi)
        assert triangle_area(w, w, g) == pytest.approx(reuleaux, rel=4e-15)
        assert area(regular_disk_triangle(w, w, g).region) == pytest.approx(reuleaux, rel=4e-15)


@pytest.mark.parametrize("g", [HYPERBOLIC, SPHERICAL], ids=lambda g: g.name)
def test_triangle_area_matches_polar_integration(g):
    # 40-digit inradius by bisection and area by mpmath quadrature of the
    # polar exit distance; the residue is up to 9.1e-15, at w = 0.05 r (it
    # was 1.5e-14 while triangle_inradius lost digits there)
    for r in (0.3, 1.0, 1.4):
        for w in (0.05 * r, r):
            rho0 = triangle_inradius_reference(g.kappa, w, r)
            arcs = [(k * 2 * mp.pi / 3, mp.mpf(r) - rho0, mp.mpf(r)) for k in range(3)]
            ref = polar_area(g.kappa, disk_intersection_exit(g.kappa, arcs), [a[0] for a in arcs])
            assert abs(triangle_area(w, r, g) / ref - 1) <= 2e-14


def test_hexagon_at_rho0_is_the_triangle():
    # each anchor lies on the triangle arc between two apexes, so on the
    # circle through its hull neighbours up to rounding: it must drop out
    for g in ALL:
        for w, r in ((0.8, 1.2), (0.6, 0.6), (0.8, 0.8), (1.0, 1.0)):
            tri = regular_disk_triangle(w, r, g)
            hexa = regular_disk_hexagon(w, r, tri.rho0, g)
            assert area(hexa.region) == pytest.approx(area(tri.region), abs=1e-9)
            assert thickness(hexa.region).value == pytest.approx(w, abs=1e-7)


def test_hexagon_symmetric_case():
    # rho = w/2: apexes and anchors all sit on one circle of radius w/2
    for g in ALL:
        w, r = 0.8, 1.2
        hexa = regular_disk_hexagon(w, r, 0.5 * w, g)
        o = origin(g)
        for q in list(hexa.apexes) + list(hexa.anchors):
            assert distance(o, q, g) == pytest.approx(0.5 * w, abs=1e-12)
        assert len(hexa.region.vertices) == 6
        tri_area = area(regular_disk_triangle(w, r, g).region)
        assert tri_area < area(hexa.region) < disk_area(g, 0.5 * w)


def test_hexagon_structure_and_containment():
    for g in ALL:
        w, r, rho = 0.8, 1.2, 0.35
        hexa = regular_disk_hexagon(w, r, rho, g)
        assert len(hexa.apexes) == 3
        assert len(hexa.anchors) == 3
        o = origin(g)
        for q in hexa.apexes:
            assert distance(o, q, g) == pytest.approx(w - rho, abs=1e-12)
            assert hexa.region.contains(q, tol=1e-9)
        for q in hexa.anchors:
            assert distance(o, q, g) == pytest.approx(rho, abs=1e-12)
            assert hexa.region.contains(q, tol=1e-9)
        # anchors sit on the rays opposite the apexes
        for apex, anchor in zip(hexa.apexes, hexa.anchors):
            a = angle_coord(o, apex, g)
            b = angle_coord(o, anchor, g)
            assert (b - a) % (2.0 * math.pi) == pytest.approx(math.pi, abs=1e-9)


def test_hexagon_rho_range_errors():
    for g in ALL:
        rho0 = triangle_inradius(0.8, 1.2, g)
        with pytest.raises(SpindleError) as err:
            regular_disk_hexagon(0.8, 1.2, 0.5 * rho0, g)
        assert err.value.code == "BAD_RANGE"
        with pytest.raises(SpindleError):
            regular_disk_hexagon(0.8, 1.2, 0.8 - 0.5 * rho0, g)
        with pytest.raises(SpindleError):
            regular_disk_hexagon(0.0, 1.2, 0.2, g)
