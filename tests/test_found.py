"""Open defects as strict-xfail repros, one test per defect.

Each test states what the code should do and fails while the defect
stands: with the SpindleError it names, or, for a wrong result, on its
assertion.  The CHANGES.md line marked FOUND that describes the defect
names the test (tests/test_found_ledger.py checks this).  A change that
mends a defect makes its test pass, which strict=True turns into a
failure: the change then drops the mark, and its FOUND line becomes MENDED.
"""

import math

import numpy as np
import pytest

from oracles import tangent_from_angle
from spindle.geometry import (
    HYPERBOLIC, SPHERICAL, Circle, SpindleError, _distinct, circle_circle_intersection, circumcenter,
    distance, exp_map, from_polar, origin,
)
from spindle.measure import thickness
from spindle.regions import ball_hull
from test_regions import jittered_ring


@pytest.mark.xfail(strict=True, raises=SpindleError,
                   reason="FOUND: ball_hull of two hyperbolic points 2r(1 - 1e-4) apart at r = 5 "
                          "raises MALFORMED_BOUNDARY: arc endpoint off its circle")
def test_hyperbolic_pair_nearly_2r_apart_builds_its_lens():
    r = 5.0
    lens = ball_hull([origin(HYPERBOLIC), from_polar(HYPERBOLIC, 0.0, 2.0 * r * (1.0 - 1e-4))],
                     r, HYPERBOLIC)
    assert len(lens.arcs) == 2


@pytest.mark.xfail(strict=True, raises=SpindleError,
                   reason="FOUND: the width of a spherical lens at r = pi/2 - 1e-7 raises ANTIPODAL: "
                          "its arc centers lie about pi - 2e-7 apart")
def test_sphere_lens_just_under_a_right_angle_has_a_width():
    lens = ball_hull([from_polar(SPHERICAL, 0.0, 0.3), from_polar(SPHERICAL, 0.0, 0.4)],
                     0.5 * math.pi - 1e-7, SPHERICAL)
    # a lens is no wider than its two points are apart
    assert 0.0 < thickness(lens).value <= 0.1 + 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND: far out on the hyperboloid chord2 is rounding noise, so _distinct "
                          "merges points thousands of MERGE_EPS apart")
def test_far_hyperbolic_neighbours_stay_distinct():
    # 13.5 from the origin and 4.7e-6 apart, chord2 rounds to -2.5e-10
    pts = [from_polar(HYPERBOLIC, 0.3, 13.5), from_polar(HYPERBOLIC, 0.3, 13.5 + 4.7e-6)]
    assert _distinct(pts, HYPERBOLIC) == [0, 1]


@pytest.mark.xfail(strict=True, raises=SpindleError,
                   reason="FOUND: ball_hull of points exactly r = 6 around a hyperbolic center raises "
                          "MALFORMED_BOUNDARY: their enclosing radius rounds off r past _ONE_DISK_EPS")
def test_hyperbolic_rim_sets_at_r_6_build_one_disk():
    # n = 3..13 points on the circle of radius r about c, one in each
    # half of n equal steps, leave no gap of pi: B(c, r) is their smallest
    # enclosing disk and so their hull (4 of these 60 sets raise)
    g, r, two_pi = HYPERBOLIC, 6.0, 2.0 * math.pi
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 14))
        c = from_polar(g, float(rng.uniform(0.0, two_pi)), float(rng.uniform(0.0, 1.0)))
        turns = (two_pi * np.arange(n) + rng.uniform(0.0, math.pi, n)) / n + rng.uniform(0.0, two_pi)
        pts = [exp_map(c, tangent_from_angle(c, float(t % two_pi), g), r, g) for t in turns]
        hull = ball_hull(pts, r, g)
        assert len(hull.arcs) == 1 and not hull.vertices


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND: hyperbolic circle_circle_intersection taken from a center 6 out "
                          "puts its points 1e-7 off both circles (3.6e-12 from the origin)")
def test_hyperbolic_circles_about_a_far_center_meet_on_both():
    g, r = HYPERBOLIC, 6.0
    far, near = Circle(from_polar(g, 0.0, r), r), Circle(origin(g), r)
    points = circle_circle_intersection(far, near, g)
    assert len(points) == 2
    for x in points:
        assert abs(distance(far.center, x, g) - r) <= 1e-9
        assert abs(distance(near.center, x, g) - r) <= 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND: the spherical circumcenter of a 1e-7 triangle 1.55 from the pole "
                          "is equidistant from its points only to 5.4e-8 relative")
def test_sphere_circumcenter_off_the_pole_keeps_its_digits():
    # coordinates rounded to eps put a floor of about eps / 1e-7 = 2e-9 under
    # the spread of the three distances (the construction center reads 4.6e-10
    # here, circumcenter 4e-10 to 1.9e-9 at 0.3 to 1.2 from the pole)
    g, s = SPHERICAL, 1e-7
    c = from_polar(g, 0.4, 1.55)
    tri = [exp_map(c, tangent_from_angle(c, a, g), s, g) for a in (0.1, 2.2, 4.3)]
    reach = [distance(circumcenter(*tri, g), p, g) for p in tri]
    assert max(reach) - min(reach) <= 1e-8 * s


def test_hyperbolic_ring_8_out_has_a_width():
    # incircle and area measure this ring; 6 and 7 out its width reads
    # 0.97801535817 and 0.97801535825 (rounding there is ~eps Z^3, 7e-7 at 8).
    # Mended: only the winning pair builds its feet; a discarded pair's foot
    # failed exp_map's tangent check, which still holds for the winner
    g = HYPERBOLIC
    ring = ball_hull(jittered_ring(g, 48, 1.0, np.random.default_rng(48), center=from_polar(g, 0.3, 8.0)),
                     1.0, g)
    assert abs(thickness(ring).value - 0.97801535817) <= 1e-6
