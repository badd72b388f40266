"""Open defects as strict-xfail repros, one test per defect.

Each test states what the code should do and fails, with the SpindleError
it names, while the defect stands.  The CHANGES.md line marked FOUND that
describes the defect names the test.  A change that mends a defect makes
its test pass, which strict=True turns into a failure: the change then
drops the mark, and its FOUND line becomes MENDED.
"""

import math

import pytest

from spindle.geometry import HYPERBOLIC, SPHERICAL, SpindleError, from_polar, origin
from spindle.measure import thickness
from spindle.regions import ball_hull


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
