"""The SVG renderer's one chart, the stereographic projection from (0, 0, -1)."""

import math
import xml.etree.ElementTree as ET

import pytest

from spindle.extremal import regular_disk_triangle
from spindle.geometry import HYPERBOLIC, SPHERICAL, Point, SpindleError, from_polar
from spindle.measure import ThicknessWitness, incircle, thickness
from spindle.regions import DiskPolygon
from spindle.render import SVG_SIZE, _PAD, render_svg


def paths(svg):
    # (d, dasharray) of every path element, d as its list of (x, y)
    out = []
    for el in ET.fromstring(svg):
        if el.tag.endswith("path"):
            nums = [float(t) for t in el.get("d").replace("M", " ").replace("L", " ")
                    .replace("Z", " ").split()]
            out.append((list(zip(nums[::2], nums[1::2])), el.get("stroke-dasharray")))
    return out


def render_triangle(g, center=None):
    tri = regular_disk_triangle(0.8, 1.2, g, center=center)
    return render_svg([tri.region], incircles=[incircle(tri.region)],
                      witnesses=[thickness(tri.region)])


def incircle_spread(svg):
    # the incircle's polyline draws as a circle in a stereographic chart:
    # the spread of its points' distances from the center of the circle
    # through three of them, over that distance
    ring = next(pts for pts, dash in paths(svg) if dash == "4 3")
    (ax, ay), (bx, by), (qx, qy) = (ring[k * len(ring) // 3] for k in range(3))
    d = 2.0 * (ax * (by - qy) + bx * (qy - ay) + qx * (ay - by))
    a2, b2, q2 = ax * ax + ay * ay, bx * bx + by * by, qx * qx + qy * qy
    cx = (a2 * (by - qy) + b2 * (qy - ay) + q2 * (ay - by)) / d
    cy = (a2 * (qx - bx) + b2 * (ax - qx) + q2 * (bx - ax)) / d
    radii = [math.hypot(x - cx, y - cy) for x, y in ring]
    return (max(radii) - min(radii)) / max(radii)


def test_hyperbolic_triangle_renders():
    svg = render_triangle(HYPERBOLIC)
    assert "nan" not in svg and "inf" not in svg
    assert len(paths(svg)) == 3  # region, incircle, width chord
    assert incircle_spread(svg) < 1e-6


def test_spherical_triangle_below_the_equator_renders():
    # centred 2.0 from the north pole: the orthographic chart of the upper
    # hemisphere had no place for it (PROJECTION_DOMAIN)
    svg = render_triangle(SPHERICAL, center=from_polar(SPHERICAL, 0.3, 2.0))
    assert "nan" not in svg and "inf" not in svg
    assert len(paths(svg)) == 3
    assert incircle_spread(svg) < 1e-6


def test_south_pole_is_outside_the_chart():
    # the triangle's incenter, drawn as the incircle's center dot, is the pole
    with pytest.raises(SpindleError) as err:
        render_triangle(SPHERICAL, center=Point(0.0, 0.0, -1.0))
    assert err.value.code == "PROJECTION_DOMAIN"


def test_a_triangle_next_to_the_south_pole_renders():
    # its incenter, drawn as a dot, is 3e-5 from the pole, where 1 + z is
    # 4.5e-10: only the pole itself has no place in the chart
    svg = render_triangle(SPHERICAL, center=from_polar(SPHERICAL, 0.3, math.pi - 3e-5))
    assert "nan" not in svg and "inf" not in svg
    assert len(paths(svg)) == 3


def test_a_tiny_disk_fills_the_canvas():
    # a full disk 2e-10 across draws at the canvas's size, with no floor on the span
    disk = DiskPolygon.from_record({"type": "disk_polygon", "geometry": "euclidean", "r": 1e-10,
                                    "centers": [[0.3, 0.2, 1.0]], "vertices": []})
    (ring, _), = paths(render_svg([disk]))
    xs = [x for x, _ in ring]
    assert max(xs) - min(xs) == pytest.approx(SVG_SIZE / (1.0 + 2.0 * _PAD), rel=1e-3)


def test_a_witness_between_coincident_points_is_degenerate():
    tri = regular_disk_triangle(0.8, 1.2, HYPERBOLIC).region
    p = tri.vertices[0]
    with pytest.raises(SpindleError) as err:
        render_svg([tri], witnesses=[ThicknessWitness(0.0, "vertex-arc", p, p)])
    assert err.value.code == "DEGENERATE"
