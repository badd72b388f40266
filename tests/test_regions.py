"""Region construction: lenses, ball hulls, cap domains, serialization."""

import json
import math
import os

import numpy as np
import pytest

from oracles import (
    cap_wedges,
    contains_ray_angle,
    gift_wrap_reference,
    lens_width_reference,
    make_arc_reference,
    tangent_from_angle,
)
from spindle import geometry, measure, regions
from spindle.extremal import (
    regular_disk_hexagon,
    regular_disk_triangle,
    triangle_area,
    triangle_inradius,
)
from spindle.geometry import (
    ANGLE_EPS,
    EUCLIDEAN,
    GEOMETRIES,
    HYPERBOLIC,
    MERGE_EPS,
    SPHERICAL,
    Circle,
    Point,
    SpindleError,
    _negate,
    distance,
    embed,
    exp_map,
    from_polar,
    log_dir,
    midpoint,
    origin,
    rotate_tangent,
    turn_toward,
)
from spindle.measure import angle_in, area, disk_area, incircle, thickness
from spindle.regions import (
    CapDomain,
    DiskPolygon,
    ball_hull,
    cap_domain,
    load_region,
    make_arc,
    r_segment,
    save_region,
)

ALL = tuple(GEOMETRIES.values())
TWO_PI = 2.0 * math.pi


def random_point(g, rng, scale=1.0):
    return from_polar(g, rng.uniform(0.0, TWO_PI), scale * rng.uniform(0.0, 1.0))


def jittered_ring(g, n, r, rng, center=None):
    """n points about the circle of radius 0.49 r around center (default the
    origin), one per angular step, each moved by up to a quarter step and by
    2e-5 relative in radius: every point stays a hull vertex, and the arc
    centers are nearly cocircular (the ring sets of the hull benchmark)."""
    c = origin(g) if center is None else center
    step = TWO_PI / n
    theta = rng.uniform(0.0, TWO_PI) + step * (np.arange(n) + 0.25 * rng.uniform(-1.0, 1.0, n))
    rad = 0.49 * r * (1.0 + 2e-5 * rng.uniform(-1.0, 1.0, n))
    return [exp_map(c, tangent_from_angle(c, float(t % TWO_PI), g), float(s), g)
            for t, s in zip(theta, rad)]


# --------------------------------------------------------------------------
# lens

def test_r_segment_shape():
    for g in ALL:
        x = from_polar(g, 0.2, 0.4)
        y = from_polar(g, 2.9, 0.55)
        lens = r_segment(x, y, 1.0, g)
        assert len(lens.arcs) == 2
        assert lens.vertices in ((x, y), (y, x))
        for a in lens.arcs:
            assert a.radius == 1.0
            # every supporting circle passes through both endpoints
            assert distance(a.center, x, g) == pytest.approx(1.0, abs=1e-9)
            assert distance(a.center, y, g) == pytest.approx(1.0, abs=1e-9)
        assert lens.contains(midpoint(x, y, g))
        assert lens.contains(x) and lens.contains(y)
        # a point clearly past x on the line through y stays outside
        far = exp_map(y, log_dir(y, x, g), distance(x, y, g) + 0.3, g)
        assert not lens.contains(far, tol=1e-9)


def test_r_segment_tangent_pair_is_full_disk_slice():
    # points exactly 2r apart fit one radius-r disk, about their midpoint:
    # the lens is that full disk, with no vertices
    for g in ALL:
        r = 0.5
        x = from_polar(g, 1.0, 0.1)
        u = tangent_from_angle(x, 0.8, g)
        y = exp_map(x, u, 2.0 * r, g)
        lens = r_segment(x, y, r, g)
        assert lens.is_full_disk and lens.vertices == ()
        assert distance(lens.arcs[0].center, midpoint(x, y, g), g) < 1e-9


def test_r_segment_errors():
    g = EUCLIDEAN
    p = origin(g)
    with pytest.raises(SpindleError) as err:
        r_segment(p, p, 1.0, g)
    assert err.value.code == "DEGENERATE_POINT"
    with pytest.raises(SpindleError) as err:
        r_segment(p, embed(g, 3.0, 0.0), 1.0, g)
    assert err.value.code == "TOO_FAR"
    with pytest.raises(SpindleError) as err:
        r_segment(p, embed(g, 0.5, 0.0), -1.0, g)
    assert err.value.code == "BAD_RANGE"


def test_r_segment_and_ball_hull_near_tangency():
    # r_segment is ball_hull of its pair, so the two give one body at every
    # gap: a lens while r - d/2 is well past _ONE_DISK_EPS, and the full disk
    # about the midpoint once it is well inside
    for g in ALL:
        for r in (0.7, 1.0, 1.4):
            x = from_polar(g, 0.3, 0.2)
            u = tangent_from_angle(x, 1.1, g)
            for k in range(4, 16):
                y = exp_map(x, u, 2.0 * r * (1.0 - 10.0 ** -k), g)
                lens, hull = r_segment(x, y, r, g), ball_hull([x, y], r, g)
                assert lens.to_record() == hull.to_record(), (g.name, r, k)
                if k <= 10:
                    assert len(lens.arcs) == 2, (g.name, r, k)
                if k >= 12:
                    assert lens.is_full_disk, (g.name, r, k)


def test_near_tangent_pairs_build_a_lens_or_the_disk():
    # d = 2r (1 - 10^-k): each pair builds, to the full disk or to a lens
    # about two distinct centers, and while the lens is one (k <= 10) its
    # width is the mpmath lens width, not the 2r of the disk (off by up to
    # 1.1e-4 at k = 9 and 10 when a 1e-9 band took the disk)
    for g in ALL:
        for r in (0.7, 1.0, 1.4):
            for x, theta in ((from_polar(g, 0.3, 0.2), 1.1), (from_polar(g, 2.0, 0.9), 4.0)):
                u = tangent_from_angle(x, theta, g)
                for k in range(4, 17):
                    y = exp_map(x, u, 2.0 * r * (1.0 - 10.0 ** -k), g)
                    hull = ball_hull([x, y], r, g)
                    assert hull.is_full_disk or (
                        len(hull.arcs) == 2 and distance(*hull.centers, g) > MERGE_EPS
                    ), (g.name, r, k)
                    if k <= 10:
                        want = lens_width_reference(x, y, r, g)
                        assert abs(thickness(hull).value - want) <= 1e-9, (g.name, r, k)


# --------------------------------------------------------------------------
# ball hull

def test_ball_hull_contains_inputs():
    rng = np.random.default_rng(201)
    for g in ALL:
        for _ in range(60):
            n = int(rng.integers(2, 10))
            pts = [random_point(g, rng, scale=0.7) for _ in range(n)]
            try:
                hull = ball_hull(pts, 1.0, g)
            except SpindleError as e:
                assert e.code in ("DEGENERATE_POINT", "NOT_ENCLOSABLE")
                continue
            for p in pts:
                assert hull.contains(p, tol=1e-9)
            # boundary arcs all carry the hull radius
            assert all(a.radius == pytest.approx(1.0) for a in hull.arcs)


def test_ball_hull_supporting_disks_cover_everything():
    # each arc's disk is a supporting disk: it contains every input point
    rng = np.random.default_rng(202)
    for g in ALL:
        pts = [random_point(g, rng, scale=0.6) for _ in range(9)]
        hull = ball_hull(pts, 1.0, g)
        for a in hull.arcs:
            assert all(distance(a.center, p, g) <= 1.0 + 1e-9 for p in pts)


def test_ball_hull_vertices_are_input_points():
    rng = np.random.default_rng(203)
    for g in ALL:
        pts = [random_point(g, rng, scale=0.5) for _ in range(8)]
        hull = ball_hull(pts, 1.0, g)
        for v in hull.vertices:
            assert min(distance(v, p, g) for p in pts) < 1e-9


def test_ball_hull_idempotent():
    rng = np.random.default_rng(204)
    for g in ALL:
        pts = [random_point(g, rng, scale=0.6) for _ in range(10)]
        hull = ball_hull(pts, 1.0, g)
        again = ball_hull(list(hull.vertices), 1.0, g)
        assert len(again.arcs) == len(hull.arcs)
        va = sorted((round(v.x, 9), round(v.y, 9)) for v in hull.vertices)
        vb = sorted((round(v.x, 9), round(v.y, 9)) for v in again.vertices)
        assert va == vb


def test_ball_hull_order_independent():
    rng = np.random.default_rng(205)
    for g in ALL:
        pts = [random_point(g, rng, scale=0.6) for _ in range(7)]
        hull = ball_hull(pts, 1.0, g)
        for _ in range(5):
            perm = [pts[i] for i in rng.permutation(len(pts))]
            other = ball_hull(perm, 1.0, g)
            va = sorted((round(v.x, 9), round(v.y, 9)) for v in hull.vertices)
            vb = sorted((round(v.x, 9), round(v.y, 9)) for v in other.vertices)
            assert va == vb


def test_ball_hull_interior_points_dropped():
    g = EUCLIDEAN
    corners = [embed(g, x, y) for x, y in [(0, 0), (0.8, 0), (0.8, 0.6), (0, 0.6)]]
    inside = [embed(g, 0.4, 0.3), embed(g, 0.2, 0.2), embed(g, 0.6, 0.45)]
    hull = ball_hull(corners + inside, 1.0, g)
    assert len(hull.vertices) == 4
    for v in hull.vertices:
        assert min(distance(v, c, g) for c in corners) < 1e-9


def test_ball_hull_two_points_is_lens():
    for g in ALL:
        x = from_polar(g, 0.5, 0.3)
        y = from_polar(g, 3.5, 0.4)
        hull = ball_hull([x, y], 0.9, g)
        lens = r_segment(x, y, 0.9, g)
        assert len(hull.arcs) == 2
        ha = sorted(round(a.extent, 9) for a in hull.arcs)
        la = sorted(round(a.extent, 9) for a in lens.arcs)
        assert ha == la


def test_ball_hull_collinear_input():
    # three points on one geodesic hull to the lens of the extremes
    for g in ALL:
        p = from_polar(g, 0.7, 0.5)
        u = tangent_from_angle(p, 1.3, g)
        a = exp_map(p, u, 0.3, g)
        b = exp_map(p, u, 0.9, g)
        hull = ball_hull([p, a, b], 1.0, g)
        assert len(hull.vertices) == 2
        got = sorted(round(distance(p, v, g), 9) for v in hull.vertices)
        assert got == [0.0, pytest.approx(0.9, abs=1e-9)]


def test_ball_hull_cocircular_points_keep_everything():
    rng = np.random.default_rng(206)
    for g in ALL:
        # n points on a circle of radius well below r: all are vertices
        angles = np.sort(rng.uniform(0.0, TWO_PI, size=8))
        pts = [from_polar(g, float(t), 0.45) for t in angles]
        hull = ball_hull(pts, 1.0, g)
        assert len(hull.vertices) == 8


def test_ball_hull_jittered_rings_keep_every_point():
    rng = np.random.default_rng(207)
    for g in ALL:
        for n in (16, 27, 38, 48):
            pts = jittered_ring(g, n, 1.0, rng)
            hull = ball_hull(pts, 1.0, g)
            assert len(hull.vertices) == n
            for a in hull.arcs:
                assert all(distance(a.center, p, g) <= 1.0 + 1e-9 for p in pts)


def test_make_arc_matches_the_distance_reference():
    # make_arc tests its endpoints and takes its extent on chord2; the
    # reference takes three distances.  Over the arcs of ring hulls the extent
    # agrees within 1e-14, and an endpoint moved 1.5e-7 off its circle (either
    # way) is refused by both with the same code, one moved 0.5e-7 accepted
    # by both
    rng = np.random.default_rng(212)
    for g in ALL:
        for r, n in ((0.7, 16), (1.0, 29), (1.4, 48)):
            for a in ball_hull(jittered_ring(g, n, r, rng), r, g).arcs:
                got = make_arc(a.center, r, a.start, a.end, g)
                want = make_arc_reference(a.center, r, a.start, a.end, g)
                assert abs(got.extent - want.extent) <= 1e-14, (g, r, n)
                for off in (1.5e-7, -1.5e-7, 0.5e-7, -0.5e-7):
                    end = exp_map(a.center, log_dir(a.center, a.end, g), r + off, g)
                    start = exp_map(a.center, log_dir(a.center, a.start, g), r + off, g)
                    for ends in ((a.start, end), (start, a.end)):
                        codes = []
                        for build in (make_arc, make_arc_reference):
                            try:
                                build(a.center, r, *ends, g)
                                codes.append(None)
                            except SpindleError as e:
                                codes.append(e.code)
                        assert codes == (["MALFORMED_BOUNDARY"] * 2 if abs(off) > 1e-7 else [None, None])


def test_hull_and_width_build_few_directions(monkeypatch):
    # the r-scan builds one direction per arc (in its circle intersection),
    # and its arcs store none, test their endpoints and take their extents on
    # chord2, so ball_hull takes no distance of its own; the width screens all
    # piece pairs in one array pass: log_dir, distance and turn_toward run
    # O(h) times, not once per pair, and the width's log_dir two per chord
    # that shortens the best so far
    calls = {"log_dir": 0, "distance": 0, "turn_toward": 0}

    def counted(fn):
        def spy(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(geometry, "log_dir", counted(log_dir))
    monkeypatch.setattr(regions, "log_dir", counted(log_dir))
    monkeypatch.setattr(regions, "distance", counted(distance))
    monkeypatch.setattr(measure, "log_dir", counted(log_dir))
    monkeypatch.setattr(measure, "distance", counted(distance))
    monkeypatch.setattr(measure, "turn_toward", counted(turn_toward))
    rng = np.random.default_rng(208)
    for g in ALL:
        pts = jittered_ring(g, 48, 1.0, rng)
        calls.update(log_dir=0, distance=0)
        hull = ball_hull(pts, 1.0, g)
        h = len(hull.vertices)
        assert h == 48
        assert calls["log_dir"] <= h
        assert calls["distance"] == 0
        calls.update(log_dir=0, distance=0, turn_toward=0)
        thickness(hull)
        assert calls["log_dir"] <= h // 4  # the pieces' normals take none
        assert calls["distance"] <= 2 * h
        assert calls["turn_toward"] <= 2 * h


def test_ball_hull_intersects_circles_once_per_arc(monkeypatch):
    # the r-scan pops the stack's top b when the next point lies outside the
    # disk of the stored arc a -> b, so each chain point costs one circle
    # intersection: the one for the arc it appends; each intersection turns
    # one direction, the right point's being the left one's mirror
    calls, chains, turns = [], [], []
    real_intersection, real_chain = regions.circle_circle_intersection, regions._monotone_chain
    real_rotate = geometry.rotate_tangent

    def intersection(c1, c2, g):
        calls.append((c1.center, c2.center))
        return real_intersection(c1, c2, g)

    def chain(chart):
        chains.append(real_chain(chart))
        return chains[-1]

    def rotate(*args):
        turns.append(args)
        return real_rotate(*args)

    monkeypatch.setattr(regions, "circle_circle_intersection", intersection)
    monkeypatch.setattr(regions, "_monotone_chain", chain)
    monkeypatch.setattr(geometry, "rotate_tangent", rotate)
    rng = np.random.default_rng(210)
    popped = 0
    for g in ALL:
        for pts in ([random_point(g, rng, 0.45) for _ in range(30)], jittered_ring(g, 24, 1.0, rng)):
            calls.clear()
            chains.clear()
            turns.clear()
            hull = ball_hull(pts, 1.0, g)
            assert len(calls) == len(chains[0])
            assert len(turns) == len(calls)
            popped += len(chains[0]) - len(hull.vertices)
    assert popped > 0  # the pop branch ran


def test_hull_and_incircle_reach_the_counted_primitives(monkeypatch):
    # a hull op (ball_hull, thickness, incircle, area) must call every
    # geometry primitive the hull benchmark's traced run requires (bench/
    # layers.py EXPECTED["hull"]); a change that halves the calls is fine,
    # one that drops them to zero has to change that guard first
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    import layers

    counts = dict.fromkeys((f for f in layers.EXPECTED["hull"] if "." not in f), 0)
    assert {"log_dir", "circumcenter", "smallest_enclosing_disk"} <= set(counts)

    def counted(name, fn):
        def spy(*args):
            counts[name] += 1
            return fn(*args)
        return spy

    for module in (geometry, regions, measure):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rng = np.random.default_rng(211)
    for g in ALL:
        counts.update(dict.fromkeys(counts, 0))
        hull = ball_hull(jittered_ring(g, 16, 1.0, rng), 1.0, g)
        thickness(hull)
        incircle(hull)
        area(hull)
        assert all(counts.values()), (g, counts)


# the point farthest from the first one lies more than r from it, so it is
# no hull vertex: a wrap started there went round without closing
FAR_START = {
    EUCLIDEAN: [(0.185, -0.935), (-0.935, -0.733), (-0.195, -0.756), (0.341, 0.214)],
    HYPERBOLIC: [(0.272, -0.946), (-1.022, -0.004), (-0.052, 0.389), (0.218, -0.499),
                 (0.787, 0.708)],
    SPHERICAL: [(0.205, -0.712), (-0.76, -0.003), (-0.045, 0.339), (0.185, -0.423),
                (0.579, 0.52)],
}


def test_ball_hull_builds_when_no_vertex_is_farthest_from_the_first_point():
    for g, xy in FAR_START.items():
        pts = [embed(g, x, y) for x, y in xy]
        assert max(distance(pts[0], p, g) for p in pts) > 1.0
        hull = ball_hull(pts, 1.0, g)
        assert all(hull.contains(p, tol=1e-9) for p in pts)
        if g is EUCLIDEAN:
            assert len(hull.vertices) == 3
        assert_matches_gift_wrap(pts, 1.0, g)


def hull_or_code(build, pts, r, g):
    try:
        return build(pts, r, g)
    except SpindleError as e:
        return e.code


def assert_matches_gift_wrap(pts, r, g):
    """ball_hull gives the gift-wrap's vertex cycle up to rotation, with the
    same arc centers, or the same error code."""
    got = hull_or_code(ball_hull, pts, r, g)
    ref = hull_or_code(gift_wrap_reference, pts, r, g)
    if ref is None:  # two points, or a tight enclosing disk: no wrap
        assert isinstance(got, DiskPolygon)
        return
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
        return
    verts, centers = ref
    got_verts, got_centers = list(got.vertices), list(got.centers)
    assert verts[0] in got_verts
    s = got_verts.index(verts[0])
    assert got_verts[s:] + got_verts[:s] == verts
    assert got_centers[s:] + got_centers[:s] == centers


def test_ball_hull_matches_the_gift_wrap_reference():
    rng = np.random.default_rng(209)
    for g in ALL:
        for _ in range(150):  # uniform sets, some of them not enclosable
            n, spread = int(rng.integers(3, 43)), rng.uniform(0.3, 1.25)
            r = float(rng.choice((0.7, 1.0, 1.4)))
            pts = [Point(*row) for row in
                   measure.sample_in_disk(origin(g), spread * r, n, rng, g)]
            assert_matches_gift_wrap(pts, r, g)
        for _ in range(2):
            assert_matches_gift_wrap(jittered_ring(g, 48, 1.0, rng), 1.0, g)
        for k in range(3, 9):  # regular k-gons, each point twice and once nudged
            c = from_polar(g, rng.uniform(0.0, TWO_PI), 0.2)
            for share in (0.3, 0.65, 1.0):
                ring = [exp_map(c, tangent_from_angle(c, 0.4 + TWO_PI * i / k, g), share, g)
                        for i in range(k)]
                nudged = [exp_map(p, tangent_from_angle(p, 1.0, g), 0.1 * MERGE_EPS, g)
                          for p in ring]
                assert_matches_gift_wrap(ring + ring[::-1] + nudged, 1.0, g)
        for w, r in ((0.8, 1.2), (0.6, 0.6), (0.8, 0.8), (1.0, 1.0)):
            hexa = regular_disk_hexagon(w, r, triangle_inradius(w, r, g), g)
            assert_matches_gift_wrap(list(hexa.apexes) + list(hexa.anchors), r, g)


def test_ball_hull_near_circumradius_marks_degenerate():
    # enclosing radius within tolerance of r: the hull is that one disk
    g = EUCLIDEAN
    pts = [embed(g, math.cos(t), math.sin(t)) for t in (0.0, 2.1, 4.2)]
    hull = ball_hull(pts, 1.0 + 1e-13, g)
    assert hull.is_full_disk and hull.vertices == ()


def test_ball_hull_on_a_circle_of_radius_r_is_that_disk():
    # the smallest enclosing disk has radius r, so it is the only radius-r
    # disk holding the points: the hull is the whole disk, with no vertices
    r = 0.8
    for g in ALL:
        c = from_polar(g, 0.3, 0.2)
        for n in (2, 3, 5, 8):
            pts = [exp_map(c, tangent_from_angle(c, 0.4 + TWO_PI * k / n, g), r, g)
                   for k in range(n)]
            hull = ball_hull(pts, r, g)
            assert hull.is_full_disk and hull.vertices == ()
            assert all(hull.contains(p, tol=1e-7) for p in pts)
            w = thickness(hull)
            assert (w.value, w.kind) == (2.0 * r, "arc-arc")
            assert incircle(hull).radius == pytest.approx(r, abs=1e-15)
            assert area(hull) == pytest.approx(disk_area(g, r), abs=2e-15)


# the largest radii are where R rounds furthest from r (H 4.6e-12 at r = 5,
# S 7.8e-13 at r = 1.5707), which _ONE_DISK_EPS must still cover
RIM_RADII = {"euclidean": (0.7, 1.0, 1.4), "hyperbolic": (0.7, 1.4, 3.0, 5.0),
             "spherical": (0.7, 1.4, 1.55, 1.5707)}


def test_exact_rim_sets_are_the_full_disk():
    # n = 2..13 points exactly r from a center up to 1 from the origin, evenly
    # spaced: the hull is the full disk, of width 2r, inradius r and the
    # disk's area
    rng = np.random.default_rng(211)
    for g in ALL:
        for r in RIM_RADII[g.name]:
            for t in (0.0, 0.5, 1.0):
                c = from_polar(g, rng.uniform(0.0, TWO_PI), t)
                for n in range(2, 14):
                    phase = rng.uniform(0.0, TWO_PI)
                    pts = [exp_map(c, tangent_from_angle(c, (phase + TWO_PI * k / n) % TWO_PI, g),
                                   r, g) for k in range(n)]
                    hull = ball_hull(pts, r, g)
                    assert hull.is_full_disk, (g.name, r, t, n)
                    assert thickness(hull).value == 2.0 * r
                    assert incircle(hull).radius == r
                    assert area(hull) == disk_area(g, r)


def test_split_disk_records_measure_as_the_disk(tmp_path):
    # records that store the one-disk hull split at its rim points, n arcs
    # about one center (as ball_hull once saved it), load and measure as
    # the disk
    r = 0.8
    for g in ALL:
        c = from_polar(g, 0.3, 0.2)
        for n in (2, 3, 5, 8):
            verts = [exp_map(c, tangent_from_angle(c, 0.4 + TWO_PI * k / n, g), r, g)
                     for k in range(n)]
            path = tmp_path / f"split_{g.name}_{n}.json"
            path.write_text(json.dumps({"type": "disk_polygon", "geometry": g.name, "r": r,
                                        "centers": [list(c)] * n,
                                        "vertices": [list(v) for v in verts]}))
            poly = load_region(os.fspath(path))
            assert len(poly.vertices) == n
            assert abs(thickness(poly).value - 2.0 * r) <= 2e-15
            assert abs(incircle(poly).radius - r) <= 2e-15
            assert abs(area(poly) - disk_area(g, r)) <= 2e-15


def test_ball_hull_errors():
    g = EUCLIDEAN
    with pytest.raises(SpindleError) as err:
        ball_hull([], 1.0, g)
    assert err.value.code == "EMPTY"
    p = embed(g, 0.1, 0.2)
    with pytest.raises(SpindleError) as err:
        ball_hull([p, Point(p.x, p.y, 1.0)], 1.0, g)
    assert err.value.code == "DEGENERATE_POINT"
    with pytest.raises(SpindleError) as err:
        ball_hull([origin(g), embed(g, 3.0, 0.0), embed(g, 0.0, 3.0)], 1.0, g)
    assert err.value.code == "NOT_ENCLOSABLE"


def bad_point(kind, g):
    """A point ball_hull must refuse: a NaN or infinite coordinate, one off
    the surface by 1e-6 relative (on the hyperboloid also its lower sheet),
    or no three numbers (the string "101" would read as (1, 0, 1), on the plane)."""
    if kind == "not-three-numbers":
        return [[0.0, 0.0], [0.0, 0.0, 1.0, 5.0], "abc", None, [0.1, 0.0, "x"], "101"]
    p = from_polar(g, 0.7, 0.3)
    if kind == "nan":
        return [Point(p.x, math.nan, p.z)]
    if kind == "inf":
        return [Point(math.inf, p.y, p.z)]
    off = [Point(p.x, p.y, p.z + 1e-6) if g.kappa == 0 else Point(*(1.000001 * c for c in p))]
    return off + ([Point(-p.x, -p.y, -p.z)] if g.kappa < 0 else [])


BAD_POINT_KINDS = ("nan", "inf", "off-surface", "not-three-numbers")


@pytest.mark.parametrize("kind", BAD_POINT_KINDS)
@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_ball_hull_rejects_bad_points_by_index(g, kind):
    good = [from_polar(g, 0.5 * k, 0.2) for k in range(4)]
    for bad in bad_point(kind, g):
        with pytest.raises(SpindleError) as err:
            ball_hull(good[:2] + [bad] + good[2:], 1.0, g)
        assert err.value.code == "BAD_RANGE"
        assert "point 2 " in str(err.value)


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_r_segment_rejects_bad_points_by_index(g):
    good = from_polar(g, 0.5, 0.2)
    for kind in BAD_POINT_KINDS:
        for bad in bad_point(kind, g):
            for pair, index in (((bad, good), 0), ((good, bad), 1)):
                with pytest.raises(SpindleError) as err:
                    r_segment(*pair, 1.0, g)
                assert err.value.code == "BAD_RANGE"
                assert f"point {index} " in str(err.value)


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_cap_domain_rejects_a_bad_center_or_apex_by_index(g):
    o = origin(g)
    apexes = [exp_map(o, tangent_from_angle(o, th, g), 0.4, g) for th in (0.0, 2.3, 4.2)]
    for kind in BAD_POINT_KINDS:
        for bad in bad_point(kind, g):
            with pytest.raises(SpindleError) as err:
                cap_domain(Circle(bad, 0.3), apexes, 1.0, g)
            assert err.value.code == "BAD_RANGE"
            with pytest.raises(SpindleError) as err:
                cap_domain(Circle(o, 0.3), apexes[:1] + [bad] + apexes[1:], 1.0, g)
            assert err.value.code == "BAD_RANGE"
            assert "point 1 " in str(err.value)


def test_ball_hull_takes_numpy_rows_as_floats():
    rng = np.random.default_rng(13)
    for g in ALL:
        rows = measure.sample_in_disk(origin(g), 0.5, 9, rng, g)
        want = json.dumps(ball_hull(rows.tolist(), 1.0, g).to_record())
        for given in (list(rows), [Point(*row) for row in rows]):  # numpy float64 coordinates
            poly = ball_hull(given, 1.0, g)
            assert json.dumps(poly.to_record()) == want
            assert all(type(c) is float for p in poly.vertices + poly.centers for c in p)


def nudged_centers(monkeypatch, pick, shift):
    """Patch the r-scan's circle_circle_intersection so that the call for
    which pick(c1, c2) holds returns its left point moved by shift(point).
    The scan makes one call per ordered pair, for the arc it stores."""
    real = regions.circle_circle_intersection

    def fake(c1, c2, g):
        out = real(c1, c2, g)
        return (shift(out[0]),) + out[1:] if pick(c1.center, c2.center) else out

    monkeypatch.setattr(regions, "circle_circle_intersection", fake)


def away_from(q, t, g):
    """Move a point a distance t straight away from q."""
    return lambda c: exp_map(c, _negate(log_dir(c, q, g)), t, g)


def assert_uncovered(pts, r, g):
    with pytest.raises(SpindleError) as err:
        ball_hull(pts, r, g)
    assert str(err.value) == "MALFORMED_BOUNDARY: hull does not cover its input"


def test_ball_hull_cover_check_catches_an_uncovered_popped_point(monkeypatch):
    # 30, 90 and 150 degrees on a circle of radius r: the middle point sits
    # on the arc through the other two and is popped; the stored center of
    # that arc a -> b, which closes the cycle, so no pop test reads it, is
    # moved 1.5e-7 away from it, which keeps the arc's endpoints within
    # 0.75e-7 of their circle and leaves the popped point 1.5e-7 outside
    g, r = EUCLIDEAN, 1.0
    a, q, b = (embed(g, math.cos(t), math.sin(t))
               for t in (math.pi / 6, math.pi / 2, 5 * math.pi / 6))
    assert len(ball_hull([a, q, b], r, g).vertices) == 2
    nudged_centers(monkeypatch, lambda c1, c2: (c1, c2) == (a, b), away_from(q, 1.5e-7, g))
    assert_uncovered([a, q, b], r, g)


def test_ball_hull_cover_check_catches_a_vertex_outside_another_arc(monkeypatch):
    # b, 1e-9 outside the circle through a at 30 and v at 150 degrees, stays
    # a vertex; the scan runs v -> a -> b and closes with the arc b -> v,
    # which no pop test reads (each other stored arc is read against the
    # next point, so a center moved off it pops rather than stays); that
    # center moves 1.5e-7 away from a: b and v move by 0.75e-7 against
    # their circle, the vertex a by 1.5e-7
    g, r = EUCLIDEAN, 1.0
    a = embed(g, math.cos(math.pi / 6), math.sin(math.pi / 6))
    b = embed(g, 0.0, 1.0 + 1e-9)
    v = embed(g, math.cos(5 * math.pi / 6), math.sin(5 * math.pi / 6))
    assert len(ball_hull([a, b, v], r, g).vertices) == 3
    nudged_centers(monkeypatch, lambda c1, c2: (c1, c2) == (b, v), away_from(a, 1.5e-7, g))
    assert_uncovered([a, b, v], r, g)


def test_ball_hull_cover_check_tests_every_point_near_a_right_angle(monkeypatch):
    # on the sphere with r + 1e-7 >= pi/2 the grown disks need not be
    # convex, so every kept point is tested, the two inside ones too; at
    # r = 1.4 only the chain is
    g = SPHERICAL
    ring = [from_polar(g, t, 1.2) for t in (math.pi / 6, math.pi / 2, 5 * math.pi / 6)]
    pts = ring + [from_polar(g, 1.5, 1.0), from_polar(g, 1.7, 1.05)]
    tested = []
    real = regions._covered

    def spy(points, centers, bound, g):
        tested.append(len(points))
        return real(points, centers, bound, g)

    monkeypatch.setattr(regions, "_covered", spy)
    r = 0.5 * math.pi - 5e-8
    assert r + 1e-7 >= g.radius_limit
    ball_hull(pts, r, g)
    ball_hull(pts, 1.4, g)
    assert tested == [5, 3]
    # and the popped middle ring point, moved out of the stored disk, is found
    on_circle = [from_polar(g, t, r) for t in (math.pi / 6, math.pi / 2, 5 * math.pi / 6)]
    assert len(ball_hull(on_circle, r, g).vertices) == 2
    a, q, b = on_circle
    nudged_centers(monkeypatch, lambda c1, c2: (c1, c2) == (a, b), away_from(q, 1.5e-7, g))
    assert_uncovered(on_circle, r, g)


def test_arc_point_at_endpoints_and_midpoint():
    rng = np.random.default_rng(207)
    for g in ALL:
        pts = [random_point(g, rng, scale=0.6) for _ in range(6)]
        hull = ball_hull(pts, 1.0, g)
        for a in hull.arcs:
            assert distance(a.point_at(0.0), a.start, g) < 1e-12
            assert distance(a.point_at(a.extent), a.end, g) < 1e-9
            mid = a.point_at(0.5 * a.extent)
            assert distance(a.center, mid, g) == pytest.approx(a.radius, abs=1e-12)
            assert contains_ray_angle(a, mid)
            # a counterclockwise arc lies right of its chord
            assert geometry.det3(a.start, a.end, mid) < 0.0


def test_make_arc_refuses_the_parent_clockwise_window():
    # an end turned clockwise from the start by more than ANGLE_EPS and less
    # than pi - ANGLE_EPS is refused, by det3 on the chords from the center;
    # the window is the one turn_toward from log_dir(center, start) gave, on
    # small circles too, where det3 on the raw coordinates loses the sign
    rng = np.random.default_rng(315)
    turns = [sign * t for sign in (1.0, -1.0) for t in (
        0.5 * ANGLE_EPS, 2.0 * ANGLE_EPS, math.pi - 2.0 * ANGLE_EPS, math.pi - 0.5 * ANGLE_EPS)]
    decisions = 0
    for g in ALL:
        for r in (1e-4, 0.7, 1.4):
            for _ in range(3):
                c = from_polar(g, float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(0.0, 1.0)))
                u = tangent_from_angle(c, float(rng.uniform(0.0, TWO_PI)), g)
                start = exp_map(c, u, r, g)
                for t in turns:
                    end = exp_map(c, rotate_tangent(c, u, t, g), r, g)
                    turn = turn_toward(c, log_dir(c, start, g), end, g)
                    refused = -math.pi + ANGLE_EPS < turn < -ANGLE_EPS
                    assert refused == (-math.pi + ANGLE_EPS < t < -ANGLE_EPS)
                    try:
                        make_arc(c, r, start, end, g)
                        assert not refused, (g.name, r, t)
                    except SpindleError as e:
                        assert refused and e.code == "MALFORMED_BOUNDARY", (g.name, r, t)
                    decisions += 1
    assert decisions == 216
    # full-reach caps are two half circles, each from one end of a diameter
    # to the other, det3 about 0: built on small circles away from the origin
    for g in ALL:
        for r in (1e-4, 1e-5):
            for _ in range(20):
                p = from_polar(g, float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(0.0, 1.0)))
                rho = float(rng.uniform(0.2, 0.8)) * r
                q = exp_map(p, tangent_from_angle(p, float(rng.uniform(0.0, TWO_PI)), g), 2.0 * r - rho, g)
                halves = cap_domain(Circle(p, rho), [q], r, g).arcs[:2]
                assert [a.extent for a in halves] == pytest.approx([math.pi] * 2, abs=1e-3)


def test_angle_in_wraps_and_is_tolerant_at_both_ends():
    lo, width, tol = 6.0, 1.0, 1e-9  # the interval wraps past 2*pi
    inside = [6.0, 6.5, 0.0, 0.7, 7.0 - TWO_PI, 6.0 - 0.5 * tol, 7.0 - TWO_PI + 0.5 * tol]
    outside = [5.9, 0.8, 3.0, 6.0 - 2.0 * tol, 7.0 - TWO_PI + 2.0 * tol]
    assert all(angle_in(t, lo, width, tol) for t in inside)
    assert not any(angle_in(t, lo, width, tol) for t in outside)
    got = angle_in(np.array(inside + outside), lo, width, tol)
    assert got.tolist() == [True] * len(inside) + [False] * len(outside)


# --------------------------------------------------------------------------
# cap domains

def build_cap_domain(g, rho=0.3, r=1.0, dists=(0.35, 0.38, 0.42),
                     angles=(0.0, 2.268928027592628, 4.1887902047863905)):
    o = origin(g)
    apexes = [exp_map(o, tangent_from_angle(o, th, g), d, g)
              for th, d in zip(angles, dists)]
    return cap_domain(Circle(o, rho), apexes, r, g)


def test_cap_at_full_reach_covers_the_whole_footprint():
    # apex at distance 2r - rho: both arc centers coincide, the cap is the
    # disk B(c, r) about that center, its footprint is the full circle, and
    # its tangency points coincide, so its chord normal is 0: the whole lens
    for g in ALL:
        o = origin(g)
        dom = cap_domain(Circle(o, 0.3), [exp_map(o, tangent_from_angle(o, 0.5, g), 1.7, g)], 1.0, g)
        assert cap_wedges(dom)[0][5] == pytest.approx(TWO_PI)
        assert dom.caps[0][2] == (0.0, 0.0, 0.0)
        for theta, t in ((0.5, 1.0), (2.0, 0.4)):
            assert dom.contains(exp_map(o, tangent_from_angle(o, theta, g), t, g))


def test_cap_domain_structure():
    for g in ALL:
        dom = build_cap_domain(g)
        assert len(dom.apexes) == 3
        assert len(dom.caps) == 3
        # 2 cap arcs per apex + a disk arc between consecutive caps
        assert len(dom.arcs) == 9
        o = origin(g)
        for (cl, cr, n), apex in zip(dom.caps, dom.apexes):
            for c in (cl, cr):
                # tangent circles: touch the core disk internally, pass
                # through the apex
                assert distance(o, c, g) == pytest.approx(dom.r - dom.rho, abs=1e-9)
                assert distance(c, apex, g) == pytest.approx(dom.r, abs=1e-9)
            # n . x = det3(t_out, t_in, x) is positive on the apex side
            assert n[0] * apex.x + n[1] * apex.y + n[2] * apex.z > 0.0


def test_cap_domain_membership():
    rng = np.random.default_rng(208)
    for g in ALL:
        dom = build_cap_domain(g)
        o = origin(g)
        assert dom.contains(o)
        for apex in dom.apexes:
            assert dom.contains(apex)
            # just beyond an apex is outside
            beyond = exp_map(o, log_dir(o, apex, g), distance(o, apex, g) + 0.05, g)
            assert not dom.contains(beyond, tol=1e-9)
        # points of the core disk are all inside
        for _ in range(50):
            x = from_polar(g, rng.uniform(0, TWO_PI), rng.uniform(0, dom.rho))
            assert dom.contains(x)
        # boundary arcs lie on the boundary: on arc points, containment holds
        for a in dom.arcs:
            assert dom.contains(a.point_at(0.5 * a.extent), tol=1e-9)


def test_cap_domain_no_apexes_is_disk():
    for g in ALL:
        dom = cap_domain(Circle(origin(g), 0.4), [], 1.0, g)
        assert dom.apexes == ()
        assert len(dom.arcs) == 1
        assert dom.arcs[0].extent == pytest.approx(TWO_PI)


def test_cap_domain_errors():
    g = HYPERBOLIC
    o = origin(g)
    with pytest.raises(SpindleError) as err:
        cap_domain(Circle(o, 1.2), [], 1.0, g)
    assert err.value.code == "BAD_RANGE"
    with pytest.raises(SpindleError) as err:
        cap_domain(Circle(o, 0.3), [from_polar(g, 0.0, 0.2)], 1.0, g)
    assert err.value.code == "DEGENERATE"
    with pytest.raises(SpindleError) as err:
        cap_domain(Circle(o, 0.3), [from_polar(g, 0.0, 1.9)], 1.0, g)
    assert err.value.code == "APEX_TOO_FAR"
    near = [from_polar(g, 0.0, 0.8), from_polar(g, 0.1, 0.8)]
    with pytest.raises(SpindleError) as err:
        cap_domain(Circle(o, 0.3), near, 1.0, g)
    assert err.value.code == "CAP_OVERLAP"


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
@pytest.mark.parametrize("w, r", ((0.8, 1.2), (0.5, 0.5), (1.0, 1.0), (0.3, 1.4)))
def test_cap_domain_on_touching_footprints_is_the_triangle(g, w, r):
    # the paper's equality case: caps on the regular triangle's incircle at
    # its vertices have footprints that meet, so no disk arc lies between
    # them and the domain is the triangle itself
    tri = regular_disk_triangle(w, r, g)
    dom = cap_domain(Circle(tri.incenter, tri.rho0), tri.region.vertices, r, g)
    assert len(dom.arcs) == 6
    assert abs(area(dom) / triangle_area(w, r, g) - 1.0) <= 4e-15


@pytest.mark.parametrize("build", ("ball_hull", "r_segment", "cap_domain", "from_record"))
def test_builders_past_the_float_range_are_range_errors(build):
    # sinh r and cosh r leave the float range past r = 710.47 on the
    # hyperboloid; the builders refuse such r at entry, and so does a
    # stored hull with its r rewritten
    g = HYPERBOLIC
    pts = [from_polar(g, 1.2 * k, 0.3) for k in range(5)]
    calls = {
        "ball_hull": lambda: ball_hull(pts, 720.0, g),
        "r_segment": lambda: r_segment(pts[0], pts[1], 720.0, g),
        "cap_domain": lambda: cap_domain(Circle(origin(g), 0.3), [from_polar(g, 0.0, 0.5)],
                                         720.0, g),
        "from_record": lambda: DiskPolygon.from_record(
            dict(ball_hull(pts, 1.0, g).to_record(), r=720.0)),
    }
    with pytest.raises(SpindleError, match="r=720") as err:
        calls[build]()
    assert err.value.code == "BAD_RANGE"
    assert triangle_inradius(1.0, 720.0, g) > 0.0


# --------------------------------------------------------------------------
# serialization

def test_disk_polygon_round_trip(tmp_path):
    rng = np.random.default_rng(209)
    for g in ALL:
        pts = [random_point(g, rng, scale=0.6) for _ in range(6)]
        hull = ball_hull(pts, 1.0, g)
        path = os.fspath(tmp_path / f"hull_{g.name}.json")
        save_region(hull, path)
        back = load_region(path)
        assert isinstance(back, DiskPolygon)
        assert back.geometry is g
        assert back.r == hull.r
        assert len(back.arcs) == len(hull.arcs)
        for a, b in zip(hull.arcs, back.arcs):
            assert distance(a.start, b.start, g) < 1e-12
            assert a.extent == pytest.approx(b.extent, abs=1e-9)


def test_cap_domain_round_trip(tmp_path):
    for g in ALL:
        dom = build_cap_domain(g)
        path = os.fspath(tmp_path / f"dom_{g.name}.json")
        save_region(dom, path)
        back = load_region(path)
        assert isinstance(back, CapDomain)
        assert back.rho == pytest.approx(dom.rho)
        assert len(back.arcs) == len(dom.arcs)
        assert len(back.caps) == len(dom.caps)
        for (cl, cr, n), (cl2, cr2, n2) in zip(dom.caps, back.caps):
            assert distance(cl, cl2, g) < 1e-12 and distance(cr, cr2, g) < 1e-12
            assert n == pytest.approx(n2, abs=1e-12)


def square_hull_record():
    rec = ball_hull([embed(EUCLIDEAN, x, y) for x, y in ((0, 0), (0.5, 0), (0.5, 0.5), (0, 0.5))],
                    1.0, EUCLIDEAN).to_record()
    assert len(rec["vertices"]) == 4
    return rec


def reversed_record(rec):
    """The record with its vertex cycle reversed, each arc's center moved
    along with its arc: every arc then runs clockwise about its center."""
    n = len(rec["vertices"])
    return dict(rec, vertices=rec["vertices"][::-1],
                centers=[rec["centers"][(n - 2 - i) % n] for i in range(n)])


def test_load_region_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "mystery"}))
    with pytest.raises(SpindleError) as err:
        load_region(os.fspath(bad))
    assert err.value.code == "MALFORMED_BOUNDARY"
    bad.write_text(json.dumps({"type": "disk_polygon", "geometry": "euclidean", "r": 1.0}))
    with pytest.raises(SpindleError) as err:
        load_region(os.fspath(bad))
    assert err.value.code == "MALFORMED_BOUNDARY"
    bad.write_text(json.dumps(reversed_record(square_hull_record())))
    with pytest.raises(SpindleError, match="clockwise") as err:
        load_region(os.fspath(bad))
    assert err.value.code == "MALFORMED_BOUNDARY"
    bad.write_text(json.dumps({
        "type": "disk_polygon", "geometry": "euclidean", "r": 1.0,
        "centers": [[0.0, 0.0, 1.0]], "vertices": [[0.2, 0.0, 1.0], [0.0, 0.2, 1.0]],
    }))
    with pytest.raises(SpindleError):
        load_region(os.fspath(bad))


def test_a_repeated_vertex_is_a_zero_extent_arc():
    # a record that lists a vertex, and the center of the arc leaving it,
    # twice passes the on-circle test (the vertex lies on that arc's circle);
    # its first copy is then an arc from the vertex to itself, which
    # make_arc refuses: with no _ZERO_ARC slack it would load as extent 0
    for g in ALL:
        tri = regular_disk_triangle(0.8, 1.0, g).region
        rec = tri.to_record()
        rec["vertices"].insert(0, rec["vertices"][0])
        rec["centers"].insert(0, rec["centers"][0])
        with pytest.raises(SpindleError, match="zero-extent") as err:
            DiskPolygon.from_record(rec)
        assert err.value.code == "MALFORMED_BOUNDARY"
        arc = tri.arcs[0]
        with pytest.raises(SpindleError, match="zero-extent"):
            make_arc(arc.center, arc.radius, arc.start, arc.start, g)
