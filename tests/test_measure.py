"""Areas, widths and inradii.

Frozen decimals come from tests/oracles.py: areas from the polar exit-distance
integral, everything at 40 significant digits.
"""

import math
import tracemalloc
from itertools import combinations, product

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    angle_coord,
    area_monte_carlo_reference,
    avers,
    cap_domain_contains_reference,
    cap_wedges,
    double_normal_reference,
    euclidean_width_reference,
    incircle_grid_reference,
    pieces_reference,
    tangent_from_angle,
)
from spindle import measure
from spindle.extremal import regular_disk_hexagon, regular_disk_triangle
from spindle.geometry import (
    ANGLE_EPS,
    EUCLIDEAN,
    GEOM_EPS,
    GEOMETRIES,
    HYPERBOLIC,
    MERGE_EPS,
    SPHERICAL,
    Circle,
    Point,
    SpindleError,
    _negate,
    distance,
    exp_map,
    from_polar,
    log_dir,
    origin,
    rotate_tangent,
    signed_distance_to_geodesic,
    tangent_basis,
    tangent_dot,
    turn_angle,
    turn_toward,
)
from spindle.measure import (
    _chord_normals,
    _inside_cap_domain,
    _inside_disks,
    _partners,
    _pieces,
    area,
    area_monte_carlo,
    bounding_disk,
    disk_area,
    incircle,
    sample_in_disk,
    segment_area,
    thickness,
)
from spindle.regions import DiskPolygon, ball_hull, cap_domain, r_segment
from test_regions import jittered_ring

ALL = tuple(GEOMETRIES.values())
TWO_PI = 2.0 * math.pi

# triangle areas, (w, r) -> value per geometry; oracles.py
TRIANGLE_AREA = {
    ("euclidean", 0.8, 1.2): 0.4300584915115118459418,
    ("euclidean", 1.0, 1.0): 0.7047709230104579874504,
    ("hyperbolic", 0.8, 1.2): 0.4448468368010132203355,
    ("hyperbolic", 1.0, 1.0): 0.7265459209565928572033,
    ("spherical", 0.8, 1.2): 0.410323951258146726482,
    ("spherical", 1.0, 1.0): 0.6808169380813141081498,
}

# lens over endpoints at chart polar (0, 0.5) and (pi, 0.5), r = 1; oracles.py
LENS_AREA = {
    "euclidean": 0.1811721474121589776967,
    "hyperbolic": 0.2275645892672545128558,
    "spherical": 0.1234813615648995080145,
}

# hexagon areas; oracles.py
HEXAGON_AREA = {
    ("euclidean", 1.0, 2.0, 0.45): 0.6758497003110593100716,
    ("hyperbolic", 0.8, 1.2, 0.35): 0.4494841187324868946886,
    ("spherical", 0.8, 1.2, 0.35): 0.424867415468062029542,
}

# disk of radius 0.3 with three caps (r = 1) at the distances/angles below
CAP_DISTS = (0.35, 0.38, 0.42)
CAP_ANGLES = (0.0, 2.268928027592628, 4.1887902047863905)
CAP_AREA = {
    "euclidean": 0.3266449482762426953288,
    "hyperbolic": 0.3315162361111980792334,
    "spherical": 0.3216705162778641975855,
}

# circular segment, phi = 1e-3, rho = 0.2; oracles.py.  The curved closed
# forms cancel to ~7 good digits at this phi; segment_area sums a series
SEGMENT_TINY = {
    "euclidean": (3.333333166666670634921e-12, 1e-14),
    "hyperbolic": (3.44580111140782553037e-12, 1e-14),
    "spherical": (3.223561585647674994134e-12, 1e-14),
}


def lens_region(g, r=1.0, t=0.5):
    return r_segment(from_polar(g, 0.0, t), from_polar(g, math.pi, t), r, g)


def build_cap_domain(g, o=None):
    o = origin(g) if o is None else o
    apexes = [exp_map(o, tangent_from_angle(o, th, g), d, g)
              for th, d in zip(CAP_ANGLES, CAP_DISTS)]
    return cap_domain(Circle(o, 0.3), apexes, 1.0, g)


def random_polygon(g, rng, n=7, r=1.0, scale=0.6):
    pts = [from_polar(g, rng.uniform(0, TWO_PI), scale * rng.uniform(0.05, 1.0))
           for _ in range(n)]
    return ball_hull(pts, r, g)


# --------------------------------------------------------------------------
# areas

def test_triangle_areas_frozen():
    for (name, w, r), want in TRIANGLE_AREA.items():
        tri = regular_disk_triangle(w, r, GEOMETRIES[name])
        assert area(tri.region) == pytest.approx(want, rel=1e-12)


def test_euclidean_reuleaux_area_closed_form():
    # width-1 Reuleaux triangle: (pi - sqrt(3)) / 2
    tri = regular_disk_triangle(1.0, 1.0, EUCLIDEAN)
    assert area(tri.region) == pytest.approx(0.5 * (math.pi - math.sqrt(3.0)), abs=1e-12)


def test_lens_areas_frozen():
    for g in ALL:
        assert area(lens_region(g)) == pytest.approx(LENS_AREA[g.name], rel=1e-12)


def test_euclidean_lens_closed_form():
    # unit-separation lens of unit circles: pi/3 - sqrt(3)/2
    assert area(lens_region(EUCLIDEAN)) == pytest.approx(
        math.pi / 3.0 - math.sqrt(3.0) / 2.0, abs=1e-12
    )


def test_hexagon_areas_frozen():
    for (name, w, r, rho), want in HEXAGON_AREA.items():
        hexa = regular_disk_hexagon(w, r, rho, GEOMETRIES[name])
        assert area(hexa.region) == pytest.approx(want, rel=1e-12)


def test_cap_domain_areas_frozen():
    for g in ALL:
        assert area(build_cap_domain(g)) == pytest.approx(CAP_AREA[g.name], rel=1e-12)


def test_full_disk_area():
    # a full disk is one arc of extent 2 pi: the polygon on its one start has
    # area 0.0 and its segment is disk_area, so area returns disk_area's bits
    for g, r in product(ALL, (0.3, 0.4, 1.0, 1.4)):
        dom = cap_domain(Circle(from_polar(g, 0.9, 0.2), r), [], 1.5, g)
        assert area(dom) == disk_area(g, r)
        rec = {"type": "disk_polygon", "geometry": g.name, "r": r,
               "centers": [[0.0, 0.0, 1.0]], "vertices": []}
        disk = DiskPolygon.from_record(rec)
        assert area(disk) == disk_area(g, r)


def test_disk_area_small_radius_limits():
    # all three geometries agree with pi rho^2 to second order
    for g in ALL:
        assert disk_area(g, 1e-4) == pytest.approx(math.pi * 1e-8, rel=1e-7)
    assert disk_area(SPHERICAL, 0.5) < math.pi * 0.25 < disk_area(HYPERBOLIC, 0.5)


def segment_reference(phi, rho, kappa):
    # sector minus the isoceles triangle, via angle excess at 40 digits
    with mp.workdps(40):
        phi, rho = mp.mpf(phi), mp.mpf(rho)
        if kappa == 0:
            return float(0.5 * rho * rho * (phi - mp.sin(phi)))
        if kappa > 0:
            a = mp.acos(mp.cos(rho) ** 2 + mp.sin(rho) ** 2 * mp.cos(phi))
            cb = mp.cos(rho) * (1 - mp.cos(a)) / (mp.sin(a) * mp.sin(rho))
            tri = phi + 2 * mp.acos(cb) - mp.pi
            return float(phi * (1 - mp.cos(rho)) - tri)
        a = mp.acosh(mp.cosh(rho) ** 2 - mp.sinh(rho) ** 2 * mp.cos(phi))
        cb = (mp.cosh(a) - 1) * mp.cosh(rho) / (mp.sinh(a) * mp.sinh(rho))
        tri = mp.pi - (phi + 2 * mp.acos(cb))
        return float(phi * (mp.cosh(rho) - 1) - tri)


def test_segment_area_against_excess_reference():
    for g in ALL:
        for phi in (0.3, 1.2, 2.5):
            for rho in (0.2, 0.7):
                want = segment_reference(phi, rho, g.kappa)
                assert segment_area(phi, rho, g) == pytest.approx(want, rel=5e-12)


def test_segment_area_tiny_angle():
    for g in ALL:
        want, rel = SEGMENT_TINY[g.name]
        assert segment_area(1e-3, 0.2, g) == pytest.approx(want, rel=rel)


def test_segment_area_keeps_its_digits():
    # against 2 kappa (atan(c tan(phi/2)) - c phi/2) at 50 digits (as atan2,
    # which stays on its branch past pi), from phi = 1e-6 to the half disk
    # and from rho = 1e-3 to a hemisphere: the closed form in doubles cancels
    # at small phi or rho (to 1e-3 relative); and on both sides of pi, with
    # no half-disk shortcut
    def reference(phi, rho, kappa):
        with mp.workdps(50):
            phi, rho = mp.mpf(phi), mp.mpf(rho)
            if kappa == 0:
                return rho * rho * (phi - mp.sin(phi)) / 2
            c = mp.cos(rho) if kappa > 0 else mp.cosh(rho)
            return kappa * (2 * mp.atan2(c * mp.sin(phi / 2), mp.cos(phi / 2)) - phi * c)

    near_pi = [math.pi - 1e-8, math.pi - 5e-10, math.pi - 1e-12, math.pi,
               math.pi + 1e-12, math.pi + 5e-10]
    for g in ALL:
        for rho in (1e-3, 0.1, 0.3, 1.0, 1.2, 1.5 if g.kappa > 0 else 3.0):
            for phi in np.geomspace(1e-6, 3.1, 40).tolist() + near_pi:
                rel = segment_area(phi, rho, g) / reference(phi, rho, g.kappa) - 1
                assert abs(rel) <= 4e-15, (g.name, rho, phi)


def test_segment_area_degenerate_ends():
    for g in ALL:
        assert segment_area(0.0, 0.5, g) == 0.0
        assert segment_area(TWO_PI, 0.5, g) == pytest.approx(disk_area(g, 0.5))
        assert segment_area(math.pi, 0.5, g) == pytest.approx(0.5 * disk_area(g, 0.5))
        # minor + major complement to the full disk
        total = segment_area(1.1, 0.5, g) + segment_area(TWO_PI - 1.1, 0.5, g)
        assert total == pytest.approx(disk_area(g, 0.5), rel=1e-12)
    with pytest.raises(SpindleError):
        segment_area(-0.1, 0.5, EUCLIDEAN)


def test_area_additive_over_lens_split():
    # lens area equals two minor segments of the arcs' own extents
    for g in ALL:
        lens = lens_region(g)
        split = sum(segment_area(a.extent, a.radius, g) for a in lens.arcs)
        assert area(lens) == pytest.approx(split, rel=1e-10)


# --------------------------------------------------------------------------
# width

def test_lens_width_euclidean_closed_form():
    # distance between arc midpoints: 2 - sqrt(3) for the unit lens
    w = thickness(lens_region(EUCLIDEAN))
    assert w.value == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)
    assert w.kind == "arc-arc"
    assert distance(w.a, w.b, EUCLIDEAN) == pytest.approx(w.value, abs=1e-12)


def test_lens_width_curved_matches_arc_gap():
    # the double normal joins the two arc midpoints through the chart origin
    for g in ALL:
        lens = lens_region(g)
        w = thickness(lens)
        a0, a1 = lens.arcs
        gap = distance(
            a0.point_at(0.5 * a0.extent), a1.point_at(0.5 * a1.extent), g
        )
        assert w.value == pytest.approx(gap, abs=1e-9)


def test_reuleaux_triangle_has_constant_width():
    # every direction's support width equals w when r = w
    tri = regular_disk_triangle(1.0, 1.0, EUCLIDEAN)
    poly = tri.region
    assert thickness(poly).value == pytest.approx(1.0, abs=1e-9)
    for theta in np.linspace(0.0, math.pi, 60, endpoint=False):
        u = np.array([math.cos(theta), math.sin(theta)])
        lo, hi = math.inf, -math.inf
        for arc in poly.arcs:
            for s in np.linspace(0.0, arc.extent, 400):
                p = arc.point_at(float(s))
                t = u[0] * p.x + u[1] * p.y
                lo, hi = min(lo, t), max(hi, t)
        assert hi - lo == pytest.approx(1.0, abs=1e-5)


def test_thickness_matches_direction_sweep():
    rng = np.random.default_rng(301)
    for _ in range(8):
        poly = random_polygon(EUCLIDEAN, rng, n=int(rng.integers(3, 9)))
        want = euclidean_width_reference(poly)
        got = thickness(poly)
        assert got.value == pytest.approx(want, abs=2e-6)
        assert distance(got.a, got.b, EUCLIDEAN) == pytest.approx(got.value, abs=1e-9)


def test_thickness_witness_on_boundary():
    rng = np.random.default_rng(302)
    for g in ALL:
        for _ in range(10):
            poly = random_polygon(g, rng, n=int(rng.integers(3, 9)))
            w = thickness(poly)
            assert w.kind in ("arc-arc", "vertex-arc")
            for p in (w.a, w.b):
                assert poly.contains(p, tol=1e-7)
                # on the boundary: some supporting circle passes through p
                assert any(
                    abs(distance(c, p, g) - poly.r) < 1e-6 for c in poly.centers
                ) or any(min(distance(p, v, g) for v in poly.vertices) < 1e-9
                         for _ in (0,))


def width_reference_corpus(g, rng):
    """Random hulls, regular triangles (w = r too), hexagons, lenses (up to
    d = 2r), cocircular hulls (on a circle of radius r too) and 48-point
    jittered rings (hyperbolic ones also centered 2, 4 and 6 from the origin)."""
    for n in range(2, 13):
        yield random_polygon(g, rng, n=n)
    for r in (0.5, 1.0, 1.4):
        for w in (0.2 * r, 0.6 * r, r):
            tri = regular_disk_triangle(w, r, g)
            yield tri.region
            for t in (0.3, 0.5, 1.0):
                yield regular_disk_hexagon(w, r, tri.rho0 + t * (w - 2.0 * tri.rho0), g).region
        for f in (0.01, 0.5, 0.999, 1.0):
            yield lens_region(g, r, f * r)
    c = from_polar(g, 0.3, 0.2)
    for n in (3, 5, 8):
        for rad in (0.45, 0.8):
            pts = [exp_map(c, tangent_from_angle(c, 0.4 + TWO_PI * k / n, g), rad, g)
                   for k in range(n)]
            yield ball_hull(pts, 0.8, g)
    rings = np.random.default_rng(48)  # its own stream: the polygons above keep theirs
    yield ball_hull(jittered_ring(g, 48, 1.0, rings), 1.0, g)
    if g is HYPERBOLIC:
        for d in (2.0, 4.0, 6.0):
            yield ball_hull(jittered_ring(g, 48, 1.0, rings, center=from_polar(g, 0.3, d)), 1.0, g)


def test_thickness_matches_double_normal_reference():
    # the family-by-family enumeration finds the same shortest chord; where
    # its winner joins two vertices (Euclidean ties at w = r, which the
    # vertex-vertex chord won by an ulp), thickness reports the vertex-arc
    # or arc-arc chord of the same length, within 2 ulps
    def gap(p, q):
        return max(abs(x - y) for x, y in zip(p, q))

    rng = np.random.default_rng(304)
    ties = 0
    for g in ALL:
        for poly in width_reference_corpus(g, rng):
            got = thickness(poly)
            value, kind, a, b = double_normal_reference(poly)
            if kind == "vertex-vertex":
                assert got.kind in ("vertex-arc", "arc-arc")
                assert abs(got.value - value) <= 2.0 * math.ulp(value)
                ties += 1
            else:
                assert (got.value, got.kind) == (value, kind)
            assert min(max(gap(got.a, a), gap(got.b, b)),
                       max(gap(got.a, b), gap(got.b, a))) <= 1e-12
    assert ties == 2
    # they are the regular triangles at w = r, whose vertex-vertex chords
    # read one ulp below r (the hexagons at rho = w - rho0, the same
    # triangles turned by pi, walk their anchors along the apex directions
    # negated and tie no more)
    for r in (0.5, 1.0):
        assert thickness(regular_disk_triangle(r, r, EUCLIDEAN).region).value == r


def assert_walk_keeps_every_double_normal(poly):
    # every pair the scalar normal test accepts is a walk candidate, and the
    # walk names O(h) pairs, each once, vertex-arc before arc-arc
    g = poly.geometry
    pieces = _pieces(poly)
    h = len(poly.arcs)
    pairs = _partners(pieces, poly.centers_disk[0], g)
    assert pairs == sorted(set(pairs)) and len(pairs) <= 3 * h, (g.name, h)
    assert all(i < j and j >= h for i, j in pairs)
    kept = set(pairs)
    for i, j in combinations(range(len(pieces)), 2):
        if j < h:
            continue  # two vertices are never paired
        pf, pg = pieces[i], pieces[j]
        common = distance(pf[0], pg[0], g) <= MERGE_EPS
        if _chord_normals(pf, pg, common, g) is not None:
            assert (i, j) in kept, (g.name, h, i, j)


def test_width_walk_keeps_every_double_normal():
    # w = r triangles put normals exactly on cone edges (the walk's ANGLE_EPS
    # slack keeps them), lenses reach d = 2r, rings have 48 double normals
    rng = np.random.default_rng(304)
    for g in ALL:
        for poly in width_reference_corpus(g, rng):
            if not poly.is_full_disk:
                assert_walk_keeps_every_double_normal(poly)


def twin_ring(d, rng):
    """A hyperbolic ring d from the origin, every third point with a twin
    1e-3 to 1e-6 away along the ring (64 vertices)."""
    g = HYPERBOLIC
    c = from_polar(g, 0.3, d)
    pts = []
    for k, p in enumerate(jittered_ring(g, 48, 1.0, rng, center=c)):
        pts.append(p)
        if k % 3 == 0:
            along = rotate_tangent(p, log_dir(p, c, g), 0.5 * math.pi, g)
            pts.append(exp_map(p, along, 10.0 ** -(3 + k // 3 % 4), g))
    return ball_hull(pts, 1.0, g)


def test_width_walk_keeps_every_double_normal_far_out():
    # hyperbolic rings 6 and 8 from the origin with near twins: coordinates
    # near Z = 2500 at D = 8 round every line coordinate, and the twins' short
    # pieces turn by little
    rng = np.random.default_rng(312)
    for d in (6.0, 8.0):
        poly = twin_ring(d, rng)
        assert len(poly.arcs) == 64  # the twins are vertices too
        assert_walk_keeps_every_double_normal(poly)


def test_chord_normals_keep_chords_on_span_edges_far_out():
    # two arcs 6 and 8 from the origin, centers 1e-6 to 1e-3 apart, each span
    # ending exactly on the chord to the other center: turn_toward takes the
    # turn on the chord, so the scalar test keeps the pair
    g = HYPERBOLIC
    rng = np.random.default_rng(314)
    for d in (6.0, 8.0):
        for sep in (1e-6, 1e-5, 1e-4, 1e-3):
            for _ in range(8):
                cf = from_polar(g, float(rng.uniform(0.0, TWO_PI)), d)
                cg = exp_map(cf, tangent_from_angle(cf, float(rng.uniform(0.0, TWO_PI)), g), sep, g)
                uf, ug = (tangent_from_angle(c, float(rng.uniform(0.0, TWO_PI)), g) for c in (cf, cg))
                pf = (cf, 1.0, uf, turn_toward(cf, uf, cg, g) % TWO_PI)
                pg = (cg, 1.0, ug, turn_toward(cg, ug, cf, g) % TWO_PI)
                assert _chord_normals(pf, pg, False, g) is not None, (d, sep)


def test_thickness_matches_the_unit_direction_pieces(monkeypatch):
    # the vertex normals as tangent parts of v - c give the same witness,
    # bit for bit, as unit log_dir normals
    def bits(w):
        return w.value.hex(), w.kind, tuple(x.hex() for x in (*w.a, *w.b))

    rng = np.random.default_rng(304)
    for g in ALL:
        for poly in width_reference_corpus(g, rng):
            got = thickness(poly)
            with monkeypatch.context() as m:
                m.setattr(measure, "_pieces", pieces_reference)
                want = thickness(poly)
            assert bits(got) == bits(want), (g.name, len(poly.arcs))


def long_spherical_bodies(rng, count):
    """Spherical hulls longer than pi/2: two points d in (pi/2, 2r) apart on a
    great circle and up to 8 points within 0.1 of the arc between them, r
    from 1.0 to 1.56, anywhere on the sphere.  Seen from one end, the other
    end lies past pi/2, where the line coordinate would run backward."""
    g = SPHERICAL
    bodies = []
    for _ in range(count):
        r = float(rng.uniform(1.0, 1.56))
        d = float(rng.uniform(0.5 * math.pi, 2.0 * r))
        a = from_polar(g, float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(0.0, 1.5)))
        u = tangent_from_angle(a, float(rng.uniform(0.0, TWO_PI)), g)
        pts = [a, exp_map(a, u, d, g)]
        for _ in range(int(rng.integers(0, 9))):
            p = exp_map(a, u, float(rng.uniform(0.0, d)), g)
            pts.append(exp_map(p, tangent_from_angle(p, float(rng.uniform(0.0, TWO_PI)), g),
                               float(rng.uniform(0.0, 0.1)), g))
        bodies.append(ball_hull(pts, r, g))
    return bodies


def test_width_of_long_spherical_bodies():
    # the walk's base is the incircle center, within pi/2 of every piece's
    # center; based at vertex 0 or at the chart origin its line coordinate
    # turns back on most of these bodies (MALFORMED_BOUNDARY)
    for poly in long_spherical_bodies(np.random.default_rng(902), 60):
        got = thickness(poly)
        value, kind, _, _ = double_normal_reference(poly)
        assert (got.value, got.kind) == (value, kind), len(poly.arcs)
        assert_walk_keeps_every_double_normal(poly)


def moved(poly, e, theta):
    """The r-hull of poly's vertices carried by the isometry that takes its
    incircle center x to e and the frame tangent t1 at x to the tangent at
    angle theta at e: each vertex keeps its distance from the center and its
    turn from the frame tangent."""
    g = poly.geometry
    x = poly.centers_disk[0]
    t1 = tangent_basis(x, g)[0]
    s1 = tangent_from_angle(e, theta, g)
    return ball_hull([exp_map(e, rotate_tangent(e, s1, turn_toward(x, t1, v, g), g), distance(x, v, g), g)
                      for v in poly.vertices], poly.r, g)


def test_width_is_invariant_under_isometries():
    # spheres turned anywhere and onto the equator, hyperbolic bodies carried
    # up to 6 from the origin: the walk's base and frame move with the body.
    # Coordinates near Z = cosh t round the hull's arc centers by ~eps Z^3
    # (ROADMAP item 1): widths moved 6 out differ by up to 2.3e-9
    rng = np.random.default_rng(315)
    for g in (SPHERICAL, HYPERBOLIC):
        for poly in width_reference_corpus(g, np.random.default_rng(304)):
            if poly.is_full_disk:
                continue
            want = thickness(poly).value
            if g is SPHERICAL:
                reach = (math.acos(rng.uniform(-1.0, 1.0)), 0.5 * math.pi)
            else:
                reach = (rng.uniform(0.0, 6.0), 6.0)
            for t in reach:
                e = from_polar(g, rng.uniform(0.0, TWO_PI), t)
                got = thickness(moved(poly, e, rng.uniform(0.0, TWO_PI))).value
                tol = 1e-9 if g is SPHERICAL else max(1e-9, 4.0 * 2.0 ** -52 * math.cosh(t) ** 3)
                assert abs(got - want) <= tol, (g.name, len(poly.arcs), t)


def vertex_normal_errors(poly):
    """Per vertex piece (v, 0, n_in, span), with Z = max(1, |v.z|): the turn
    from n_in to -log_dir(v) toward the incoming arc's center, the turn from
    n_in turned by span to -log_dir(v) toward its own arc's center, n_in's
    distance from the tangent plane at v (form(n_in, v); its z when flat)
    and form(n_in, n_in) - 1, each over eps Z^3."""
    g = poly.geometry
    arcs = poly.arcs
    for k, (v, _, n, span) in enumerate(_pieces(poly)[:len(arcs)]):
        scale = 2.0 ** -52 * max(1.0, abs(v.z)) ** 3
        end = rotate_tangent(v, n, span, g)
        yield tuple(abs(e) / scale for e in (
            turn_angle(v, n, _negate(log_dir(v, arcs[k - 1].center, g)), g),
            turn_angle(v, end, _negate(log_dir(v, arcs[k].center, g)), g),
            n.z if g is EUCLIDEAN else tangent_dot(n, v, g),
            tangent_dot(n, n, g) - 1.0,
        ))


def test_vertex_normals_point_away_from_their_arc_centers():
    # measured to 1.7, 1.4 and 19 eps Z^3 (rings at D = 6 have Z ~ 330)
    rng = np.random.default_rng(304)
    for g in ALL:
        for poly in width_reference_corpus(g, rng):
            if poly.is_full_disk:
                continue
            for turn_in, turn_end, off, length in vertex_normal_errors(poly):
                assert max(turn_in, turn_end, off) <= 4.0, (g.name, len(poly.arcs))
                assert length <= 64.0, (g.name, len(poly.arcs))


def test_vertex_normals_of_vertices_off_their_circles():
    # a record's vertices may sit up to 1e-7 off their circles (make_arc):
    # the normal keeps the direction of -log_dir there, only its length moves
    rng = np.random.default_rng(313)
    for g in ALL:
        rec = random_polygon(g, rng, n=7).to_record()
        moved = []
        for k, xyz in enumerate(rec["vertices"]):
            v = Point(*xyz)
            moved.append(list(exp_map(v, tangent_from_angle(v, 1.0 + 2.0 * k, g), 1e-8, g)))
        poly = DiskPolygon.from_record({**rec, "vertices": moved})
        off = [abs(distance(a.center, p, g) - poly.r) for a in poly.arcs for p in (a.start, a.end)]
        assert max(off) >= 5e-9
        errors = list(vertex_normal_errors(poly))
        assert max(max(e[:3]) for e in errors) <= 4.0, g.name
        assert max(e[3] for e in errors) >= 1e6, g.name  # unit length only on the circle


def test_thickness_ignores_where_the_arc_cycle_starts():
    rng = np.random.default_rng(305)
    for g in ALL:
        for _ in range(8):
            poly = random_polygon(g, rng, n=int(rng.integers(3, 13)))
            want = thickness(poly).value
            n = len(poly.arcs)
            for k in range(1, n):
                turned = DiskPolygon(g, poly.r, poly.arcs[k:] + poly.arcs[:k])
                assert thickness(turned).value == pytest.approx(want, abs=1e-12)


def test_full_disk_thickness():
    for g in ALL:
        rec = {"type": "disk_polygon", "geometry": g.name, "r": 0.6,
               "centers": [[0.0, 0.0, 1.0]], "vertices": []}
        disk = DiskPolygon.from_record(rec)
        assert thickness(disk).value == pytest.approx(1.2, abs=1e-12)


# --------------------------------------------------------------------------
# inradius

def test_triangle_incircle_is_rho0():
    for (name, w, r), _ in TRIANGLE_AREA.items():
        g = GEOMETRIES[name]
        tri = regular_disk_triangle(w, r, g)
        inc = incircle(tri.region)
        assert inc.radius == pytest.approx(tri.rho0, abs=1e-12)
        assert distance(inc.center, tri.incenter, g) < 1e-9
        assert len(inc.contacts) == 3


def test_incircle_contacts_touch_boundary():
    rng = np.random.default_rng(303)
    for g in ALL:
        for _ in range(10):
            poly = random_polygon(g, rng, n=int(rng.integers(3, 9)))
            inc = incircle(poly)
            assert poly.contains(inc.center)
            assert len(inc.contact_arcs) == len(set(inc.contact_arcs)) == len(inc.contacts)
            for q, i in zip(inc.contacts, inc.contact_arcs):
                assert distance(inc.center, q, g) == pytest.approx(inc.radius, abs=1e-9)
                assert poly.contains(q, tol=1e-9)
                # the contact lies on the circle of the arc it is recorded on
                assert distance(poly.arcs[i].center, q, g) == pytest.approx(poly.r, abs=1e-9)
                assert distance(poly.arcs[i].center, inc.center, g) == pytest.approx(
                    poly.r - inc.radius, abs=1e-9
                )


def test_incircle_is_locally_maximal():
    rng = np.random.default_rng(304)
    for g in ALL:
        poly = random_polygon(g, rng, n=6)
        inc = incircle(poly)
        clearance = min(poly.r - distance(c, inc.center, g) for c in poly.centers)
        assert clearance == pytest.approx(inc.radius, abs=1e-9)
        for theta in np.linspace(0.0, TWO_PI, 12, endpoint=False):
            moved = exp_map(inc.center, tangent_from_angle(inc.center, float(theta), g), 1e-4, g)
            moved_clearance = min(poly.r - distance(c, moved, g) for c in poly.centers)
            assert moved_clearance <= inc.radius + 1e-8


def test_incircle_matches_grid_search():
    rng = np.random.default_rng(305)
    for g in ALL:
        for _ in range(3):
            poly = random_polygon(g, rng, n=int(rng.integers(4, 8)))
            inc = incircle(poly)
            best, _ = incircle_grid_reference(poly)
            assert inc.radius == pytest.approx(best, abs=1e-6)


def test_lens_incircle():
    for g in ALL:
        lens = lens_region(g)
        inc = incircle(lens)
        # the inscribed disk touches both arcs; centers are equidistant
        assert len(inc.contact_arcs) == 2
        assert inc.radius < 0.5 * thickness(lens).value + 1e-9


# --------------------------------------------------------------------------
# the small-scale limit

def test_curved_measures_approach_the_euclidean_ones_like_s_squared():
    # a Euclidean set (r = 1) scaled by s and lifted into H and S with r = s:
    # width / s, inradius / s and area / s^2 differ from the Euclidean values
    # by K s^2 + O(s^4), with K per set and measure read off the s = 0.1 row;
    # digits lost to rounding (as when circumcenter took z differences near
    # z = 1) show up as an error that grows as s shrinks
    rng = np.random.default_rng(5)
    for i in range(12):
        polar = [(rng.uniform(0.0, TWO_PI), 0.45 * math.sqrt(rng.uniform(0.01, 1.0)))
                 for _ in range(3 + i % 9)]

        def measures(g, s):
            poly = ball_hull([from_polar(g, th, s * t) for th, t in polar], s, g)
            return thickness(poly).value / s, incircle(poly).radius / s, area(poly) / (s * s)

        flat = measures(EUCLIDEAN, 1.0)
        for g in (HYPERBOLIC, SPHERICAL):
            k = [abs(m / e - 1.0) / 0.01 for m, e in zip(measures(g, 0.1), flat)]
            for s in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                for name, m, e, kk in zip(("width", "inradius", "area"), measures(g, s), flat, k):
                    assert abs(m / e - 1.0) <= 2.0 * kk * s * s + 1e-13, (i, g.name, s, name)


# --------------------------------------------------------------------------
# Monte Carlo

def test_monte_carlo_agrees_with_closed_form():
    rng = np.random.default_rng(306)
    for g in ALL:
        for region in (
            lens_region(g),
            regular_disk_triangle(0.8, 1.2, g).region,
            build_cap_domain(g),
        ):
            want = area(region)
            est, se = area_monte_carlo(region, 100_000, rng)
            assert se > 0.0
            assert abs(est - want) <= 3.0 * se


def test_samples_lie_on_the_surface_and_in_the_disk():
    # R = 1e-6: an arccos/arccosh inverse CDF rounds 1 - cos R and puts
    # samples up to 4.4e-5 R outside the disk
    rng = np.random.default_rng(307)
    for g in ALL:
        o = from_polar(g, 0.7, 0.4)
        for big_r in (1e-6, 0.3, 1.2):
            pts = sample_in_disk(o, big_r, 2000, rng, g)
            assert pts.shape == (2000, 3)
            if g is EUCLIDEAN:
                assert np.all(pts[:, 2] == 1.0)
            else:
                form = pts[:, 0] ** 2 + pts[:, 1] ** 2 + g.kappa * pts[:, 2] ** 2
                assert np.all(np.abs(form - g.kappa) <= 1e-12)
            far = max(distance(o, Point(*row), g) for row in pts)
            assert far <= big_r * (1.0 + 1e-9)


def test_samples_are_area_uniform():
    # the share within s of the center is vers s / vers R, the area ratio
    rng = np.random.default_rng(308)
    n = 4000
    for g in ALL:
        o = from_polar(g, 2.0, 0.5)
        big_r = 1.2
        d = np.array([distance(o, Point(*row), g) for row in sample_in_disk(o, big_r, n, rng, g)])
        for s in (0.25 * big_r, 0.5 * big_r, 0.75 * big_r):
            share = g.vers(s) / g.vers(big_r)
            se = math.sqrt(share * (1.0 - share) / n)
            assert abs(np.mean(d <= s) - share) <= 4.0 * se


class ChosenDraws:
    """A stand-in generator whose uniform draws are given in advance."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def uniform(self, lo, hi, count):
        out = np.asarray(self.draws.pop(0), dtype=float)
        assert len(out) == count
        return out


def test_sample_directions_at_the_half_angle_poles():
    # t = tan(theta / 2) runs to 1.6e16 next to theta = pi: the half-angle
    # direction must stay finite, unit and at angle theta there too
    thetas = [0.0, 0.5 * math.pi, math.pi, np.nextafter(math.pi, 0.0),
              np.nextafter(math.pi, 4.0), 1.5 * math.pi, np.nextafter(TWO_PI, 0.0)]
    for g in ALL:
        o = from_polar(g, 0.7, 0.4)
        big_r, u = 0.3, 0.6
        pts = sample_in_disk(o, big_r, len(thetas), ChosenDraws(thetas, [u] * len(thetas)), g)
        assert np.isfinite(pts).all()
        form = pts[:, 0] ** 2 + pts[:, 1] ** 2 + g.kappa * pts[:, 2] ** 2
        if g is EUCLIDEAN:
            assert np.all(pts[:, 2] == 1.0)
        else:
            assert np.all(np.abs(form - g.kappa) <= 1e-12)
        s = avers(g, u * g.vers(big_r))
        for theta, row in zip(thetas, pts):
            x = Point(*row)
            assert abs(distance(o, x, g) / s - 1.0) <= 1e-14
            turn = (angle_coord(o, x, g) - theta) % TWO_PI
            assert min(turn, TWO_PI - turn) <= 1e-14, (g.name, theta)


def test_monte_carlo_blocks_change_nothing(monkeypatch):
    # samples and estimates are bit-identical whatever the rows per pass,
    # with counts that end a block early, on it and one row past it
    for g in ALL:
        o = from_polar(g, 0.7, 0.4)
        regions = (lens_region(g), build_cap_domain(g))
        for block in (7, 1000):
            for count in (1, block - 1, block, block + 1):
                want_pts = sample_in_disk(o, 0.8, count, np.random.default_rng(count), g)
                want = [area_monte_carlo(x, count, np.random.default_rng(count)) for x in regions]
                with monkeypatch.context() as m:
                    m.setattr(measure, "_BLOCK", block)
                    pts = sample_in_disk(o, 0.8, count, np.random.default_rng(count), g)
                    got = [area_monte_carlo(x, count, np.random.default_rng(count)) for x in regions]
                assert np.array_equal(pts, want_pts)
                assert got == want


def test_monte_carlo_streams_the_one_pass_draws(monkeypatch):
    # over four blocks of 7 too: the bits of one pass over the full sample
    # array, and rng left where 2 samples uniform draws leave a fresh one,
    # as callers that reuse one rng across regions need
    monkeypatch.setattr(measure, "_BLOCK", 7)
    for g in ALL:
        for region in (lens_region(g), build_cap_domain(g)):
            for count in (1, 6, 7, 8, 22):
                want = area_monte_carlo_reference(region, count, np.random.default_rng(count))
                rng, fresh = np.random.default_rng(count), np.random.default_rng(count)
                assert area_monte_carlo(region, count, rng) == want, (g.name, count)
                fresh.uniform(size=2 * count)
                assert rng.bit_generator.state == fresh.bit_generator.state


def test_monte_carlo_holds_one_block_of_samples():
    # 1e6 samples hold every theta (8 MB) and one block of points: a traced
    # peak of 14.1 MiB; the full (n, 3) sample array takes it to 44.2 MiB
    for g in ALL:
        region = regular_disk_triangle(0.8, 1.0, g).region
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            area_monte_carlo(region, 1_000_000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20, (g.name, peak)


@pytest.mark.parametrize("samples", (2.5, 1e3, True, 0, -5, "100"))
def test_monte_carlo_refuses_a_bad_sample_count(samples):
    with pytest.raises(SpindleError, match="samples") as err:
        area_monte_carlo(lens_region(EUCLIDEAN), samples, np.random.default_rng(0))
    assert err.value.code == "BAD_RANGE"


# the planes that sample a radius the others refuse: the sphere's disks stop
# short of pi, and past R = 355.58 in H (1.3e154 flat) v (2 - kappa v) overflows
SAMPLED_IN = {4.0: (EUCLIDEAN, HYPERBOLIC), 6.0: (EUCLIDEAN, HYPERBOLIC),
              math.pi: (EUCLIDEAN, HYPERBOLIC), 355.5: (EUCLIDEAN, HYPERBOLIC),
              356.0: (EUCLIDEAN,), 700.0: (EUCLIDEAN,)}


@pytest.mark.parametrize("count, big_r, named", (
    (-1, 0.5, "count"), (2.0, 0.5, "count"), (False, 0.5, "count"),
    (10, -0.5, "radius"), (10, math.nan, "radius"), (10, math.inf, "radius"),
    (10, 4.0, "radius"), (10, 6.0, "radius"), (10, math.pi, "radius"),
    (10, 355.5, "radius"), (10, 356.0, "radius"), (10, 700.0, "radius"),
    (10, 1e200, "radius")))
def test_disk_sampler_refuses_a_bad_count_or_radius(count, big_r, named):
    # a coded error naming the argument, not numpy's, nor B(o, 0.5) for -0.5,
    # nor samples in a smaller disk (sphere, R = 4) or nan rows (H, R = 356)
    for g in ALL:
        if g in SAMPLED_IN.get(big_r, ()):
            assert np.isfinite(sample_in_disk(origin(g), big_r, count, np.random.default_rng(0), g)).all()
            continue
        with pytest.raises(SpindleError, match=named) as err:
            sample_in_disk(origin(g), big_r, count, np.random.default_rng(0), g)
        assert err.value.code == "BAD_RANGE"


def test_monte_carlo_takes_numpy_counts_and_empty_samples():
    for g in ALL:
        region = lens_region(g)
        got = area_monte_carlo(region, np.int64(500), np.random.default_rng(1))
        assert got == area_monte_carlo(region, 500, np.random.default_rng(1))
        assert sample_in_disk(origin(g), 0.5, 0, np.random.default_rng(0), g).shape == (0, 3)
        assert sample_in_disk(origin(g), 0.0, 2, np.random.default_rng(0), g).tolist() == [
            [0.0, 0.0, 1.0]] * 2


def disk_polygon_margin(poly, x):
    g = poly.geometry
    return abs(max(distance(c, x, g) for c in poly.centers) - poly.r - GEOM_EPS)


def cap_domain_margin(dom, x):
    # distance of x from every decision boundary of CapDomain.contains and
    # of the wedge reference: the disk's rim, and per cap its wedge edges,
    # lens circles and chord (the geodesic through its tangency points)
    g = dom.geometry
    gaps = [abs(distance(dom.center, x, g) - dom.rho - GEOM_EPS)]
    theta = angle_coord(dom.center, x, g)
    for cl, cr, t_in, t_out, lo, width in cap_wedges(dom):
        a = (theta - lo) % TWO_PI
        gaps += [abs(a - width - ANGLE_EPS), abs(a - TWO_PI + ANGLE_EPS)]
        gaps += [abs(distance(c, x, g) - dom.r - GEOM_EPS) for c in (cl, cr)]
        if t_in != t_out:
            gaps.append(abs(signed_distance_to_geodesic(x, t_out, log_dir(t_out, t_in, g), g)))
    return min(gaps)


def test_batch_membership_matches_scalar_contains():
    rng = np.random.default_rng(309)
    for g in ALL:
        off = from_polar(g, 1.0, 0.4)
        cases = [
            (lens_region(g), _inside_disks, disk_polygon_margin),
            (random_polygon(g, rng, n=12), _inside_disks, disk_polygon_margin),
            (build_cap_domain(g), _inside_cap_domain, cap_domain_margin),
            (build_cap_domain(g, off), _inside_cap_domain, cap_domain_margin),
        ]
        for region, batch, margin in cases:
            o, big_r = bounding_disk(region)
            pts = sample_in_disk(o, 1.1 * big_r, 3000, rng, g)
            if batch is _inside_disks:
                got = batch(pts, region.centers, region.r, g)
            else:
                got = batch(pts, region, g)
            checked = inside = 0
            for row, hit in zip(pts, got):
                x = Point(*row)
                if margin(region, x) <= 1e-9:
                    continue
                want = region.contains(x)
                assert hit == want
                checked += 1
                inside += want
            assert checked >= 2990 and 0 < inside < checked


def random_cap_domains(g, rng, r=1.0):
    """Seeded cap domains: single caps, single caps at full reach 2r - rho
    (whose chord normal is 0), the regular triangle's caps (footprints that
    touch) and three caps about an off-origin center."""
    doms = []
    while len(doms) < 8:
        o = from_polar(g, rng.uniform(0.0, TWO_PI), rng.uniform(0.0, 0.6))
        rho = r * rng.uniform(0.15, 0.5)
        u = tangent_from_angle(o, rng.uniform(0.0, TWO_PI), g)
        far = len(doms) % 2 == 1
        d = 2.0 * r - rho if far else rho + (2.0 * r - 2.0 * rho) * rng.uniform(0.05, 0.95)
        dom = cap_domain(Circle(o, rho), [exp_map(o, u, d, g)], r, g)
        assert (dom.caps[0][2] == (0.0, 0.0, 0.0)) is far
        doms.append(dom)
    for w in (0.5, 0.8):
        tri = regular_disk_triangle(w, r, g)
        doms.append(cap_domain(Circle(tri.incenter, tri.rho0), tri.region.vertices, r, g))
    while len(doms) < 14:
        o = from_polar(g, rng.uniform(0.0, TWO_PI), rng.uniform(0.2, 0.6))
        rho = r * rng.uniform(0.2, 0.35)
        base = rng.uniform(0.0, TWO_PI)
        apexes = [exp_map(o, tangent_from_angle(o, base + TWO_PI * k / 3.0 + rng.uniform(-0.2, 0.2), g),
                          rho * rng.uniform(1.15, 1.5), g) for k in range(3)]
        try:
            doms.append(cap_domain(Circle(o, rho), apexes, r, g))
        except SpindleError:
            continue
    return doms


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_cap_domain_membership_matches_the_wedge_reference(g):
    # a cap as its lens on the apex side of its tangency chord decides as
    # the angular-wedge reference does, in the scalar and the batch test,
    # away from every decision boundary
    rng = np.random.default_rng(310)
    for dom in random_cap_domains(g, rng):
        o, big_r = bounding_disk(dom)
        pts = sample_in_disk(o, 1.1 * big_r, 1000, rng, g)
        got = _inside_cap_domain(pts, dom, g)
        checked = inside = 0
        for row, hit in zip(pts, got):
            x = Point(*row)
            if cap_domain_margin(dom, x) <= 1e-9:
                continue
            want = cap_domain_contains_reference(dom, x)
            assert dom.contains(x) == want
            assert hit == want
            checked += 1
            inside += want
        assert checked >= 990 and 0 < inside < checked


# area_monte_carlo(build_cap_domain(g), 200_000, default_rng(24)), bit for
# bit; membership by angular wedges (the oracles' reference) gives the same
CAP_MONTE_CARLO = {
    "euclidean": (0.3268651007447309, 0.0005787550557325701),
    "hyperbolic": (0.3314320592565291, 0.0005907133667545596),
    "spherical": (0.3217254649950887, 0.0005667966103961148),
}


def test_cap_domain_monte_carlo_bits_are_pinned():
    for g in ALL:
        got = area_monte_carlo(build_cap_domain(g), 200_000, np.random.default_rng(24))
        assert got == CAP_MONTE_CARLO[g.name]


def test_monte_carlo_rejects_bad_samples():
    with pytest.raises(SpindleError):
        area_monte_carlo(lens_region(EUCLIDEAN), 0, np.random.default_rng(0))
