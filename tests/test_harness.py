"""Randomized verification harness: sampling, bounds, sweeps, proof probes."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from oracles import (
    angle_coord, cap_rotation_check, distance_monotonicity_check, symmetric_cap_domain, tangent_from_angle,
)
from spindle import harness
from spindle.extremal import regular_disk_hexagon, regular_disk_triangle, triangle_area, triangle_inradius
from spindle.geometry import (
    GEOMETRIES, EUCLIDEAN, HYPERBOLIC, SPHERICAL, Geometry, SpindleError, distance, from_polar,
    origin,
)
from spindle.harness import (
    HEX_FRACTIONS,
    MARGIN_SLACK,
    VerifyConfig,
    check_extremal_bounds,
    hexagon_margins,
    inscribed_cap_domain,
    monotonicity_sweep,
    run_trial,
    run_verification,
    sample_disk_polygon,
)
from spindle.measure import area, incircle, sample_in_disk, thickness
from spindle.regions import CapDomain, DiskPolygon, ball_hull

ALL = tuple(GEOMETRIES.values())


def test_sample_disk_polygon_deterministic():
    for g in ALL:
        a = sample_disk_polygon(g, 7, 1.0, np.random.default_rng(42))
        b = sample_disk_polygon(g, 7, 1.0, np.random.default_rng(42))
        assert len(a.arcs) == len(b.arcs)
        for x, y in zip(a.vertices, b.vertices):
            assert distance(x, y, g) == 0.0
        c = sample_disk_polygon(g, 7, 1.0, np.random.default_rng(43))
        va = sorted(round(v.x, 12) for v in a.vertices)
        vc = sorted(round(v.x, 12) for v in c.vertices)
        assert va != vc


def test_sample_disk_polygon_respects_radius():
    rng = np.random.default_rng(401)
    for g in ALL:
        for _ in range(20):
            poly = sample_disk_polygon(g, int(rng.integers(2, 13)), 1.0, rng)
            assert poly.r == 1.0
            assert all(a.radius == 1.0 for a in poly.arcs)
            assert 2 <= len(poly.vertices) <= 12


def test_check_extremal_bounds_fields_consistent():
    rng = np.random.default_rng(402)
    for g in ALL:
        poly = sample_disk_polygon(g, 8, 1.0, rng)
        rep = check_extremal_bounds(poly)
        w = thickness(poly).value
        assert rep["width"] == pytest.approx(w, abs=1e-12)
        assert rep["inradius_bound"] == pytest.approx(
            triangle_inradius(min(w, poly.r), poly.r, g), abs=1e-12
        )
        tri = regular_disk_triangle(min(w, poly.r), poly.r, g)
        assert rep["area_bound"] == pytest.approx(area(tri.region), rel=1e-12)
        assert rep["margin_inradius"] == pytest.approx(
            rep["incircle"].radius - rep["inradius_bound"], abs=1e-12
        )
        assert rep["margin_area"] == pytest.approx(
            rep["area"] - rep["area_bound"], abs=1e-12
        )
        assert rep["violations"] == []


def test_triangle_itself_sits_on_both_bounds():
    # the extremal body: both margins vanish and the report flags it
    for g in ALL:
        tri = regular_disk_triangle(0.8, 1.2, g)
        rep = check_extremal_bounds(tri.region)
        assert abs(rep["margin_inradius"]) < 1e-9
        assert abs(rep["margin_area"]) < 1e-9
        assert rep["near_equality"]
        assert rep["violations"] == []


def test_bounds_build_the_triangle_only_near_equality(monkeypatch):
    # the area bound has a closed form (triangle_area); the triangle itself
    # is built only for triangle_match_distance
    calls = Counter()

    def counted(*args, _original=harness.regular_disk_triangle):
        calls["regular_disk_triangle"] += 1
        return _original(*args)

    monkeypatch.setattr(harness, "regular_disk_triangle", counted)
    rng = np.random.default_rng(403)
    for g in ALL:
        rep = check_extremal_bounds(sample_disk_polygon(g, 8, 1.0, rng))
        assert not rep["near_equality"] and not calls
        rep = check_extremal_bounds(regular_disk_triangle(0.8, 1.2, g).region)
        assert rep["near_equality"] and calls.pop("regular_disk_triangle") == 1


def test_battery_measures_one_triangle_per_plane(monkeypatch):
    # the closed-form area bound is held against a built triangle once per
    # plane, at the trial with the least area margin; a bound off by more
    # than MARGIN_SLACK there is a violation
    calls = Counter()

    def counted(*args, _original=harness.regular_disk_triangle):
        calls["regular_disk_triangle"] += 1
        return _original(*args)

    monkeypatch.setattr(harness, "regular_disk_triangle", counted)
    cfg = VerifyConfig(trials=6, seed=5)
    clean = run_verification(cfg)
    near = sum(rep["near_equality"] for rep in clean["geometries"].values())
    assert clean["violations_total"] == 0
    assert calls["regular_disk_triangle"] == len(ALL) + near

    def drifted(w, r, g, _original=harness.triangle_area):
        return _original(w, r, g) + 2.0 * MARGIN_SLACK

    monkeypatch.setattr(harness, "triangle_area", drifted)
    for rep in run_verification(cfg)["geometries"].values():
        assert [v["kind"] for v in rep["violations"]] == ["area-bound-closed-form"]
        assert rep["violations"][0]["margin_area"] == rep["min_margin_area"]


class _Record(dict):
    """A synthetic trial record, readable by key or by attribute."""

    __getattr__ = dict.__getitem__


def _synthetic_records(g: Geometry) -> list:
    w, r = 0.8, 1.0
    a_bound = harness.triangle_area(w, r, g)
    rows = (  # margin_inradius, margin_area, near, cap_status, cap margin, violations
        (0.3, 0.5, False, "ok", 0.2, ["inradius-bound"]),
        (0.2, 0.1, True, "contacts<3", None, []),
        (-0.2, 0.1, False, "ok", 0.05, ["area-bound", "cap-area"]),
        (0.4, 0.4, True, "CAP_OVERLAP", None, ["cap-not-contained"]),
    )
    return [
        _Record(geometry=g.name, trial=t, n_points=3, r=r, width=w,
                # only trial 1, the earliest of the tied least area margins,
                # carries a closed-form bound off its measured triangle
                area_bound=a_bound + (1e-3 if t == 1 else 0.0),
                margin_inradius=mr, margin_area=ma, near_equality=near,
                cap_status=status, cap_area_margin=cap, violations=viol)
        for t, (mr, ma, near, status, cap, viol) in enumerate(rows)
    ]


def test_summary_aggregates_trial_records(monkeypatch):
    records = _synthetic_records(EUCLIDEAN)
    monkeypatch.setattr(harness, "run_trial", lambda g, t, config: records[t])
    summary = run_verification(VerifyConfig(geometries=("euclidean",), trials=4))
    body = summary["geometries"]["euclidean"]
    # violations in trial order, the closed-form check last, at the
    # earliest trial among those tied on the least area margin
    assert [(v["trial"], v["kind"]) for v in body["violations"]] == [
        (0, "inradius-bound"), (2, "area-bound"), (2, "cap-area"),
        (3, "cap-not-contained"), (1, "area-bound-closed-form"),
    ]
    assert body["violations"][-1] == {"trial": 1, "kind": "area-bound-closed-form",
                                      "margin_inradius": 0.2, "margin_area": 0.1}
    assert summary["violations_total"] == 5
    assert body["trials"] == 4 and body["near_equality"] == 2
    assert body["cap_status_counts"] == {"ok": 2, "contacts<3": 1, "CAP_OVERLAP": 1}
    assert body["min_margin_inradius"] == -0.2 and body["min_margin_area"] == 0.1
    # trials without a domain stay out of the least cap margin
    assert body["min_cap_area_margin"] == 0.05

    for rec in records:
        rec["cap_area_margin"] = None
    summary = run_verification(VerifyConfig(geometries=("euclidean",), trials=4))
    assert summary["geometries"]["euclidean"]["min_cap_area_margin"] is None


def test_near_disk_hull_has_comfortable_margins():
    # a hull of many cocircular points is close to a disk: far from extremal
    from spindle.geometry import from_polar
    from spindle.regions import ball_hull

    for g in ALL:
        pts = [from_polar(g, 2.0 * math.pi * k / 24.0, 0.35) for k in range(24)]
        poly = ball_hull(pts, 1.0, g)
        rep = check_extremal_bounds(poly)
        assert rep["margin_inradius"] > 0.01
        assert rep["margin_area"] > 0.01
        assert not rep["near_equality"]


def test_lens_corpus_runs_clean(monkeypatch):
    # two-point hulls exercise the degenerate end of the sampler
    monkeypatch.setattr(harness, "POINT_COUNTS", (2,))
    cfg = VerifyConfig(geometries=("euclidean", "hyperbolic", "spherical"),
                       trials=30, seed=7)
    rep = run_verification(cfg)
    assert rep["violations_total"] == 0
    for name in cfg.geometries:
        assert rep["geometries"][name]["trials"] == 30


@pytest.mark.parametrize("r", (1.5, 1.55, 1.5707))
def test_sphere_battery_runs_clean_near_a_right_angle(monkeypatch, r):
    # spherical disks stay convex up to r = pi/2: the battery, at radii past
    # DEFAULT_RADII's, must neither raise nor report a violation
    monkeypatch.setitem(harness.DEFAULT_RADII, "spherical", (r,))
    assert run_trial(GEOMETRIES["spherical"], 0, VerifyConfig())["r"] == r
    rep = run_verification(VerifyConfig(geometries=("spherical",), trials=150))
    assert rep["violations_total"] == 0
    body = rep["geometries"]["spherical"]
    assert body["min_margin_inradius"] > 0.0 and body["min_margin_area"] > 0.0


def test_run_verification_deterministic():
    cfg = VerifyConfig(geometries=("hyperbolic",), trials=25, seed=11)
    a = run_verification(cfg)
    b = run_verification(cfg)
    assert a == b
    ga = a["geometries"]["hyperbolic"]
    assert ga["violations"] == []
    assert ga["min_margin_inradius"] > 0.0
    assert ga["min_margin_area"] > 0.0


def test_run_verification_small_batch_all_geometries():
    cfg = VerifyConfig(trials=50, seed=3)
    rep = run_verification(cfg)
    assert rep["violations_total"] == 0
    for name in ("euclidean", "hyperbolic", "spherical"):
        body = rep["geometries"][name]
        assert body["trials"] == 50
        counts = body["cap_status_counts"]
        assert sum(counts.values()) == 50
        assert counts.get("ok", 0) > 0


def test_run_verification_rejects_unknown_geometry():
    with pytest.raises(SpindleError) as err:
        run_verification(VerifyConfig(geometries=("flatland",), trials=1))
    assert err.value.code == "BAD_RANGE"


@pytest.mark.parametrize("names", (("euclidean", "euclidean"), (), "euclidean", ("flatland",)),
                         ids=("repeated", "empty", "bare-string", "unknown"))
def test_run_verification_refuses_a_bad_geometry_list(names):
    # a repeated plane ran twice and counted its violations twice, an empty
    # list passed with 0 violations, and a bare string was read letter by letter
    with pytest.raises(SpindleError) as err:
        run_verification(VerifyConfig(geometries=names, trials=1))
    assert err.value.code == "BAD_RANGE" and repr(names) in str(err.value)


@pytest.mark.parametrize("config", (VerifyConfig(trials=0), VerifyConfig(trials=-3)),
                         ids=("no-trials", "negative-trials"))
def test_run_verification_refuses_an_empty_battery(config):
    with pytest.raises(SpindleError) as err:
        run_verification(config)
    assert err.value.code == "BAD_RANGE"


def test_run_verification_refuses_a_negative_seed():
    with pytest.raises(SpindleError) as err:
        run_verification(VerifyConfig(trials=1, seed=-1))
    assert err.value.code == "BAD_RANGE" and "seed" in str(err.value)


def test_run_trial_refuses_a_negative_seed():
    # the same BAD_RANGE as run_verification, not numpy's bare ValueError
    for g in ALL:
        with pytest.raises(SpindleError) as err:
            run_trial(g, 0, VerifyConfig(trials=1, seed=-1))
        assert err.value.code == "BAD_RANGE" and "seed" in str(err.value)


@pytest.mark.parametrize("field, value", (("trials", 2.5), ("seed", 1.5), ("trials", "3"),
                                          ("trials", True), ("seed", True)),
                         ids=("float-trials", "float-seed", "string-trials", "bool-trials", "bool-seed"))
def test_run_verification_refuses_a_count_that_is_not_an_integer(field, value):
    # the floats and the string raised a bare TypeError, and True ran as 1
    config = VerifyConfig(**{"trials": 1, field: value})
    for run in (run_verification, lambda c: run_trial(EUCLIDEAN, 0, c)):
        with pytest.raises(SpindleError) as err:
            run(config)
        assert err.value.code == "BAD_RANGE" and field in str(err.value)


@pytest.mark.parametrize("grow", (1e-5, 1e-3))
def test_inscribed_cap_domain_refuses_a_grown_disk(grow):
    # the incircle grown past the inradius by more than BATTERY_SLACK pokes
    # out of the hull at its contacts, so no domain built on it is contained
    built = 0
    for g in ALL:
        rng = np.random.default_rng(403)
        for _ in range(60):
            poly = sample_disk_polygon(g, int(rng.integers(3, 13)), 1.0, rng)
            bounds = check_extremal_bounds(poly)
            inc = bounds["incircle"]
            bounds["incircle"] = dataclasses.replace(inc, radius=inc.radius + grow)
            dom, status, details = inscribed_cap_domain(poly, bounds)
            if dom is not None:
                built += 1
                assert details["containment"] is False, (g.name, status)
    assert built > 100


def test_inscribed_cap_domain_battery():
    rng = np.random.default_rng(403)
    oks = 0
    for g in ALL:
        for _ in range(40):
            poly = sample_disk_polygon(g, int(rng.integers(3, 13)), 1.0, rng)
            bounds = check_extremal_bounds(poly)
            dom, status, details = inscribed_cap_domain(poly, bounds)
            if status != "ok":
                assert dom is None
                continue
            oks += 1
            assert isinstance(dom, CapDomain)
            inc = incircle(poly)
            assert dom.rho == pytest.approx(inc.radius, abs=1e-12)
            assert dom.r == poly.r
            assert details["containment"]
            assert details["area_margin"] >= -1e-9
            assert area(dom) <= area(poly) + 1e-9
    assert oks > 30


def numpy_floats(obj, path="") -> list[str]:
    """Paths of the numpy floating scalars anywhere inside obj: dataclass
    fields (a DiskPolygon's cached vertices and centers too), named-tuple
    fields, sequence items and dict values."""
    if isinstance(obj, np.floating):
        return [path]
    if obj is None or isinstance(obj, (bool, int, float, str, Geometry)):
        return []
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
        if isinstance(obj, DiskPolygon):
            names += ["vertices", "centers"]
        items = [(n, getattr(obj, n)) for n in names]
    elif isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        items = list(zip(obj._fields, obj))
    elif isinstance(obj, (tuple, list)):
        items = list(enumerate(obj))
    else:
        raise TypeError(f"{path}: cannot walk a {type(obj).__name__}")
    return [p for k, v in items for p in numpy_floats(v, f"{path}.{k}")]


def test_no_numpy_scalar_reaches_a_hull_or_a_report():
    rng = np.random.default_rng(17)
    for g in ALL:
        caps = 0
        for n in range(3, 13):
            rows = sample_in_disk(origin(g), 0.5, n, rng, g)  # raw numpy rows in
            poly = ball_hull(list(rows), 1.0, g)
            bounds = check_extremal_bounds(poly)
            dom, status, details = inscribed_cap_domain(poly, bounds)
            caps += status == "ok"
            found = numpy_floats((poly, thickness(poly), bounds, dom, details))
            assert found == [], f"{g.name}, n = {n}: numpy floats at {found}"
        assert caps > 0
        assert numpy_floats(run_trial(g, 1, VerifyConfig(trials=1))) == []


def test_run_trial_measures_each_hull_once(monkeypatch):
    calls = Counter()
    for name in ("thickness", "incircle"):
        def counted(poly, _original=getattr(harness, name), _name=name):
            calls[_name] += 1
            return _original(poly)

        monkeypatch.setattr(harness, name, counted)
    for g in ALL:
        calls.clear()
        run_trial(g, 0, VerifyConfig(trials=1))
        assert calls == {"thickness": 1, "incircle": 1}


def test_cap_rotation_preserves_area():
    for g in ALL:
        out = cap_rotation_check(g, trials=25, seed=5)
        assert out["built"] == 25
        assert out["violations"] == []
        assert out["max_diff"] < 1e-9


def test_symmetric_cap_domain_area_direct():
    from spindle.geometry import Circle, exp_map, origin
    from spindle.regions import cap_domain

    for g in ALL:
        o = origin(g)
        apexes = [
            exp_map(o, tangent_from_angle(o, th, g), d, g)
            for th, d in zip((0.2, 2.4, 4.3), (0.36, 0.40, 0.38))
        ]
        dom = cap_domain(Circle(o, 0.3), apexes, 1.0, g)
        sym = symmetric_cap_domain(dom)
        assert sym is not None
        assert area(sym) == pytest.approx(area(dom), abs=1e-9)
        # the symmetrized apexes really are a third of a turn apart
        angles = sorted(angle_coord(o, q, g) for q in sym.apexes)
        gap1 = angles[1] - angles[0]
        gap2 = angles[2] - angles[1]
        assert gap1 == pytest.approx(2.0 * math.pi / 3.0, abs=1e-9)
        assert gap2 == pytest.approx(2.0 * math.pi / 3.0, abs=1e-9)


def test_distance_monotonicity_along_far_arc():
    for g in ALL:
        out = distance_monotonicity_check(g, pairs=200, seed=2)
        assert out["pairs"] == 200
        assert out["violations"] == []


def test_hexagon_margins_positive_and_increasing():
    for g in ALL:
        for w, r in ((0.8, 1.2), (0.6, 0.9)):
            rows = hexagon_margins(g, w, r, HEX_FRACTIONS)
            assert len(rows) == len(HEX_FRACTIONS)
            margins = [m for _, m in rows]
            assert all(m > 1e-9 for m in margins)
            assert all(a < b for a, b in zip(margins, margins[1:]))
            rho0 = triangle_inradius(w, r, g)
            for (rho, _), f in zip(rows, HEX_FRACTIONS):
                assert rho == pytest.approx(rho0 + f * (0.5 * w - rho0), abs=1e-12)


def test_hexagon_family_loses_width_away_from_rho0():
    # regression pin: the six-arc family is only width-w at rho = rho0.
    # the plateau between opposite arcs dips once rho grows, so the sweep
    # checks area margins, never width preservation
    from spindle.extremal import regular_disk_hexagon

    hexa = regular_disk_hexagon(1.0, 2.0, 0.45, EUCLIDEAN)
    assert thickness(hexa.region).value == pytest.approx(0.9508448173783606, abs=1e-9)


def test_monotonicity_sweep_clean_and_structured():
    for g in ALL:
        out = monotonicity_sweep(g, (0.5, 0.7, 0.9), (1.1, 1.3))
        assert out["violations"] == []
        assert len(out["rows"]) == 6
        for row in out["rows"]:
            assert row["geometry"] == g.name
            assert row["thickness"] == pytest.approx(row["w"], abs=1e-6)
            assert row["hexagon_min_margin"] > 1e-9
            assert row["hexagon_margins_increasing"]
        # rho0 grows along w at fixed r
        by_r: dict = {}
        for row in out["rows"]:
            by_r.setdefault(row["r"], []).append((row["w"], row["rho0"]))
        for rows in by_r.values():
            rows.sort()
            assert all(a[1] < b[1] for a, b in zip(rows, rows[1:]))


# --------------------------------------------------------------------------
# the harness's slacks, each on an input that needs it

@pytest.mark.parametrize("g, r", ((HYPERBOLIC, 0.7), (HYPERBOLIC, 1.4), (SPHERICAL, 1.4)),
                         ids=("H-0.7", "H-1.4", "S-1.4"))
def test_a_lens_of_width_r_is_measured_not_refused(g, r):
    # the lens of two points 2a apart, cs r = cs a cs(r / 2), has its arc
    # centers r apart and width 2r - r = r; measured, it passes r by 1.1e-15
    # to 2.4e-15, which _WIDTH_OVER_R lets through (OUT_OF_RANGE without it)
    ca = g.cs(r) / g.cs(0.5 * r)
    a = math.acos(ca) if g.kappa > 0 else math.acosh(ca)
    lens = ball_hull([from_polar(g, 0.0, a), from_polar(g, math.pi, a)], r, g)
    rep = check_extremal_bounds(lens)
    assert rep["width"] == pytest.approx(r, abs=1e-14)
    assert rep["violations"] == []


def test_apexes_on_the_incircle_are_an_apex_inside_disk_status():
    # rho = w / 2: the apexes at w - rho sit on the incircle, w - 2 rho =
    # +4.4e-16 as measured; _APEX_CLEARANCE reports them as apex-inside-disk
    # (cap_domain's DEGENERATE without it)
    hexa = regular_disk_hexagon(0.6, 1.0, 0.3, SPHERICAL)
    rec = check_extremal_bounds(hexa.region)
    assert inscribed_cap_domain(hexa.region, rec)[:2] == (None, "apex-inside-disk")


def test_the_regular_triangle_gets_its_cap_certificate():
    # each support strip of the regular triangle is as wide as the triangle,
    # h - w = -1.4e-15 here: within _STRIP_SLACK, not strip-under-width
    tri = regular_disk_triangle(0.84, 1.4, HYPERBOLIC)
    _, status, details = inscribed_cap_domain(tri.region, check_extremal_bounds(tri.region))
    assert status == "ok" and details["containment"]


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_hexagons_touching_six_arcs_get_their_cap_certificate(g):
    # the regular six-arc body touches its incircle on all six arcs; the
    # certificate builds on the three contacts that pin the incircle, not
    # on three neighbouring ones (CAP_OVERLAP on all 18 bodies when it did)
    for w, r in ((0.8, 1.0), (0.6, 1.2)):
        rho0 = triangle_inradius(w, r, g)
        for f in (0.1, 0.3, 0.7):
            hexa = regular_disk_hexagon(w, r, rho0 + f * (0.5 * w - rho0), g)
            rec = check_extremal_bounds(hexa.region)
            assert len(rec["incircle"].contacts) == 6
            dom, status, details = inscribed_cap_domain(hexa.region, rec)
            assert status == "ok" and details["containment"], (w, r, f)
            assert area(dom) >= triangle_area(min(rec["width"], r), r, g), (w, r, f)


def test_a_trial_on_the_equality_body_has_no_violation(monkeypatch):
    # at w = r the cap domain of the regular triangle passes its area by
    # 6.7e-16: _CAP_AREA_SLACK keeps run_trial from a cap-area violation
    tri = regular_disk_triangle(1.4, 1.4, HYPERBOLIC)
    monkeypatch.setattr(harness, "sample_disk_polygon", lambda g, n, r, rng: tri.region)
    rec = run_trial(HYPERBOLIC, 0, VerifyConfig(geometries=("hyperbolic",)))
    assert rec["cap_status"] == "ok"
    assert rec["violations"] == []


def test_hexagon_margins_under_the_gate_are_not_positive(monkeypatch):
    # at f = 1e-9 the hexagon's area margin is +1.8e-11, under
    # _HEXAGON_MARGIN_MIN (an area, 1e-9): the sweep reports it, as it does
    # the -1.6e-13 of rounding at f = 1e-12
    for f in (1e-9, 1e-12):
        monkeypatch.setattr(harness, "HEX_FRACTIONS", (f,))
        out = monotonicity_sweep(EUCLIDEAN, (0.8,), (1.0,))
        assert [v.split(" at ")[0] for v in out["violations"]] == ["hexagon margin not positive"]
