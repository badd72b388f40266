"""Acceptance battery.

Ten numbered end-to-end checks: closed forms against constructed
geometry, the two extremal inequalities over a large seeded corpus,
the hexagon interpolation, the calculus of the inradius function, the
area and incircle oracles, and the two proof-step reproductions.
Every test prints a single PASS/FAIL line; run with

    pytest tests/test_acceptance.py -s

to see the lines stream.  The corpus tests take a couple of minutes.
"""

import math
import time

import numpy as np
import pytest

from oracles import cap_rotation_check, distance_monotonicity_check, incircle_grid_reference
from spindle.geometry import GEOMETRIES, origin, from_polar
from spindle.regions import Circle, cap_domain, r_segment
from spindle.extremal import (
    regular_disk_hexagon,
    regular_disk_triangle,
    triangle_inradius,
    triangle_inradius_partials,
)
from spindle.measure import area, area_monte_carlo, incircle, thickness
from spindle.harness import (
    check_extremal_bounds,
    hexagon_margins,
    inscribed_cap_domain,
    sample_disk_polygon,
)

GRID_N = 20
CORPUS_SIZE = 10_000
POINT_COUNTS = tuple(range(2, 13))
RADIUS_RANGE = {
    "euclidean": (0.5, 2.2),
    "hyperbolic": (0.5, 2.2),
    "spherical": (0.5, 1.5),
}
SPHERE_R_MAX = math.pi / 2 - 1e-3


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def fraction_grid(g):
    """20x20 cells (w, r) with w running over (0, r] for each r."""
    r_hi = SPHERE_R_MAX if g.kappa > 0 else 2.5
    r_values = np.linspace(0.15, r_hi, GRID_N)
    fractions = np.linspace(0.05, 1.0, GRID_N)
    return [(float(f * r), float(r)) for r in r_values for f in fractions]


def axis_grid(g):
    """Independent w and r axes, every combination valid."""
    if g.kappa > 0:
        ws = np.linspace(0.1, 0.9, GRID_N)
        rs = np.linspace(0.9, SPHERE_R_MAX, GRID_N)
    else:
        ws = np.linspace(0.1, 1.2, GRID_N)
        rs = np.linspace(1.2, 2.5, GRID_N)
    return [float(w) for w in ws], [float(r) for r in rs]


# --------------------------------------------------------------------------
# shared corpus for the two inequality suites

@pytest.fixture(scope="module")
def corpus_margins():
    out = {}
    for gi, (name, g) in enumerate(GEOMETRIES.items()):
        rng = np.random.default_rng(90_000 + gi)
        lo, hi = RADIUS_RANGE[name]
        stats = {
            "min_rho": math.inf,
            "min_area": math.inf,
            "below_rho": 0,
            "below_area": 0,
            "count": 0,
        }
        for i in range(CORPUS_SIZE):
            n = POINT_COUNTS[i % len(POINT_COUNTS)]
            r = float(rng.uniform(lo, hi))
            poly = sample_disk_polygon(g, n, r, rng)
            rec = check_extremal_bounds(poly)
            stats["min_rho"] = min(stats["min_rho"], rec["margin_inradius"])
            stats["min_area"] = min(stats["min_area"], rec["margin_area"])
            stats["below_rho"] += rec["margin_inradius"] < -1e-7
            stats["below_area"] += rec["margin_area"] < -1e-7
            stats["count"] += 1
        out[name] = stats
    return out


# --------------------------------------------------------------------------
# criteria

def test_criterion_01_inradius_closed_form():
    worst = 0.0
    cells = 0
    t0 = time.perf_counter()
    for g in GEOMETRIES.values():
        for w, r in fraction_grid(g):
            tri = regular_disk_triangle(w, r, g)
            worst = max(worst, abs(incircle(tri.region).radius - tri.rho0))
            cells += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, ok, f"max |incircle - rho0| = {worst:.2e} over {cells} cells "
                  f"in {elapsed:.2f}s (tol 1e-9, budget 5s)")


def test_criterion_02_triangle_width():
    worst = 0.0
    cells = 0
    for g in GEOMETRIES.values():
        for w, r in fraction_grid(g):
            tri = regular_disk_triangle(w, r, g)
            worst = max(worst, abs(thickness(tri.region).value - w))
            cells += 1
    ok = worst <= 1e-9
    report(2, ok, f"max |thickness - w| = {worst:.2e} over {cells} cells (tol 1e-9)")


def test_criterion_03_limit_cases():
    g = GEOMETRIES["euclidean"]
    rho_thin = triangle_inradius(1.0, 1e6, g)
    area_thin = area(regular_disk_triangle(1.0, 1e6, g).region)
    rho_reuleaux = triangle_inradius(1.0, 1.0, g)
    d1 = abs(rho_thin - 1.0 / 3.0)
    d2 = abs(area_thin - 1.0 / math.sqrt(3.0)) * math.sqrt(3.0)
    d3 = abs(rho_reuleaux - (1.0 - 1.0 / math.sqrt(3.0)))
    ok = d1 <= 1e-5 and d2 <= 1e-4 and d3 <= 1e-12
    report(3, ok, f"thin-body rho0 off {d1:.2e} (tol 1e-5), area rel off {d2:.2e} "
                  f"(tol 1e-4), Reuleaux rho0 off {d3:.2e} (tol 1e-12)")


def test_criterion_04_inradius_bound_corpus(corpus_margins):
    below = sum(s["below_rho"] for s in corpus_margins.values())
    total = sum(s["count"] for s in corpus_margins.values())
    worst = min(s["min_rho"] for s in corpus_margins.values())
    ok = below == 0 and total == 3 * CORPUS_SIZE
    report(4, ok, f"{total} hulls, {below} inradius margins under -1e-7, "
                  f"smallest margin {worst:.3e}")


def test_criterion_05_area_bound_corpus(corpus_margins):
    below = sum(s["below_area"] for s in corpus_margins.values())
    total = sum(s["count"] for s in corpus_margins.values())
    worst = min(s["min_area"] for s in corpus_margins.values())
    ok = below == 0 and total == 3 * CORPUS_SIZE
    report(5, ok, f"{total} hulls, {below} area margins under -1e-7, "
                  f"smallest margin {worst:.3e}")


def test_criterion_06_hexagon_interpolation():
    pairs = [(0.6, 0.9), (0.8, 1.2), (1.0, 1.3), (0.5, 1.45), (1.2, 1.5)]
    fractions = [k / 11.0 for k in range(1, 11)]
    min_margin = math.inf
    increasing_everywhere = True
    for g in GEOMETRIES.values():
        for w, r in pairs:
            margins = [m for _, m in hexagon_margins(g, w, r, fractions)]
            min_margin = min(min_margin, min(margins))
            increasing_everywhere &= all(
                b > a for a, b in zip(margins, margins[1:])
            )
    ok = min_margin > 1e-9
    report(6, ok, f"15 (geometry, w, r) cases x 10 inradii, min area margin "
                  f"{min_margin:.3e} (must exceed 1e-9); margins increasing "
                  f"in rho: {increasing_everywhere}")


def test_criterion_07_inradius_calculus():
    h = 1e-6
    bad_signs = 0
    worst_rel = 0.0
    for g in GEOMETRIES.values():
        # monotone along w on the fraction grids, analytic signs everywhere
        by_r = {}
        for w, r in fraction_grid(g):
            by_r.setdefault(r, []).append(w)
            dw, dr = triangle_inradius_partials(w, r, g)
            bad_signs += not (dw > 0.0)
            if w < r:
                bad_signs += not (dr < 0.0)
        for r, ws in by_r.items():
            vals = [triangle_inradius(w, r, g) for w in sorted(ws)]
            bad_signs += sum(not (b > a) for a, b in zip(vals, vals[1:]))

        # independent axes: rho0 up in w, down in r; area down in r
        ws, rs = axis_grid(g)
        for r in rs:
            vals = [triangle_inradius(w, r, g) for w in ws]
            bad_signs += sum(not (b > a) for a, b in zip(vals, vals[1:]))
        for w in ws:
            rho = [triangle_inradius(w, r, g) for r in rs]
            bad_signs += sum(not (b < a) for a, b in zip(rho, rho[1:]))
            areas = [area(regular_disk_triangle(w, r, g).region) for r in rs]
            bad_signs += sum(not (b < a) for a, b in zip(areas, areas[1:]))

        # central differences where doubles support the comparison: the
        # hyperbolic rho0 plateaus in r for thin bodies, so |dr| there
        # sits below the h=1e-6 difference noise floor (~1e-10); keep
        # the stencil where the partials stay of honest size
        if g.kappa > 0:
            pw = np.linspace(0.3, 0.9, GRID_N)
            pr = np.linspace(0.9, SPHERE_R_MAX, GRID_N)
        else:
            pw = np.linspace(0.3, 1.2, GRID_N)
            pr = np.linspace(1.2, 2.2, GRID_N)
        for w in pw:
            for r in pr:
                w, r = float(w), float(r)
                dw, dr = triangle_inradius_partials(w, r, g)
                if w + h < r - 10 * h:
                    num = (triangle_inradius(w + h, r, g)
                           - triangle_inradius(w - h, r, g)) / (2 * h)
                    worst_rel = max(worst_rel, abs(num - dw) / max(abs(dw), abs(num)))
                if w < r - 10 * h and (g.kappa <= 0 or r + h < math.pi / 2):
                    num = (triangle_inradius(w, r + h, g)
                           - triangle_inradius(w, r - h, g)) / (2 * h)
                    worst_rel = max(worst_rel, abs(num - dr) / max(abs(dr), abs(num)))
    ok = bad_signs == 0 and worst_rel <= 1e-6
    report(7, ok, f"{bad_signs} sign violations; partials vs central "
                  f"differences worst rel {worst_rel:.2e} (tol 1e-6)")


def _mc_corpus(g):
    regions = []
    rng = np.random.default_rng(1001)
    a, b = from_polar(g, 0.3, 0.25), from_polar(g, 4.0, 0.6)
    regions.append(("lens", r_segment(a, b, 1.0, g)))
    regions.append(("triangle", regular_disk_triangle(0.8, 1.2, g).region))
    regions.append(("hexagon", regular_disk_hexagon(0.8, 1.2, 0.35, g).region))
    for n in (3, 5, 8, 12):
        regions.append((f"poly{n}", sample_disk_polygon(g, n, 1.4, rng)))
    c = origin(g)
    regions.append(
        ("cap1", cap_domain(Circle(c, 0.3), [from_polar(g, 0.7, 0.5)], 1.0, g))
    )
    regions.append(
        ("cap2", cap_domain(
            Circle(c, 0.3),
            [from_polar(g, 0.0, 0.42), from_polar(g, math.pi, 0.47)], 1.0, g))
    )
    regions.append(
        ("cap3", cap_domain(
            Circle(c, 0.3),
            [from_polar(g, 0.0, 0.35), from_polar(g, 2.2, 0.38),
             from_polar(g, 4.2, 0.42)], 1.0, g))
    )
    for _ in range(40):
        poly = sample_disk_polygon(g, 7, 1.2, rng)
        dom, status, _ = inscribed_cap_domain(poly, check_extremal_bounds(poly))
        if dom is not None and status == "ok":
            regions.append(("cap-inscribed", dom))
            break
    return regions


def test_criterion_08_area_oracle_monte_carlo():
    worst_z = 0.0
    failures = []
    total = 0
    for name, g in GEOMETRIES.items():
        for label, region in _mc_corpus(g):
            rng = np.random.default_rng(2026)
            est, se = area_monte_carlo(region, 1_000_000, rng)
            exact = area(region)
            dev = abs(est - exact)
            if dev > 3.0 * se:
                failures.append(f"{name}/{label}")
            if se > 0:
                worst_z = max(worst_z, dev / se)
            total += 1
    ok = not failures and total == 33
    report(8, ok, f"{total} regions (cap domains included) at 1e6 samples, "
                  f"worst deviation {worst_z:.2f} se (gate 3 se)"
                  + (f"; failed: {failures}" if failures else ""))


def test_criterion_09_incircle_oracle_grid():
    worst = 0.0
    count = 0
    for gi, (name, g) in enumerate(GEOMETRIES.items()):
        rng = np.random.default_rng(515 + gi)
        target = 34 if gi == 0 else 33
        for i in range(target):
            n = 2 + (i % 11)
            poly = sample_disk_polygon(g, n, 1.3, rng)
            ref_val, _ = incircle_grid_reference(poly)
            worst = max(worst, abs(ref_val - incircle(poly).radius))
            count += 1
    ok = worst <= 1e-6 and count == 100
    report(9, ok, f"{count} hulls, max |grid oracle - minimax| = {worst:.2e} "
                  f"(tol 1e-6)")


def test_criterion_10_rotation_and_monotonicity():
    worst_diff = 0.0
    built = 0
    violations = 0
    pairs = 0
    for g in GEOMETRIES.values():
        rot = cap_rotation_check(g, trials=40, seed=7)
        worst_diff = max(worst_diff, rot["max_diff"])
        built += rot["built"]
        violations += len(rot["violations"])
        mono = distance_monotonicity_check(g, pairs=1000, seed=7)
        pairs += mono["pairs"]
        violations += len(mono["violations"])
    ok = violations == 0 and built == 120 and pairs == 3000 and worst_diff <= 1e-9
    report(10, ok, f"{built} rotated cap domains, max area shift "
                   f"{worst_diff:.2e} (tol 1e-9); {pairs} circle pairs "
                   f"monotone, {violations} violations")
