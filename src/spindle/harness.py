"""Randomized verification of the extremal inequalities.

Each trial draws a few points area-uniformly in a disk of radius r/2,
takes their r-hull, measures width, inradius and area, and checks the two
lower bounds: inradius and area are both minimized, at fixed width, by the
regular disk triangle.  On top of that the harness rebuilds the inscribed
cap domain certificate: a disk-with-caps region sitting inside the hull
whose area separates the hull from the triangle bound.

Each trial leaves one record, the dict run_trial returns: the hull's
measurements and verdicts from check_extremal_bounds, the trial's identity
and its cap certificate.  run_verification takes each plane's summary
(violations, near-equality count, cap status counts, least margins) from
the list of its trials' records.

All randomness is driven by numpy generators seeded per (seed, geometry,
trial), so runs are reproducible across machines.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    Circle,
    Geometry,
    GEOMETRIES,
    Point,
    SpindleError,
    Tangent,
    _negate,
    _normalize_tangent,
    det3,
    distance,
    exp_map,
    log_dir,
    origin,
    perp,
    signed_distance_to_geodesic,
)
from .measure import _check_count, area, incircle, sample_in_disk, thickness
from .regions import CapDomain, DiskPolygon, ball_hull, cap_domain
from .extremal import (
    regular_disk_hexagon,
    regular_disk_triangle,
    triangle_area,
    triangle_inradius,
    triangle_inradius_partials,
)

DEFAULT_RADII = {
    "euclidean": (0.7, 1.0, 1.6),
    "hyperbolic": (0.7, 1.0, 1.6),
    "spherical": (0.6, 1.0, 1.4),
}
POINT_COUNTS = tuple(range(2, 13))

MARGIN_SLACK = 1e-7   # length or area: the inradius and area margins may dip this far below 0
NEAR_EQUALITY = 1e-6  # length and area: both margins under this make an equality case
BATTERY_SLACK = 1e-6  # length: a cap domain's generators may reach this far past the hull's disks
_WIDTH_OVER_R = 1e-9  # length: a hull's width may pass r by this much before OUT_OF_RANGE
_APEX_CLEARANCE = 1e-9  # length: cap apexes at w - rho must clear the incircle radius by more
_STRIP_SLACK = 1e-6   # length: a support strip may fall this far short of the width
_CAP_AREA_SLACK = 1e-9  # area: a cap domain's area may pass the hull's by this much
_DIFF_STEP = 1e-6     # length: central-difference step for the triangle calculus checks
_TRIANGLE_WIDTH_TOL = 1e-6  # length: a regular triangle's measured width may miss w by this
_HEXAGON_MARGIN_MIN = 1e-9  # area: a hexagon area margin must pass this to count as positive
_PARTIAL_TOL = 1e-5   # share: analytic inradius partials may miss central differences by this


@dataclass(frozen=True)
class VerifyConfig:
    geometries: tuple[str, ...] = ("euclidean", "hyperbolic", "spherical")
    trials: int = 200
    seed: int = 0


def sample_disk_polygon(
    g: Geometry, n: int, r: float, rng: np.random.Generator
) -> DiskPolygon:
    """r-hull of n points drawn area-uniformly from B(origin, r/2).

    The r/2 sampling radius keeps the diameter, hence the width, at or
    below r, which is the regime the extremal bounds speak about.
    """
    pts = sample_in_disk(origin(g), 0.5 * r, n, rng, g)
    return ball_hull(pts.tolist(), r, g)


def check_extremal_bounds(poly: DiskPolygon) -> dict:
    """Width, inradius and area of the hull against the triangle bounds."""
    g = poly.geometry
    r = poly.r
    wit = thickness(poly)
    w = wit.value
    if w > r + _WIDTH_OVER_R:
        raise SpindleError("OUT_OF_RANGE", "width exceeds the arc radius")
    w_eff = min(w, r)
    inc = incircle(poly)
    rho_bound = triangle_inradius(w_eff, r, g)
    a = area(poly)
    a_bound = triangle_area(w_eff, r, g)
    margin_rho = inc.radius - rho_bound
    margin_area = a - a_bound
    violations = []
    if margin_rho < -MARGIN_SLACK:
        violations.append("inradius-bound")
    if margin_area < -MARGIN_SLACK:
        violations.append("area-bound")
    near = margin_rho < NEAR_EQUALITY and margin_area < NEAR_EQUALITY
    match = triangle_match_distance(poly, regular_disk_triangle(w_eff, r, g)) if near else None
    return {
        "width": w,
        "incircle": inc,
        "inradius_bound": rho_bound,
        "area": a,
        "area_bound": a_bound,
        "margin_inradius": margin_rho,
        "margin_area": margin_area,
        "near_equality": near,
        "triangle_match": match,
        "violations": violations,
    }


def triangle_match_distance(poly: DiskPolygon, tri) -> float:
    """Congruence mismatch between the hull and the regular triangle:
    the sorted side lengths compared entrywise (inf when vertex counts
    differ)."""
    g = poly.geometry
    verts = poly.vertices
    if len(verts) != 3:
        return math.inf
    tv = tri.region.vertices
    sides = sorted(
        distance(verts[i], verts[(i + 1) % 3], g) for i in range(3)
    )
    ref = sorted(distance(tv[i], tv[(i + 1) % 3], g) for i in range(3))
    return max(abs(s - t) for s, t in zip(sides, ref))


# --------------------------------------------------------------------------
# inscribed cap domain

def _farthest_from_support_line(
    poly: DiskPolygon, base: Point, u: Tangent
) -> tuple[Point, float]:
    """Region point with the largest signed distance from the geodesic
    through base with direction u (region on the positive side).

    det3(base, u, x) is sn of that distance, so candidates are ranked on it
    and the distance is taken once, for the winner.  An arc's candidate
    cs r c + sn r grad is walked to only when it falls right of the arc's
    chord, cs r det3(s, e, c) + sn r det3(s, e, grad) <= 0."""
    g = poly.geometry
    sn, cs = g.sn(poly.r), g.cs(poly.r)
    pole = perp(base, u, g)
    candidates = list(poly.vertices)
    for arc in poly.arcs:
        # interior critical points of the distance lie on the geodesic
        # through the arc center normal to the line; the one against the
        # gradient is the circle's nearest point, never the farthest
        try:
            grad = _normalize_tangent(arc.center, pole.x, pole.y, pole.z, g)
        except SpindleError:
            continue
        if cs * det3(arc.start, arc.end, arc.center) + sn * det3(arc.start, arc.end, grad) <= 0.0:
            candidates.append(exp_map(arc.center, grad, arc.radius, g))
    best_x = max(candidates, key=lambda x: det3(base, u, x))
    return best_x, signed_distance_to_geodesic(best_x, base, u, g)


def inscribed_cap_domain(
    poly: DiskPolygon, bounds: dict
) -> tuple[Optional[CapDomain], str, dict]:
    """Rebuild the cap-domain certificate inside a hull.

    `bounds` is the record check_extremal_bounds returned for the same
    hull; its width, incircle and area are reused, not measured again.
    Takes the incircle, and at three of its contact points erects the
    supporting geodesic; the farthest hull point from each line yields an
    apex direction, and the apexes sit at distance width - inradius from
    the incenter.  Returns (domain or None, status, details); the domain
    must land inside the hull with area at most the hull's: it does when its
    generators, B(p, rho) and the apexes, do within BATTERY_SLACK (it is their r-hull).
    """
    g = poly.geometry
    r = poly.r
    inc = bounds["incircle"]
    w, rho = bounds["width"], inc.radius
    if len(inc.contacts) < 3:
        return None, "contacts<3", {}
    if w - rho <= rho + _APEX_CLEARANCE:
        return None, "apex-inside-disk", {}
    p = inc.center

    # the three contacts that pin the incircle, each with its arc's center
    apexes = []
    for t, i in zip(inc.contacts[:3], inc.contact_arcs):
        nu_in = log_dir(t, poly.centers[i], g)
        u = _negate(perp(t, nu_in, g))  # region side is the positive side
        x_star, h = _farthest_from_support_line(poly, t, u)
        if h < w - _STRIP_SLACK:
            return None, "strip-under-width", {}
        reach = min(w - rho, distance(p, x_star, g))
        apexes.append(exp_map(p, log_dir(p, x_star, g), reach, g))

    try:
        dom = cap_domain(Circle(p, rho), apexes, r, g)
    except SpindleError as e:
        return None, e.code, {}

    # B(p, rho) lies in a hull disk B(c, r) when p lies in B(c, r - rho)
    contained = (poly.contains(p, BATTERY_SLACK - rho)
                 and all(poly.contains(q, BATTERY_SLACK) for q in dom.apexes))
    return dom, "ok", {"containment": contained, "area_margin": bounds["area"] - area(dom)}


# --------------------------------------------------------------------------
# the randomized run

def _check_config(config: VerifyConfig) -> None:
    names = config.geometries
    if not (isinstance(names, (tuple, list)) and names
            and all(isinstance(name, str) and name in GEOMETRIES for name in names)
            and len(set(names)) == len(names)):
        raise SpindleError("BAD_RANGE", f"geometries must be distinct plane names, got {names!r}")
    _check_count("trials", config.trials, 1)
    _check_count("seed", config.seed, 0)


def run_trial(g: Geometry, trial: int, config: VerifyConfig) -> dict:
    """The trial's record: check_extremal_bounds's dict for its sampled
    hull, with the trial's geometry, index, n_points and r, the cap
    certificate's cap_status and cap_area_margin (None without a domain),
    and the cap checks appended to its violations."""
    _check_config(config)
    gi = list(GEOMETRIES).index(g.name)
    rng = np.random.default_rng((config.seed, gi, trial))
    radii = DEFAULT_RADII[g.name]
    n = POINT_COUNTS[trial % len(POINT_COUNTS)]
    r = radii[trial % len(radii)]
    poly = sample_disk_polygon(g, n, r, rng)
    rec = check_extremal_bounds(poly)
    dom, status, details = inscribed_cap_domain(poly, rec)
    rec.update(geometry=g.name, trial=trial, n_points=n, r=r,
               cap_status=status, cap_area_margin=details.get("area_margin"))
    if dom is not None:
        if not details["containment"]:
            rec["violations"].append("cap-not-contained")
        if details["area_margin"] < -_CAP_AREA_SLACK:
            rec["violations"].append("cap-area")
    return rec


def _violation(rec: dict, kind: str) -> dict:
    return {"trial": rec["trial"], "kind": kind,
            "margin_inradius": rec["margin_inradius"], "margin_area": rec["margin_area"]}


def run_verification(config: VerifyConfig) -> dict:
    """Run the full battery; the summary dict is JSON-ready and stable
    under re-runs with the same config.

    Each plane's summary is taken from its list of trial records: the
    violations in trial order, the near-equality count, the cap status
    counts and the least margins.  Trials take the area bound in closed
    form.  Once per plane, at the trial with the least area margin (the
    earliest on ties), the battery builds the triangle and measures it: a
    bound off by more than MARGIN_SLACK could flip a verdict, and is
    reported, last, as an "area-bound-closed-form" violation."""
    _check_config(config)
    summary: dict = {
        "config": {
            "geometries": list(config.geometries),
            "trials": config.trials,
            "seed": config.seed,
        },
        "geometries": {},
        "violations_total": 0,
    }
    for name in config.geometries:
        g = GEOMETRIES[name]
        records = [run_trial(g, t, config) for t in range(config.trials)]
        violations = [_violation(rec, v) for rec in records for v in rec["violations"]]
        tightest = min(records, key=lambda rec: rec["margin_area"])
        tri = regular_disk_triangle(min(tightest["width"], tightest["r"]), tightest["r"], g)
        if abs(area(tri.region) - tightest["area_bound"]) > MARGIN_SLACK:
            violations.append(_violation(tightest, "area-bound-closed-form"))
        cap_margins = [rec["cap_area_margin"] for rec in records
                       if rec["cap_area_margin"] is not None]
        summary["geometries"][name] = {
            "trials": config.trials,
            "violations": violations,
            "near_equality": sum(rec["near_equality"] for rec in records),
            "cap_status_counts": Counter(rec["cap_status"] for rec in records),
            "min_margin_inradius": min(rec["margin_inradius"] for rec in records),
            "min_margin_area": tightest["margin_area"],
            "min_cap_area_margin": min(cap_margins, default=None),
        }
        summary["violations_total"] += len(violations)
    return summary


# --------------------------------------------------------------------------
# deterministic sweep

def hexagon_margins(
    g: Geometry, w: float, r: float, fractions: Sequence[float]
) -> list[tuple[float, float]]:
    """Area gap between the six-point hull and the triangle, sampled at
    inradius values rho0 + f*(w/2 - rho0).

    The hull of three apexes plus the three antipodal incircle points is
    the interpolating family between the triangle (f=0) and the disk of
    radius w/2 (f=1); its area must stay above the triangle's everywhere
    in between.  Note the family does not keep minimal width w away from
    f=0: its arcs cut slightly inside the disk B(p, rho), so only the
    area comparison is meaningful.  Returns [(rho, margin), ...].
    """
    rho0 = triangle_inradius(w, r, g)
    a_tri = triangle_area(w, r, g)
    out = []
    for f in fractions:
        rho = rho0 + f * (0.5 * w - rho0)
        hexa = regular_disk_hexagon(w, r, rho, g)
        out.append((rho, area(hexa.region) - a_tri))
    return out


HEX_FRACTIONS = tuple(k / 10.0 for k in range(1, 10))


def monotonicity_sweep(
    g: Geometry,
    w_values: Sequence[float],
    r_values: Sequence[float],
) -> dict:
    """Tabulate the triangle across a (w, r) grid and check the calculus.

    Rows carry (geometry, w, r, rho0, area, thickness); violations list
    any break of monotonicity (inradius bound must increase in w and
    decrease in r), any analytic partial that disagrees with a central
    difference, a triangle thickness off its nominal width, or a hexagon
    area margin that is not strictly positive on the inradius grid.
    """
    rows = []
    violations = []
    h = _DIFF_STEP
    grid: dict = {}
    for w in w_values:
        for r in r_values:
            if not (0.0 < w <= r < g.radius_limit):
                continue
            rho0 = triangle_inradius(w, r, g)
            tri = regular_disk_triangle(w, r, g)
            a = area(tri.region)
            wid = thickness(tri.region).value
            grid[(w, r)] = rho0
            row = {
                "geometry": g.name,
                "w": w,
                "r": r,
                "rho0": rho0,
                "area": a,
                "thickness": wid,
            }
            if abs(wid - w) > _TRIANGLE_WIDTH_TOL:
                violations.append(f"triangle width off at w={w} r={r}: {wid}")
            # analytic partials, cross-checked against central differences
            # where the stencil stays inside the domain
            dw, dr = triangle_inradius_partials(w, r, g)
            if h < w and w + h < r - 10.0 * h:
                num_w = (triangle_inradius(w + h, r, g) - triangle_inradius(w - h, r, g)) / (2 * h)
                if abs(num_w - dw) > _PARTIAL_TOL:
                    violations.append(f"w-partial mismatch at w={w} r={r}: {dw} vs {num_w}")
            if w < r - 10.0 * h and r + h < g.radius_limit:
                num_r = (triangle_inradius(w, r + h, g) - triangle_inradius(w, r - h, g)) / (2 * h)
                if abs(num_r - dr) > _PARTIAL_TOL:
                    violations.append(f"r-partial mismatch at w={w} r={r}: {dr} vs {num_r}")
            if dw <= 0:
                violations.append(f"w-partial not positive at w={w} r={r}")
            if dr >= 0 and w < r:
                violations.append(f"r-partial not negative at w={w} r={r}")
            margins = hexagon_margins(g, w, r, HEX_FRACTIONS)
            row["hexagon_min_margin"] = min(m for _, m in margins)
            row["hexagon_margins_increasing"] = all(
                m2 > m1 for (_, m1), (_, m2) in zip(margins, margins[1:]))
            violations.extend(f"hexagon margin not positive at w={w} r={r} rho={rho}: {m}"
                              for rho, m in margins if m <= _HEXAGON_MARGIN_MIN)
            rows.append(row)
    for (w, r), rho0 in grid.items():
        for (w2, r2), rho2 in grid.items():
            if r2 == r and w2 > w and rho2 <= rho0:
                violations.append(f"bound not increasing in w at r={r}")
            if w2 == w and r2 > r and rho2 >= rho0:
                violations.append(f"bound not decreasing in r at w={w}")
    return {"rows": rows, "violations": violations}

