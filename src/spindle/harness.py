"""Randomized verification of the extremal inequalities.

Each trial draws a few points area-uniformly in a disk of radius r/2,
takes their r-hull, measures width, inradius and area, and checks the two
lower bounds: inradius and area are both minimized, at fixed width, by the
regular disk triangle.  On top of that the harness rebuilds the inscribed
cap domain certificate: a disk-with-caps region sitting inside the hull
whose area separates the hull from the triangle bound.

All randomness is driven by numpy generators seeded per (seed, geometry,
trial), so runs are reproducible across machines.
"""

from __future__ import annotations

import math
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
    turn_angle,
)
from .measure import area, incircle, sample_in_disk, thickness
from .regions import CapDomain, DiskPolygon, _covered, angle_in, ball_hull, cap_domain
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

MARGIN_SLACK = 1e-7   # inequalities may dip this far below zero numerically
NEAR_EQUALITY = 1e-6  # treat margins under this as equality cases
BATTERY_SLACK = 1e-6  # a cap domain's test points may sit this far outside the hull's disks
_WIDTH_OVER_R = 1e-9  # a hull's width may pass r by this much before OUT_OF_RANGE
_APEX_CLEARANCE = 1e-9  # cap apexes at w - rho must clear the incircle radius by more than this
_STRIP_SLACK = 1e-6   # a support strip may fall this far short of the width
_CAP_AREA_SLACK = 1e-9  # a cap domain's area may pass the hull's by this much
_DIFF_STEP = 1e-6     # central-difference step for the triangle calculus checks
_TRIANGLE_WIDTH_TOL = 1e-6  # a regular triangle's measured width may miss w by this much
_HEXAGON_MARGIN_MIN = 1e-9  # a hexagon area margin must pass this to count as positive
_PARTIAL_TOL = 1e-5   # analytic inradius partials may miss central differences by this much


@dataclass(frozen=True)
class VerifyConfig:
    geometries: tuple[str, ...] = ("euclidean", "hyperbolic", "spherical")
    trials: int = 200
    seed: int = 0
    point_counts: tuple[int, ...] = tuple(range(2, 13))


@dataclass
class TrialReport:
    geometry: str
    trial: int
    n_points: int
    r: float
    width: float
    inradius: float
    inradius_bound: float
    area: float
    area_bound: float
    margin_inradius: float
    margin_area: float
    near_equality: bool
    triangle_match: Optional[float]
    cap_status: str
    cap_area_margin: Optional[float]
    violations: tuple[str, ...]


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
    and the distance is taken once, for the winner."""
    g = poly.geometry
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
        if angle_in(turn_angle(arc.center, arc.u0, grad, g), 0.0, arc.extent):
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
    must land inside the hull with area at most the hull's.
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

    # three spread contacts, each with the center of its supporting arc
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

    battery = list(dom.apexes)
    for arc in dom.arcs:
        battery.extend((arc.start, arc.midpoint()))
    contained = _covered(battery, poly.centers, 2.0 * g.vers(r + BATTERY_SLACK), g)
    details = {
        "containment": contained,
        "area_margin": bounds["area"] - area(dom),
        "apex_count": len(apexes),
    }
    return dom, "ok", details


# --------------------------------------------------------------------------
# the randomized run

def run_trial(g: Geometry, trial: int, config: VerifyConfig) -> TrialReport:
    gi = list(GEOMETRIES).index(g.name)
    rng = np.random.default_rng((config.seed, gi, trial))
    counts = config.point_counts
    radii = DEFAULT_RADII[g.name]
    n = counts[trial % len(counts)]
    r = radii[trial % len(radii)]
    poly = sample_disk_polygon(g, n, r, rng)
    bounds = check_extremal_bounds(poly)
    violations = list(bounds["violations"])
    dom, status, details = inscribed_cap_domain(poly, bounds)
    cap_margin = None
    if dom is not None:
        cap_margin = details["area_margin"]
        if not details["containment"]:
            violations.append("cap-not-contained")
        if cap_margin < -_CAP_AREA_SLACK:
            violations.append("cap-area")
    return TrialReport(
        geometry=g.name,
        trial=trial,
        n_points=n,
        r=r,
        width=bounds["width"],
        inradius=bounds["incircle"].radius,
        inradius_bound=bounds["inradius_bound"],
        area=bounds["area"],
        area_bound=bounds["area_bound"],
        margin_inradius=bounds["margin_inradius"],
        margin_area=bounds["margin_area"],
        near_equality=bounds["near_equality"],
        triangle_match=bounds["triangle_match"],
        cap_status=status,
        cap_area_margin=cap_margin,
        violations=tuple(violations),
    )


def area_bound_drift(g: Geometry, rep: TrialReport) -> float:
    """Gap between a trial's closed-form area bound (extremal.triangle_area)
    and the area measured on the regular disk triangle it stands for."""
    tri = regular_disk_triangle(min(rep.width, rep.r), rep.r, g)
    return abs(area(tri.region) - rep.area_bound)


def run_verification(config: VerifyConfig) -> dict:
    """Run the full battery; the summary dict is JSON-ready and stable
    under re-runs with the same config.

    Trials take the area bound in closed form.  Once per plane, at the
    trial with the least area margin, the battery builds the triangle and
    measures it: a bound off by more than MARGIN_SLACK could flip a
    verdict, and is reported as an "area-bound-closed-form" violation."""
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
        if name not in GEOMETRIES:
            raise SpindleError("BAD_RANGE", f"unknown geometry {name!r}")
        g = GEOMETRIES[name]
        violations = []
        near = 0
        cap_counts: dict = {}
        min_mr = math.inf
        min_cap = math.inf
        tightest: Optional[TrialReport] = None
        for t in range(config.trials):
            rep = run_trial(g, t, config)
            if tightest is None or rep.margin_area < tightest.margin_area:
                tightest = rep
            for v in rep.violations:
                violations.append(
                    {
                        "trial": t,
                        "kind": v,
                        "margin_inradius": rep.margin_inradius,
                        "margin_area": rep.margin_area,
                    }
                )
            if rep.near_equality:
                near += 1
            cap_counts[rep.cap_status] = cap_counts.get(rep.cap_status, 0) + 1
            min_mr = min(min_mr, rep.margin_inradius)
            if rep.cap_area_margin is not None:
                min_cap = min(min_cap, rep.cap_area_margin)
        if tightest is not None and area_bound_drift(g, tightest) > MARGIN_SLACK:
            violations.append(
                {
                    "trial": tightest.trial,
                    "kind": "area-bound-closed-form",
                    "margin_inradius": tightest.margin_inradius,
                    "margin_area": tightest.margin_area,
                }
            )
        summary["geometries"][name] = {
            "trials": config.trials,
            "violations": violations,
            "near_equality": near,
            "cap_status_counts": cap_counts,
            "min_margin_inradius": min_mr,
            "min_margin_area": math.inf if tightest is None else tightest.margin_area,
            "min_cap_area_margin": None if math.isinf(min_cap) else min_cap,
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
    check_hexagon: bool = True,
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
            dw, dr = triangle_inradius_partials_checked(w, r, g, h, violations)
            if dw is not None and dw <= 0:
                violations.append(f"w-partial not positive at w={w} r={r}")
            if dr is not None and dr >= 0 and w < r:
                violations.append(f"r-partial not negative at w={w} r={r}")
            if check_hexagon:
                margins = hexagon_margins(g, w, r, HEX_FRACTIONS)
                row["hexagon_min_margin"] = min(m for _, m in margins)
                row["hexagon_margins_increasing"] = all(
                    m2 > m1
                    for (_, m1), (_, m2) in zip(margins, margins[1:])
                )
                for rho, m in margins:
                    if m <= _HEXAGON_MARGIN_MIN:
                        violations.append(
                            f"hexagon margin not positive at w={w} r={r} "
                            f"rho={rho}: {m}"
                        )
            rows.append(row)
    for (w, r), rho0 in grid.items():
        for (w2, r2), rho2 in grid.items():
            if r2 == r and w2 > w and rho2 <= rho0:
                violations.append(f"bound not increasing in w at r={r}")
            if w2 == w and r2 > r and rho2 >= rho0:
                violations.append(f"bound not decreasing in r at w={w}")
    return {"rows": rows, "violations": violations}


def triangle_inradius_partials_checked(
    w: float, r: float, g: Geometry, h: float, violations: list
) -> tuple[Optional[float], Optional[float]]:
    """Analytic partials, cross-checked against central differences when
    the stencil stays inside the domain."""
    dw, dr = triangle_inradius_partials(w, r, g)
    if h < w and w + h < r - 10.0 * h:
        num_w = (triangle_inradius(w + h, r, g) - triangle_inradius(w - h, r, g)) / (2 * h)
        if abs(num_w - dw) > _PARTIAL_TOL:
            violations.append(
                f"w-partial mismatch at w={w} r={r}: {dw} vs {num_w}"
            )
    if w < r - 10.0 * h and r + h < g.radius_limit:
        num_r = (triangle_inradius(w, r + h, g) - triangle_inradius(w, r - h, g)) / (2 * h)
        if abs(num_r - dr) > _PARTIAL_TOL:
            violations.append(
                f"r-partial mismatch at w={w} r={r}: {dr} vs {num_r}"
            )
    return dw, dr
