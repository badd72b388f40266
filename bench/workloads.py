"""The benchmark's three workloads: inputs, one op, and the op's check.

Each workload is a closed loop over `op(inputs, i)` for i = 0, 1, 2, ...
`make_inputs(seed)` builds everything an op needs from the workload seed,
`op` is the timed call into spindle, and `check` inspects one op's output
and returns None when it is correct, or a one-line reason when it is not.
Checks run outside the timed region and outside tracing.  `warmup(inputs)`
runs one op whose cost does not depend on the seed, so that set-up time
compares across seeds.  `speed_slice` names the machine speed probe whose
kind of work matches the op's (see speed.py).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

# ops call through module attributes, so that the tracer's wrappers apply
from spindle import extremal, harness, measure, regions
from spindle.geometry import GEOMETRIES, Circle, Point, SpindleError, from_polar, origin

GEOMS = tuple(GEOMETRIES.values())
RADII = (0.7, 1.0, 1.4)  # valid arc radii in all three planes (sphere: < pi/2)

# verify: 11 trials per geometry walk every point count 2..12 once per op
VERIFY_TRIALS = 11

# hull: point counts 16..48; op time grows like n^4 on rings, so every
# (geometry, kind) stream cycles through the sizes with a short period, in
# an order whose every prefix mixes small and large sets, and any run of a
# few seconds sees the same size mix
HULL_SIZES = (16, 29, 42, 19, 32, 45, 22, 35, 48, 26, 38)
RING_RADIUS = 0.49      # ring radius as a share of r: inside B(o, r/2)
RING_RADIAL_JITTER = 2e-5   # relative; small enough that every point is a vertex
RING_ANGULAR_JITTER = 0.25  # share of the angular spacing
HULL_POOL = 4 * 6 * len(HULL_SIZES) * len(RADII)  # ops before inputs repeat

# mc_area: one op is one 1e6-sample estimate over a fixed corpus
MC_SAMPLES = 1_000_000
MC_CORPUS_SEED = 2026  # the stream convention of acceptance criterion 8
MC_GATE_SE = 3.0

CONTAIN_TOL = 1e-7
MARGIN_TOL = 1e-7
HALF_WIDTH_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], Any]
    op: Callable[[Any, int], Any]
    check: Callable[[Any, int, Any], Optional[str]]
    warmup: Callable[[Any], Any]
    speed_slice: str = "interpreter"


# --------------------------------------------------------------------------
# verify: the paper's randomized battery

def verify_inputs(seed: int) -> int:
    # run_verification builds its own corpus from the config seed
    return seed * 1_000_000


def verify_op(base: int, i: int) -> dict:
    return harness.run_verification(harness.VerifyConfig(trials=VERIFY_TRIALS, seed=base + i))


def verify_warmup(base: int) -> dict:
    return verify_op(0, 0)


def verify_check(base: int, i: int, summary: dict) -> Optional[str]:
    if summary["violations_total"] != 0:
        return f"violations_total = {summary['violations_total']}"
    if i == 0:
        again = verify_op(base, i)
        if json.dumps(again, sort_keys=True) != json.dumps(summary, sort_keys=True):
            return "re-run summary is not byte-identical"
    return None


# --------------------------------------------------------------------------
# hull: r-hull queries where h is small (uniform) or h = n (rings)

@dataclass(frozen=True)
class HullInput:
    geometry: str
    r: float
    points: tuple[Point, ...]


def _uniform_points(g, n: int, r: float, rng: np.random.Generator) -> list[Point]:
    return [Point(*row) for row in measure.sample_in_disk(origin(g), 0.5 * r, n, rng, g)]


def ring_points(g, n: int, r: float, rng: np.random.Generator) -> list[Point]:
    step = 2.0 * math.pi / n
    theta = (
        rng.uniform(0.0, 2.0 * math.pi)
        + step * np.arange(n)
        + step * RING_ANGULAR_JITTER * rng.uniform(-1.0, 1.0, n)
    ) % (2.0 * math.pi)
    rad = RING_RADIUS * r * (1.0 + RING_RADIAL_JITTER * rng.uniform(-1.0, 1.0, n))
    return [from_polar(g, float(t), float(s)) for t, s in zip(theta, rad)]


def hull_input(seed: int, i: int) -> HullInput:
    # op i: geometry i % 3, kind (i // 3) % 2, then the stream's j-th size
    g = GEOMS[i % 3]
    kind = ("uniform", "ring")[(i // 3) % 2]
    j = i // 6
    n = HULL_SIZES[j % len(HULL_SIZES)]
    r = RADII[j % len(RADII)]
    rng = np.random.default_rng((seed, i))
    make = _uniform_points if kind == "uniform" else ring_points
    return HullInput(g.name, r, tuple(make(g, n, r, rng)))


def hull_inputs(seed: int) -> list[HullInput]:
    return [hull_input(seed, i) for i in range(HULL_POOL)]


def hull_op(pool: list[HullInput], i: int):
    x = pool[i % len(pool)]
    poly = regions.ball_hull(x.points, x.r, GEOMETRIES[x.geometry])
    return poly, measure.thickness(poly), measure.incircle(poly), measure.area(poly)


def hull_warmup(pool: list[HullInput]):
    return hull_op(pool, 0)  # always a 16-point uniform Euclidean set


def hull_check(pool: list[HullInput], i: int, out) -> Optional[str]:
    x = pool[i % len(pool)]
    g = GEOMETRIES[x.geometry]
    poly, wit, inc, a = out
    if not all(poly.contains(p, tol=CONTAIN_TOL) for p in x.points):
        return "an input point lies outside the hull"
    w = min(wit.value, x.r)
    if inc.radius < extremal.triangle_inradius(w, x.r, g) - MARGIN_TOL:
        return "incircle radius undercuts the triangle bound"
    if a < measure.area(extremal.regular_disk_triangle(w, x.r, g).region) - MARGIN_TOL:
        return "area undercuts the triangle bound"
    if inc.radius > 0.5 * wit.value + HALF_WIDTH_TOL:
        return "incircle radius exceeds half the width"
    return None


# --------------------------------------------------------------------------
# mc_area: Monte Carlo area over numpy arrays

@dataclass(frozen=True)
class McRegion:
    label: str
    region: Any
    exact: float


def _cap_domain(g, rng: np.random.Generator):
    # three caps about 2pi/3 apart with apexes close enough to the disk
    # that their footprints cannot overlap
    r = 1.0
    p = origin(g)
    while True:
        rho = r * rng.uniform(0.2, 0.35)
        base = rng.uniform(0.0, 2.0 * math.pi)
        apexes = [
            from_polar(g, (base + 2.0 * math.pi * k / 3.0 + rng.uniform(-0.2, 0.2)) % (2.0 * math.pi),
                       rho * rng.uniform(1.15, 1.5))
            for k in range(3)
        ]
        try:
            return regions.cap_domain(Circle(p, rho), apexes, r, g)
        except SpindleError:
            continue


def mc_corpus() -> list[McRegion]:
    """Triangle, sampled hull and three-cap domain per geometry.

    The corpus and each region's sample stream are fixed, as in acceptance
    criterion 8: a 3-se gate on fresh streams would fail 0.27% of correct
    estimates by chance, so every op on a region repeats one checked
    estimate and the run seed only rotates the order of the regions.
    """
    rng = np.random.default_rng(MC_CORPUS_SEED)
    out = []
    for g in GEOMS:
        w, r = rng.uniform(0.5, 0.9), RADII[1]
        tri = extremal.regular_disk_triangle(w, r, g).region
        pts = _uniform_points(g, 8, r, rng)
        for label, region in (
            ("triangle", tri),
            ("hull", regions.ball_hull(pts, r, g)),
            ("caps", _cap_domain(g, rng)),
        ):
            out.append(McRegion(f"{g.name}/{label}", region, measure.area(region)))
    return out


def mc_inputs(seed: int) -> tuple[int, list[McRegion]]:
    return seed, mc_corpus()


def _mc_region(inputs, i: int) -> tuple[int, McRegion]:
    seed, corpus = inputs
    k = (seed + i) % len(corpus)
    return k, corpus[k]


def mc_op(inputs, i: int) -> tuple[float, float]:
    k, x = _mc_region(inputs, i)
    rng = np.random.default_rng((MC_CORPUS_SEED, k))
    return measure.area_monte_carlo(x.region, MC_SAMPLES, rng)


def mc_warmup(inputs):
    return mc_op(inputs, -inputs[0])  # always the first region of the corpus


def mc_check(inputs, i: int, out: tuple[float, float]) -> Optional[str]:
    _, x = _mc_region(inputs, i)
    est, se = out
    if not se > 0.0:
        return f"{x.label}: standard error {se} is not positive"
    if abs(est - x.exact) > MC_GATE_SE * se:
        return f"{x.label}: estimate {est} is {abs(est - x.exact) / se:.2f} se from {x.exact}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "the paper's battery: run_verification over all three planes, "
            "small hulls (n = 2..12) through every trial stage",
            verify_inputs, verify_op, verify_check, verify_warmup,
        ),
        Workload(
            "hull",
            "r-hull queries, n = 16..48: uniform sets (h << n, gift-wrap bound) "
            "and rings (h = n, incircle and width bound); no harness",
            hull_inputs, hull_op, hull_check, hull_warmup,
        ),
        Workload(
            "mc_area",
            "1e6-sample Monte Carlo area over numpy arrays; almost no scalar "
            "kernel calls, the control for kernel changes",
            mc_inputs, mc_op, mc_check, mc_warmup, "array",
        ),
    )
}
