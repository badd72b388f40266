"""Metric definitions: the single source of BENCHMARK.json.

`python3 bench/run.py --write-spec` writes BENCHMARK.json from here, and
the self-tests check that the committed file still matches.
"""

from __future__ import annotations

from tracing import COUNTED, REPLAYED

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 35
GEOMETRY_NAMES = ("euclidean", "hyperbolic", "spherical")

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _per_layer() -> tuple:
    m = [(f"geometry.{fn}.calls_per_op", "count", "lower") for fn in COUNTED]
    m += [(f"geometry.{fn}.ns.{g}", "ns", "lower") for fn in REPLAYED for g in GEOMETRY_NAMES]
    m += [(f"geometry.smallest_enclosing_disk.us.{g}", "us", "lower") for g in GEOMETRY_NAMES]
    m += [("geometry.est_share", "ratio", "lower")]
    m += [
        ("regions.ball_hull.ms", "ms", "lower"),
        ("regions.ball_hull.calls_per_op", "count", "lower"),
        ("regions.ball_hull.vertices_mean", "count", "lower"),
        ("regions.cap_domain.ms", "ms", "lower"),
        ("regions.cap_domain.calls_per_op", "count", "lower"),
    ]
    for fn in ("thickness", "incircle", "area"):
        m += [(f"measure.{fn}.ms", "ms", "lower"), (f"measure.{fn}.calls_per_op", "count", "lower")]
    m += [
        ("measure.area_monte_carlo.ns_per_sample", "ns", "lower"),
        ("measure.area_monte_carlo.hit_ratio", "ratio", "higher"),
        ("measure.area_monte_carlo.calls_per_op", "count", "lower"),
        ("measure.sample_in_disk.ns_per_sample", "ns", "lower"),
        ("measure.sample_in_disk.calls_per_op", "count", "lower"),
    ]
    for fn in ("triangle_inradius", "regular_disk_triangle"):
        m += [(f"extremal.{fn}.us", "us", "lower"), (f"extremal.{fn}.calls_per_op", "count", "lower")]
    for fn in ("run_trial", "check_extremal_bounds", "inscribed_cap_domain"):
        m += [(f"harness.{fn}.ms.{g}", "ms", "lower") for g in GEOMETRY_NAMES]
        m += [(f"harness.{fn}.self_ms", "ms", "lower"), (f"harness.{fn}.calls_per_op", "count", "lower")]
    m += [("harness.cap_ok_ratio", "ratio", "higher")]
    m += [
        ("trace.untraced_op_ms", "ms", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return tuple(m)


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json(workloads) -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
