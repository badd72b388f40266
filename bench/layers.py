"""The traced run: per-layer counts, span times and primitive ns/call.

A traced run executes a fixed batch of a workload's ops three times: once
untraced, then twice traced.  Counts (calls per op and the ratios) come
from the first traced pass and must repeat exactly in the second.  Span
times are means per call over both traced passes plus a fixed probe, a
small `verify` battery and three Monte Carlo calls, so that every wrapped
function is timed on every workload.  The probe also records primitive
arguments, which are replayed untraced for ns/call.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from spindle import extremal, geometry, harness, measure, regions
from spindle.geometry import GEOMETRIES, SpindleError

from spec import GEOMETRY_NAMES
from tracing import COUNTED, SPANNED, TraceError, Tracer
from workloads import RADII, ring_points

# ops in the traced batch: fixed, so counts repeat exactly across runs; 12
# verify ops cover every point count, 66 hull ops one cycle of sizes per
# (geometry, kind) stream, 9 mc_area ops the whole corpus
TRACE_OPS = {"verify": 12, "hull": 66, "mc_area": 9}

# what each workload's ops must call: a zero count here is an error
EXPECTED = {
    "verify": {f"{layer}.{fn}" for layer, fns in SPANNED.items() for fn in fns}
    - {"measure.area_monte_carlo"} | set(COUNTED),
    "hull": {"regions.ball_hull", "measure.thickness", "measure.incircle", "measure.area"}
    | set(COUNTED),
    "mc_area": {"measure.area_monte_carlo", "measure.sample_in_disk",
                "distance", "log_dir", "exp_map"},
}

KEEP_RESULT = frozenset({"regions.ball_hull", "harness.inscribed_cap_domain",
                         "measure.area_monte_carlo"})
PROBE_SEED = 0
PROBE_MC_SAMPLES = 100_000
REPLAY_CALLS = 4096  # calls per timing of one (primitive, geometry)
SED_RING = 24        # ring points whose arc centers feed smallest_enclosing_disk
REPEATS = 7


def _run_batch(workload, inputs, n_ops, tracer, record_failure, stage):
    """Run ops 0..n_ops-1 closed-loop, tracing only the ops themselves;
    returns the total op seconds."""
    total = 0.0
    for i in range(n_ops):
        tracer.on = stage != "untraced"
        t0 = time.perf_counter()
        try:
            out = workload.op(inputs, i)
        except SpindleError as e:
            total += time.perf_counter() - t0
            tracer.on = False
            record_failure(i, f"{stage}: {e}")
            continue
        total += time.perf_counter() - t0
        tracer.on = False
        reason = workload.check(inputs, i, out)
        if reason is not None:
            record_failure(i, f"{stage}: {reason}")
    return total


def _hits(span) -> int:
    region, samples = span.args[0], span.args[1]
    estimate, _ = span.result
    a_bound = measure.disk_area(region.geometry, measure.bounding_disk(region)[1])
    return round(estimate / a_bound * samples)


def _counts(tracer) -> dict:
    """Everything a traced pass counts; two passes must agree exactly."""
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    hulls = [len(s.result.vertices) for s in by_name["regions.ball_hull"]]
    caps = [s.result[1] == "ok" for s in by_name["harness.inscribed_cap_domain"]]
    mc = by_name["measure.area_monte_carlo"]
    calls = Counter({name: len(spans) for name, spans in by_name.items()})
    for (fn, _), c in tracer.calls.items():
        calls[fn] += c
    return {
        "calls": dict(calls),
        "outer": dict(tracer.outer),
        "vertices": sum(hulls),
        "hulls": len(hulls),
        "cap_ok": sum(caps),
        "caps": len(caps),
        "mc_hits": sum(_hits(s) for s in mc),
        "mc_samples": sum(s.args[1] for s in mc),
    }


def _probe(tracer) -> None:
    tracer.capture = tracer.on = True
    try:
        harness.run_verification(harness.VerifyConfig(trials=11, seed=PROBE_SEED))
        for k, g in enumerate(GEOMETRIES.values()):
            tri = extremal.regular_disk_triangle(0.8, 1.0, g).region
            rng = np.random.default_rng((PROBE_SEED, k))
            measure.area_monte_carlo(tri, PROBE_MC_SAMPLES, rng)
    finally:
        tracer.capture = tracer.on = False


def _median_ns_per_call(fn, calls_args, per_timing) -> float:
    reps = math.ceil(per_timing / len(calls_args))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            for a in calls_args:
                fn(*a)
        times.append((time.perf_counter_ns() - t0) / (reps * len(calls_args)))
    return statistics.median(times)


def _replay(replay: dict) -> dict:
    """ns/call of each replayed primitive on its recorded arguments."""
    out = {}
    for (fn, g), calls_args in sorted(replay.items()):
        out[(fn, g)] = _median_ns_per_call(getattr(geometry, fn), calls_args, REPLAY_CALLS)
    return out


def _sed_us() -> dict:
    out = {}
    for name, g in GEOMETRIES.items():
        rng = np.random.default_rng((PROBE_SEED, SED_RING))
        centers = regions.ball_hull(ring_points(g, SED_RING, RADII[1], rng), RADII[1], g).centers
        ns = _median_ns_per_call(geometry.smallest_enclosing_disk, [(centers, g)], 1)
        out[name] = ns / 1e3
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def traced_run(workload, inputs, record_failure) -> tuple[dict, int]:
    """Per-layer metrics of one workload; returns (metrics, ops attempted)."""
    n = TRACE_OPS[workload.name]
    tracer = Tracer(keep_result=KEEP_RESULT)
    untraced_s = _run_batch(workload, inputs, n, tracer, record_failure, "untraced")
    tracer.install()
    try:
        passes, spans, traced_s = [], [], []
        for k in range(2):
            tracer.reset()
            traced_s.append(_run_batch(workload, inputs, n, tracer, record_failure, f"traced{k}"))
            spans += tracer.spans
            passes.append(_counts(tracer))
        if passes[0] != passes[1]:
            raise TraceError("two traced passes over the same ops counted differently")
        tracer.reset()
        _probe(tracer)
        spans += tracer.spans
        replay = dict(tracer.replay)
    finally:
        tracer.uninstall()
    counts = passes[0]
    missing = sorted(f for f in EXPECTED[workload.name] if not counts["calls"].get(f))
    if missing:
        raise TraceError(f"{workload.name} ops made no calls to {', '.join(missing)}")

    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    for layer, fns in SPANNED.items():
        for fn in fns:
            if not by_name[f"{layer}.{fn}"]:
                raise TraceError(f"probe made no calls to {layer}.{fn}")

    ns = _replay(replay)
    op_ms = 1e3 * untraced_s / n
    traced_ms = 1e3 * _mean(traced_s) / n

    def per_op(name):
        return counts["calls"].get(name, 0) / n

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    def mean_ns(name, geometry_name=None, attr="ns"):
        sel = [s for s in by_name[name] if geometry_name is None or s.geometry == geometry_name]
        return _mean(getattr(s, attr) for s in sel)

    m = {}
    for fn in COUNTED:
        m[f"geometry.{fn}.calls_per_op"] = per_op(fn)
    for (fn, g), v in ns.items():
        m[f"geometry.{fn}.ns.{g}"] = v
    for g, v in _sed_us().items():
        m[f"geometry.smallest_enclosing_disk.us.{g}"] = v
    kernel_ns = sum(c * ns[key] for key, c in counts["outer"].items())
    m["geometry.est_share"] = kernel_ns / n / (op_ms * 1e6)
    for name in ("regions.ball_hull", "regions.cap_domain", "measure.thickness",
                 "measure.incircle", "measure.area"):
        m[f"{name}.ms"] = mean_ns(name) / 1e6
        m[f"{name}.calls_per_op"] = per_op(name)
    m["regions.ball_hull.vertices_mean"] = ratio("vertices", "hulls")
    for name, at in (("measure.area_monte_carlo", 1), ("measure.sample_in_disk", 2)):
        sel = by_name[name]
        m[f"{name}.ns_per_sample"] = sum(s.ns for s in sel) / sum(s.args[at] for s in sel)
        m[f"{name}.calls_per_op"] = per_op(name)
    m["measure.area_monte_carlo.hit_ratio"] = ratio("mc_hits", "mc_samples")
    for name in ("extremal.triangle_inradius", "extremal.regular_disk_triangle"):
        m[f"{name}.us"] = mean_ns(name) / 1e3
        m[f"{name}.calls_per_op"] = per_op(name)
    for name in ("harness.run_trial", "harness.check_extremal_bounds",
                 "harness.inscribed_cap_domain"):
        for g in GEOMETRY_NAMES:
            m[f"{name}.ms.{g}"] = mean_ns(name, g) / 1e6
        m[f"{name}.self_ms"] = mean_ns(name, attr="self_ns") / 1e6
        m[f"{name}.calls_per_op"] = per_op(name)
    m["harness.cap_ok_ratio"] = ratio("cap_ok", "caps")
    m["trace.untraced_op_ms"] = op_ms
    m["trace.overhead_ms"] = traced_ms - op_ms
    m["trace.overhead_share"] = (traced_ms - op_ms) / op_ms
    return m, 3 * n
