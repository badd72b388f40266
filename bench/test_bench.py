"""Self-tests of the benchmark's checks, failure handling and trace guards.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import layers
import run
import spec
import workloads
from spindle import measure, regions
from spindle.geometry import GEOMETRIES, SpindleError
from speed import Speedometer
from tracing import TraceError, Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def hull_pool():
    return workloads.hull_inputs(7)[:6]  # three uniform sets, then three rings


@pytest.fixture(scope="module")
def mc_inputs():
    return workloads.mc_inputs(0)


# -- checks on known-good and known-bad outputs -----------------------------

def test_hull_check_passes_real_outputs(hull_pool):
    for i in range(len(hull_pool)):
        assert workloads.hull_check(hull_pool, i, workloads.hull_op(hull_pool, i)) is None


def test_rings_are_all_vertices(hull_pool):
    for i in (3, 4, 5):
        poly = workloads.hull_op(hull_pool, i)[0]
        assert len(poly.vertices) == len(hull_pool[i].points)


def test_hull_check_fails_hull_missing_a_point(hull_pool):
    x = hull_pool[0]
    poly, wit, inc, a = workloads.hull_op(hull_pool, 0)
    dropped = poly.vertices[0]
    smaller = regions.ball_hull([p for p in x.points if p != dropped], x.r, GEOMETRIES[x.geometry])
    reason = workloads.hull_check(hull_pool, 0, (smaller, wit, inc, a))
    assert reason == "an input point lies outside the hull"


def test_hull_check_fails_margins_below_tolerance(hull_pool):
    x = hull_pool[1]
    g = GEOMETRIES[x.geometry]
    poly, wit, inc, a = workloads.hull_op(hull_pool, 1)
    w = min(wit.value, x.r)
    rho_bound = workloads.extremal.triangle_inradius(w, x.r, g)
    low = dataclasses.replace(inc, radius=rho_bound - 2e-7)
    assert "incircle" in workloads.hull_check(hull_pool, 1, (poly, wit, low, a))
    a_bound = measure.area(workloads.extremal.regular_disk_triangle(w, x.r, g).region)
    assert "area" in workloads.hull_check(hull_pool, 1, (poly, wit, inc, a_bound - 2e-7))
    wide = dataclasses.replace(inc, radius=0.5 * wit.value + 1e-6)
    assert "half the width" in workloads.hull_check(hull_pool, 1, (poly, wit, wide, a))


def test_mc_check_gate(mc_inputs):
    _, corpus = mc_inputs
    for i, x in enumerate(corpus):
        se = 1e-3 * x.exact
        assert workloads.mc_check(mc_inputs, i, (x.exact + 2.0 * se, se)) is None
        assert workloads.mc_check(mc_inputs, i, (x.exact - 4.0 * se, se)) is not None


def test_mc_corpus_estimates_pass(mc_inputs):
    # the fixed streams give estimates inside the 3-se gate on every region
    for i in range(len(mc_inputs[1])):
        assert workloads.mc_check(mc_inputs, i, workloads.mc_op(mc_inputs, i)) is None


def test_verify_check_fails_summary_with_a_violation():
    base = workloads.verify_inputs(3)
    summary = workloads.verify_op(base, 1)
    assert workloads.verify_check(base, 1, summary) is None
    bad = json.loads(json.dumps(summary))
    bad["geometries"]["euclidean"]["violations"].append({"trial": 0, "kind": "area-bound"})
    bad["violations_total"] = 1
    assert workloads.verify_check(base, 1, bad) == "violations_total = 1"


def test_verify_check_compares_rerun_of_first_op():
    base = workloads.verify_inputs(3)
    summary = workloads.verify_op(base, 0)
    assert workloads.verify_check(base, 0, summary) is None
    summary["geometries"]["spherical"]["min_margin_area"] += 1e-15
    assert workloads.verify_check(base, 0, summary) == "re-run summary is not byte-identical"


# -- failure isolation -------------------------------------------------------

def _flaky_op(_inputs, i):
    if i == 1:
        raise SpindleError("DEGENERATE", "injected")
    return i


def _flaky_check(_inputs, i, out):
    return "injected bad output" if i == 2 else None


FLAKY = Workload("flaky", "test double", lambda seed: None, _flaky_op, _flaky_check, None)


def test_failed_ops_are_recorded_and_the_loop_continues():
    failures = run.Failures("flaky", 5)
    times = run.timed_loop(FLAKY, None, 0.05, failures, Speedometer("interpreter"))
    assert len(times) > 3
    assert failures.records == [
        {"workload": "flaky", "seed": 5, "op": 1, "reason": "DEGENERATE: injected"},
        {"workload": "flaky", "seed": 5, "op": 2, "reason": "injected bad output"},
    ]
    assert run.loop_metrics(times)["ops_per_s"] > 0


# -- trace guards --------------------------------------------------------------

def test_install_fails_on_a_missing_function(monkeypatch):
    monkeypatch.delattr(measure, "incircle")
    before = regions.ball_hull
    with pytest.raises(TraceError, match="spindle.measure.incircle is missing"):
        Tracer().install()
    assert regions.ball_hull is before  # nothing was patched


def test_install_and_uninstall_restore_every_binding():
    from spindle import harness

    before = (harness.thickness, measure.thickness, regions.distance)
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.thickness is measure.thickness is not before[1]
        assert regions.distance is not before[2]
    finally:
        tracer.uninstall()
    assert (harness.thickness, measure.thickness, regions.distance) == before


def test_zero_calls_to_an_expected_function_fail(monkeypatch):
    idle = Workload("mc_area", "test double", lambda seed: None, lambda inputs, i: i,
                    lambda inputs, i, out: None, None)
    with pytest.raises(TraceError, match="made no calls to"):
        layers.traced_run(idle, None, run.Failures("mc_area", 0))


def test_passes_that_count_differently_fail(monkeypatch):
    invocations = []

    def drifting_op(region, i):
        invocations.append(i)
        for _ in invocations:  # one more area() call on every pass
            measure.area(region)

    drifting = Workload("mc_area", "test double", lambda seed: None, drifting_op,
                        lambda inputs, i, out: None, None)
    monkeypatch.setitem(layers.TRACE_OPS, "mc_area", 1)
    region = workloads.mc_corpus()[0].region
    with pytest.raises(TraceError, match="counted differently"):
        layers.traced_run(drifting, region, run.Failures("mc_area", 0))


def test_traced_counts_repeat_exactly(monkeypatch, hull_pool):
    monkeypatch.setitem(layers.TRACE_OPS, "hull", 6)
    hull = WORKLOADS["hull"]
    first, _ = layers.traced_run(hull, hull_pool, run.Failures("hull", 7))
    second, _ = layers.traced_run(hull, hull_pool, run.Failures("hull", 7))
    counts = [k for k in first if k.endswith(("calls_per_op", "_mean", "_ratio"))]
    assert len(counts) == 22
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["regions.ball_hull.calls_per_op"] == 1.0
    assert first["measure.incircle.calls_per_op"] == 1.0


# -- the spec ------------------------------------------------------------------

def test_benchmark_json_matches_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json(WORKLOADS.values())
