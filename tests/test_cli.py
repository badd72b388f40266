"""Command-line round trips, exit codes, determinism, rendering."""

import json
import math
import os
import xml.etree.ElementTree as ET

import pytest

from oracles import tangent_from_angle
from spindle.cli import main
from spindle.geometry import GEOMETRIES, embed, exp_map, from_polar
from spindle.regions import ball_hull, save_region


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(line):
    out = {}
    for token in line.split():
        if "=" in token:
            k, v = token.split("=", 1)
            out[k] = v
    return out


def test_triangle_writes_rho0_record(tmp_path, capsys):
    out = os.fspath(tmp_path / "t.json")
    code, stdout, _ = run_cli(
        capsys, "triangle", "--geom", "euclidean", "--w", "1", "--r", "2", "--out", out
    )
    assert code == 0
    rec = json.loads(open(out).read())
    assert rec["type"] == "disk_polygon"
    assert rec["w"] == 1.0
    assert rec["rho0"] == pytest.approx(0.5 * (3.0 - math.sqrt(5.0)), abs=1e-12)
    assert len(rec["incenter"]) == 3


def test_triangle_measure_round_trip(tmp_path, capsys):
    # (w, rho0, area) survive the file hop within 1e-9
    out = os.fspath(tmp_path / "t.json")
    code, stdout, _ = run_cli(
        capsys, "triangle", "--geom", "hyperbolic", "--w", "0.8", "--r", "1.2",
        "--out", out,
    )
    assert code == 0
    made = parse_kv(stdout.splitlines()[0])
    code, stdout, _ = run_cli(capsys, "measure", "--in", out)
    assert code == 0
    lines = stdout.splitlines()
    measured = parse_kv(lines[0])
    width_line = parse_kv(lines[1])
    inradius_line = parse_kv(lines[2])
    assert float(measured["area"]) == pytest.approx(float(made["area"]), abs=1e-9)
    assert float(width_line["width"]) == pytest.approx(0.8, abs=1e-9)
    rec = json.loads(open(out).read())
    assert float(inradius_line["inradius"]) == pytest.approx(rec["rho0"], abs=1e-9)


def test_triangle_geom_all_prints_three_rows(capsys):
    code, stdout, _ = run_cli(capsys, "triangle", "--geom", "all", "--w", "0.7", "--r", "1.1")
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 3
    assert {parse_kv(l)["geometry"] for l in lines} == {
        "euclidean", "hyperbolic", "spherical"
    }


def test_triangle_rejects_out_with_all(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "triangle", "--geom", "all", "--w", "0.7", "--r", "1.1",
        "--out", os.fspath(tmp_path / "x.json"),
    )
    assert code == 2
    assert "error" in err


def test_hexagon_flag_builds_six_arc_body(tmp_path, capsys):
    out = os.fspath(tmp_path / "q.json")
    code, stdout, _ = run_cli(
        capsys, "triangle", "--geom", "euclidean", "--w", "1", "--r", "2",
        "--rho", "0.45", "--out", out,
    )
    assert code == 0
    rec = json.loads(open(out).read())
    assert rec["rho"] == 0.45
    assert len(rec["vertices"]) == 6


def test_hull_and_measure(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[0, 0], [0.5, 0], [0.2, 0.4], [0.25, 0.1]]}))
    out = os.fspath(tmp_path / "hull.json")
    code, stdout, _ = run_cli(
        capsys, "hull", "--geom", "euclidean", "--r", "1", "--in", os.fspath(pts),
        "--out", out,
    )
    assert code == 0
    info = parse_kv(stdout.splitlines()[0])
    assert info["points"] == "4"
    assert info["vertices"] == "3"  # the interior point drops out
    code, stdout, _ = run_cli(capsys, "measure", "--in", out)
    assert code == 0
    assert parse_kv(stdout.splitlines()[0])["type"] == "disk_polygon"


def test_hull_out_is_the_saved_region(tmp_path, capsys):
    # one JSON writer: the CLI's --out file and save_region's are the same bytes
    raw = [[0, 0], [0.5, 0], [0.2, 0.4], [0.25, 0.1]]
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": raw}))
    out = tmp_path / "hull.json"
    run_cli(capsys, "hull", "--r", "1", "--in", os.fspath(pts), "--out", os.fspath(out))
    g = GEOMETRIES["euclidean"]
    saved = tmp_path / "saved.json"
    save_region(ball_hull([embed(g, x, y) for x, y in raw], 1.0, g), os.fspath(saved))
    assert out.read_bytes() == saved.read_bytes()
    assert out.read_text().endswith("}\n") and '\n  "centers"' in out.read_text()


def test_hull_of_points_on_a_circle_of_radius_r_is_that_disk(tmp_path, capsys):
    # the points fit one radius-r disk, so the stored hull is that full disk,
    # with no vertices, and it measures width 2r
    r = 0.8
    for name, g in GEOMETRIES.items():
        c = from_polar(g, 0.3, 0.2)
        ring = [exp_map(c, tangent_from_angle(c, 0.4 + 2.0 * math.pi * k / 5, g), r, g)
                for k in range(5)]
        pts = tmp_path / f"ring_{name}.json"
        pts.write_text(json.dumps({"points": [[p.x, p.y] for p in ring]}))
        out = os.fspath(tmp_path / f"disk_{name}.json")
        code, stdout, _ = run_cli(capsys, "hull", "--geom", name, "--r", str(r),
                                  "--in", os.fspath(pts), "--out", out)
        assert code == 0
        assert parse_kv(stdout.splitlines()[0])["vertices"] == "0"
        rec = json.loads(open(out).read())
        assert rec["vertices"] == [] and len(rec["centers"]) == 1
        code, stdout, _ = run_cli(capsys, "measure", "--in", out)
        assert code == 0
        assert float(parse_kv(stdout.splitlines()[1])["width"]) == 2.0 * r


def test_measure_refuses_a_record_with_clockwise_arcs(tmp_path, capsys):
    # the vertex cycle of a stored hull reversed, each center moved along
    # with its arc: every arc runs clockwise, and the record is refused
    # rather than measured with its arcs flipped past pi
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[0, 0], [0.5, 0], [0.5, 0.5], [0, 0.5]]}))
    out = tmp_path / "hull.json"
    code, _, _ = run_cli(capsys, "hull", "--r", "1", "--in", os.fspath(pts),
                         "--out", os.fspath(out))
    assert code == 0
    rec = json.loads(out.read_text())
    n = len(rec["vertices"])
    assert n == 4
    rec["centers"] = [rec["centers"][(n - 2 - i) % n] for i in range(n)]
    rec["vertices"] = rec["vertices"][::-1]
    out.write_text(json.dumps(rec))
    code, stdout, err = run_cli(capsys, "measure", "--in", os.fspath(out))
    assert code == 2
    assert "MALFORMED_BOUNDARY" in err and "area=" not in stdout


def test_measure_monte_carlo_and_tolerance(tmp_path, capsys):
    out = os.fspath(tmp_path / "t.json")
    run_cli(capsys, "triangle", "--geom", "euclidean", "--w", "1", "--r", "1", "--out", out)
    code, stdout, _ = run_cli(
        capsys, "measure", "--in", out, "--n", "50000", "--seed", "9"
    )
    assert code == 0
    mc = parse_kv(stdout.splitlines()[-1])
    assert float(mc["mc_se"]) > 0.0
    # an absurdly tight tolerance must flip the exit code to 1
    code, stdout, _ = run_cli(
        capsys, "measure", "--in", out, "--n", "1000", "--seed", "9",
        "--tolerance", "1e-15",
    )
    assert code == 1


def test_measure_sample_counts_below_one_are_range_errors(tmp_path, capsys):
    # --n 0 is refused as --n -1 is, not read as "no Monte Carlo check"
    out = os.fspath(tmp_path / "t.json")
    run_cli(capsys, "triangle", "--geom", "euclidean", "--w", "1", "--r", "1", "--out", out)
    for n in ("0", "-1"):
        code, stdout, err = run_cli(capsys, "measure", "--in", out, "--n", n)
        assert code == 2, n
        assert "BAD_RANGE" in err and "mc_area" not in stdout


def test_verify_deterministic_and_scriptable(tmp_path, capsys):
    out1 = os.fspath(tmp_path / "v1.json")
    out2 = os.fspath(tmp_path / "v2.json")
    code1, stdout1, _ = run_cli(
        capsys, "verify", "--geom", "all", "--trials", "40", "--seed", "42",
        "--out", out1,
    )
    code2, stdout2, _ = run_cli(
        capsys, "verify", "--geom", "all", "--trials", "40", "--seed", "42",
        "--out", out2,
    )
    assert code1 == code2 == 0
    assert stdout1 == stdout2
    assert open(out1, "rb").read() == open(out2, "rb").read()
    summary = json.loads(open(out1).read())
    assert summary["violations_total"] == 0


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_out_is_strict_json(tmp_path, capsys):
    out = os.fspath(tmp_path / "v.json")
    code, _, _ = run_cli(capsys, "verify", "--geom", "all", "--trials", "5", "--out", out)
    assert code == 0
    with open(out) as f:
        summary = json.load(f, parse_constant=_refuse_constant)
    assert summary["violations_total"] == 0


def test_verify_refuses_an_empty_battery(tmp_path, capsys):
    out = tmp_path / "v.json"
    for trials in ("0", "-3"):
        code, _, err = run_cli(capsys, "verify", "--geom", "euclidean", "--trials", trials,
                               "--out", os.fspath(out))
        assert code == 2
        assert "BAD_RANGE" in err and "trials" in err
    assert not out.exists()


def test_negative_seeds_exit_2(tmp_path, capsys):
    rec = os.fspath(tmp_path / "t.json")
    run_cli(capsys, "triangle", "--w", "0.8", "--r", "1.2", "--out", rec)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    for argv in (("verify", "--geom", "euclidean", "--trials", "2", "--seed", "-1"),
                 ("measure", "--in", rec, "--n", "1000", "--seed", "-1"),
                 ("measure", "--in", rec, "--n", "1000", "--config", os.fspath(cfg))):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "BAD_RANGE" in err and "seed" in err and "-1" in err
        assert "mc_area" not in stdout


def test_hull_past_the_float_range_exits_2(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1]]}))
    code, _, err = run_cli(capsys, "hull", "--geom", "hyperbolic", "--r", "720",
                           "--in", os.fspath(pts))
    assert code == 2
    assert "BAD_RANGE" in err and "r=720" in err


def test_sweep_csv_format_and_monotone_area(tmp_path, capsys):
    out = os.fspath(tmp_path / "sweep.csv")
    code, stdout, _ = run_cli(
        capsys, "sweep", "--geom", "euclidean", "--w", "1",
        "--grid", "1:2:5", "--out", out,
    )
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "geometry,w,r,rho0,area,thickness"
    assert stdout.strip().splitlines() == lines
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 5
    areas = [float(r[4]) for r in rows]
    assert all(a > b for a, b in zip(areas, areas[1:]))
    # the file holds full shortest round-trip precision
    assert float(rows[0][3]) == pytest.approx(1.0 - 1.0 / math.sqrt(3.0), abs=1e-15)


def test_triangle_thin_body_limit(capsys):
    # huge arc radius drives the body toward width/3 inradius and
    # area width^2/sqrt(3)
    code, stdout, _ = run_cli(
        capsys, "triangle", "--geom", "euclidean", "--w", "1", "--r", "1e6"
    )
    assert code == 0
    info = parse_kv(stdout.splitlines()[0])
    assert float(info["rho0"]) == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert float(info["area"]) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-4)


def test_sweep_usage_errors(capsys):
    code, _, err = run_cli(capsys, "sweep", "--geom", "euclidean")
    assert code == 2
    code, _, err = run_cli(capsys, "sweep", "--geom", "euclidean", "--grid", "1:2:3:4")
    assert code == 2
    code, _, err = run_cli(
        capsys, "sweep", "--geom", "euclidean", "--grid", "1:2:3"
    )
    assert code == 2  # single grid without --w


def test_render_svg_well_formed(tmp_path, capsys):
    rec = os.fspath(tmp_path / "t.json")
    svg1 = os.fspath(tmp_path / "a.svg")
    svg2 = os.fspath(tmp_path / "b.svg")
    run_cli(capsys, "triangle", "--geom", "spherical", "--w", "0.8", "--r", "1.2",
            "--out", rec)
    code, _, _ = run_cli(
        capsys, "render", "--in", rec, "--svg", svg1,
        "--overlay", "incircle", "--overlay", "width",
    )
    assert code == 0
    root = ET.parse(svg1).getroot()
    assert root.tag.endswith("svg")
    text = open(svg1).read()
    assert "nan" not in text and "inf" not in text
    # identical invocation, identical bytes
    code, _, _ = run_cli(
        capsys, "render", "--in", rec, "--svg", svg2,
        "--overlay", "incircle", "--overlay", "width",
    )
    assert open(svg1, "rb").read() == open(svg2, "rb").read()


def test_triangle_svg_direct(tmp_path, capsys):
    svg = os.fspath(tmp_path / "t.svg")
    code, _, _ = run_cli(
        capsys, "triangle", "--geom", "euclidean", "--w", "1", "--r", "1",
        "--svg", svg,
    )
    assert code == 0
    ET.parse(svg)  # raises on malformed XML


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"w": 1.0, "r": 2.0, "geom": "euclidean"}))
    code, stdout, _ = run_cli(
        capsys, "triangle", "--geom", "spherical", "--w", "0.5", "--r", "0.9",
        "--config", os.fspath(cfg),
    )
    assert code == 0
    info = parse_kv(stdout.splitlines()[0])
    assert info["geometry"] == "euclidean"
    assert float(info["rho0"]) == pytest.approx(0.5 * (3.0 - math.sqrt(5.0)), abs=1e-9)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wobble": 3}))
    code, _, err = run_cli(
        capsys, "triangle", "--geom", "euclidean", "--w", "1", "--r", "2",
        "--config", os.fspath(cfg),
    )
    assert code == 2
    assert "wobble" in err


def test_config_values_take_the_flag_types(tmp_path, capsys):
    # a JSON string converts as the flag's text would; 5.5 is no --trials
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": "2", "seed": 3}))
    code, stdout, _ = run_cli(capsys, "verify", "--geom", "euclidean", "--config", os.fspath(cfg))
    assert code == 0
    assert parse_kv(stdout.splitlines()[0])["trials"] == "2"
    for bad in ("five", 5.5, True, [2]):
        cfg.write_text(json.dumps({"trials": bad}))
        code, _, err = run_cli(capsys, "verify", "--geom", "euclidean", "--config", os.fspath(cfg))
        assert code == 2
        assert "USAGE" in err and "'trials'" in err


def test_triangle_past_the_float_range_exits_2(capsys):
    for rho in ((), ("--rho", "0.45")):
        code, _, err = run_cli(capsys, "triangle", "--geom", "hyperbolic", "--w", "1",
                               "--r", "720", *rho)
        assert code == 2
        assert "BAD_RANGE" in err and "r=720" in err


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "triangle", "--geom", "nowhere", "--w", "1", "--r", "2")
    assert code == 2
    # range errors surface the offending parameter through the same path
    code, _, err = run_cli(capsys, "triangle", "--geom", "euclidean", "--w", "3", "--r", "2")
    assert code == 2
    missing = os.fspath(tmp_path / "nope.json")
    code, _, err = run_cli(capsys, "measure", "--in", missing)
    assert code == 2
    assert "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "measure", "--in", os.fspath(bad))
    assert code == 2


def test_region_records_that_are_not_objects_exit_2(tmp_path, capsys):
    rec = tmp_path / "list.json"
    rec.write_text("[1, 2]")
    svg = os.fspath(tmp_path / "out.svg")
    for argv in (("measure", "--in", os.fspath(rec)), ("render", "--in", os.fspath(rec), "--svg", svg)):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "MALFORMED_BOUNDARY" in err and "Traceback" not in err


def test_directories_given_as_files_exit_2(tmp_path, capsys):
    rec = os.fspath(tmp_path / "t.json")
    run_cli(capsys, "triangle", "--w", "0.8", "--r", "1.2", "--out", rec)
    folder = os.fspath(tmp_path)
    for argv in (("measure", "--in", folder),
                 ("triangle", "--w", "0.8", "--r", "1.2", "--out", folder),
                 ("measure", "--in", rec, "--config", folder)):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and folder in err
