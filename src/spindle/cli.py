"""Command-line interface.

Subcommands: triangle, hull, measure, verify, sweep, render.  A JSON file
given via --config overrides any flags of the invoked subcommand, each
entry converted as its flag's text would be.  Exit codes: 0 on success, 1
when a checked inequality or tolerance is violated, 2 for usage and range
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from .geometry import GEOMETRIES, Geometry, Point, SpindleError, embed
from .measure import _check_count, area, area_monte_carlo, incircle, thickness
from .regions import DiskPolygon, ball_hull, load_region, save_region, write_json
from .extremal import regular_disk_hexagon, regular_disk_triangle
from .harness import VerifyConfig, monotonicity_sweep, run_verification
from .render import render_svg


def _geometries(name: str) -> list[Geometry]:
    if name == "all":
        return list(GEOMETRIES.values())
    if name not in GEOMETRIES:
        raise SpindleError("USAGE", f"unknown geometry {name!r}")
    return [GEOMETRIES[name]]


def _single_geometry(name: str) -> Geometry:
    gs = _geometries(name)
    if len(gs) != 1:
        raise SpindleError("USAGE", "this action needs one specific geometry")
    return gs[0]


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise SpindleError("USAGE", f"grid must be start:stop:steps, got {spec!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise SpindleError("USAGE", f"bad grid spec {spec!r}")
    if n < 1:
        raise SpindleError("USAGE", "grid needs at least one step")
    if n == 1:
        return [a]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _load_points(path: str, g: Geometry) -> list[Point]:
    with open(path) as f:
        data = json.load(f)
    try:
        raw = data["points"]
        pts = [embed(g, float(x), float(y)) for x, y in raw]
    except (KeyError, TypeError, ValueError) as e:
        raise SpindleError("USAGE", f"bad points file: {e}")
    if not pts:
        raise SpindleError("USAGE", "points file is empty")
    return pts


# --------------------------------------------------------------------------
# subcommands

def cmd_triangle(args) -> int:
    gs = _geometries(args.geom)
    if len(gs) > 1 and (args.out or args.svg):
        raise SpindleError("USAGE", "--out/--svg need one specific geometry")
    for g in gs:
        if args.rho is not None:
            body = regular_disk_hexagon(args.w, args.r, args.rho, g)
            region = body.region
            label = f"hexagon rho={args.rho:.12g}"
        else:
            body = regular_disk_triangle(args.w, args.r, g)
            region = body.region
            label = f"triangle rho0={body.rho0:.12g}"
        wit = thickness(region)
        print(
            f"geometry={g.name} {label} w={args.w:.12g} r={args.r:.12g} "
            f"area={area(region):.12g} width={wit.value:.12g}"
        )
        if args.out:
            rec = region.to_record()
            rec["w"] = args.w
            if args.rho is not None:
                rec["rho"] = args.rho
            else:
                rec["rho0"] = body.rho0
                rec["incenter"] = [body.incenter.x, body.incenter.y, body.incenter.z]
            write_json(args.out, rec)
        if args.svg:
            inc = incircle(region)
            with open(args.svg, "w") as f:
                f.write(render_svg([region], incircles=[inc], witnesses=[wit]))
    return 0


def cmd_hull(args) -> int:
    g = _single_geometry(args.geom)
    pts = _load_points(args.infile, g)
    poly = ball_hull(pts, args.r, g)
    print(
        f"geometry={g.name} points={len(pts)} vertices={len(poly.vertices)} "
        f"area={area(poly):.12g} width={thickness(poly).value:.12g} "
        f"inradius={incircle(poly).radius:.12g}"
    )
    if args.out:
        save_region(poly, args.out)
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(render_svg([poly]))
    return 0


def cmd_measure(args) -> int:
    _check_count("seed", args.seed, 0)
    region = load_region(args.infile)
    g = region.geometry
    a = area(region)
    kind = "disk_polygon" if isinstance(region, DiskPolygon) else "cap_domain"
    print(f"geometry={g.name} type={kind} area={a:.12g}")
    if isinstance(region, DiskPolygon):
        wit = thickness(region)
        inc = incircle(region)
        print(f"width={wit.value:.12g} kind={wit.kind}")
        print(f"inradius={inc.radius:.12g} contacts={len(inc.contacts)}")
    if args.n is not None:
        rng = np.random.default_rng(args.seed)
        est, se = area_monte_carlo(region, args.n, rng)
        dev = abs(est - a)
        ratio = dev / se if se > 0 else math.inf
        print(f"mc_area={est:.12g} mc_se={se:.6g} deviation={dev:.6g} ({ratio:.2f} se)")
        if args.tolerance is not None and dev > args.tolerance:
            print(f"tolerance exceeded: {dev:.6g} > {args.tolerance:.6g}")
            return 1
    return 0


def cmd_verify(args) -> int:
    names = [g.name for g in _geometries(args.geom)]
    config = VerifyConfig(
        geometries=tuple(names), trials=args.trials, seed=args.seed
    )
    summary = run_verification(config)
    for name in names:
        s = summary["geometries"][name]
        caps = ",".join(f"{k}:{v}" for k, v in sorted(s["cap_status_counts"].items()))
        print(
            f"geometry={name} trials={s['trials']} violations={len(s['violations'])} "
            f"near_equality={s['near_equality']} "
            f"min_margin_inradius={s['min_margin_inradius']:.3g} "
            f"min_margin_area={s['min_margin_area']:.3g} cap[{caps}]"
        )
    total = summary["violations_total"]
    print(f"total violations: {total}")
    if args.out:
        write_json(args.out, summary)
    return 1 if total else 0


def cmd_sweep(args) -> int:
    g = _single_geometry(args.geom)
    grids = [_parse_grid(s) for s in (args.grid or [])]
    if len(grids) == 0:
        raise SpindleError("USAGE", "sweep needs --grid")
    if len(grids) == 1:
        if args.w is None:
            raise SpindleError("USAGE", "a single --grid sweeps r and needs --w")
        w_values, r_values = [args.w], grids[0]
    elif len(grids) == 2:
        w_values, r_values = grids
    else:
        raise SpindleError("USAGE", "at most two --grid ranges")
    result = monotonicity_sweep(g, w_values, r_values)
    header = "geometry,w,r,rho0,area,thickness"
    lines = [header]
    for row in result["rows"]:
        lines.append(
            f"{row['geometry']},{row['w']!r},{row['r']!r},"
            f"{row['rho0']!r},{row['area']!r},{row['thickness']!r}"
        )
    print("\n".join(lines))
    for v in result["violations"]:
        print(f"violation: {v}")
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(lines) + "\n")
    return 1 if result["violations"] else 0


def cmd_render(args) -> int:
    regions = [load_region(args.infile)]
    incircles = []
    witnesses = []
    for spec in args.overlay or []:
        if spec == "incircle":
            if not isinstance(regions[0], DiskPolygon):
                raise SpindleError("USAGE", "incircle overlay needs a disk polygon")
            incircles.append(incircle(regions[0]))
        elif spec == "width":
            if not isinstance(regions[0], DiskPolygon):
                raise SpindleError("USAGE", "width overlay needs a disk polygon")
            witnesses.append(thickness(regions[0]))
        else:
            regions.append(load_region(spec))
    svg = render_svg(regions, incircles=incircles, witnesses=witnesses)
    with open(args.svg, "w") as f:
        f.write(svg)
    print(f"wrote {args.svg}")
    return 0


# --------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindle",
        description="disk polygons, widths, inradii and areas in the three "
        "constant-curvature planes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file whose entries override flags")
        p.set_defaults(parser=p)  # whose argument types the config entries take

    p = sub.add_parser("triangle", help="regular disk triangle (or hexagon with --rho)")
    p.add_argument("--geom", default="euclidean", help="euclidean|hyperbolic|spherical|all")
    p.add_argument("--w", type=float, required=True, help="width")
    p.add_argument("--r", type=float, required=True, help="arc radius")
    p.add_argument("--rho", type=float, help="build the six-arc body at this inradius")
    p.add_argument("--out", help="write the region record here")
    p.add_argument("--svg", help="write a rendering here")
    add_common(p)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("hull", help="r-hull of points from a JSON file")
    p.add_argument("--geom", default="euclidean")
    p.add_argument("--r", type=float, required=True, help="arc radius")
    p.add_argument("--in", dest="infile", required=True, help='{"points": [[x,y],...]}')
    p.add_argument("--out", help="write the region record here")
    p.add_argument("--svg", help="write a rendering here")
    add_common(p)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("measure", help="area, width and inradius of a stored region")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, help="Monte Carlo sample count (memory: 8 bytes per sample plus a few MB)")
    p.add_argument("--seed", type=int, default=0, help="non-negative")
    p.add_argument("--tolerance", type=float, help="fail if |mc - exact| exceeds this")
    add_common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("verify", help="randomized check of the extremal bounds")
    p.add_argument("--geom", default="all")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="non-negative")
    p.add_argument("--out", help="write the JSON summary here")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="triangle table over a parameter grid")
    p.add_argument("--geom", default="euclidean")
    p.add_argument("--grid", action="append", help="start:stop:steps (once: r-grid, needs --w; twice: w-grid then r-grid)")
    p.add_argument("--w", type=float, help="fixed width for a single-grid sweep")
    p.add_argument("--out", help="write CSV rows here")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="draw stored regions to SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--svg", required=True)
    p.add_argument(
        "--overlay",
        action="append",
        help="incircle, width, or a path to another region file",
    )
    add_common(p)
    p.set_defaults(func=cmd_render)
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    with open(args.config) as f:
        overrides = json.load(f)
    if not isinstance(overrides, dict):
        raise SpindleError("USAGE", "config must be a JSON object")
    actions = {a.dest: a for a in args.parser._actions}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest == "in":
            dest = "infile"
        if dest not in actions or not hasattr(args, dest):
            raise SpindleError("USAGE", f"unknown config key {key!r}")
        kind = actions[dest].type
        if value is None:  # null unsets an optional flag; a required one has no unset
            if actions[dest].required:
                raise SpindleError("USAGE", f"config key {key!r}: a required flag cannot be null")
        elif kind is not None:
            try:  # as the flag's text: 5 and "5" pass for --trials, 5.5 and true do not
                value = kind(str(value))
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                bad = f"config key {key!r}: bad {kind.__name__} {value!r}"
                raise SpindleError("USAGE", bad) from None
        setattr(args, dest, value)


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args)
        return args.func(args)
    except (SpindleError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: malformed JSON: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
