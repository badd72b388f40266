"""Deterministic SVG rendering of arc-bounded regions.

One chart serves the three planes: the stereographic projection
(x, y) / (1 + z) from (0, 0, -1).  It is the Poincare disk on the
hyperboloid, the plane itself at half scale (the canvas rescales, so the
scale does not show) and, on the sphere, the conformal chart of everything
but the south pole.  Arcs are flattened to polylines in the chart, so
output needs no renderer-side geometry.  No timestamps or environment
data are embedded; the same region always yields byte-identical SVG.
"""

from __future__ import annotations

from typing import Sequence

from .geometry import (
    Geometry,
    Point,
    SpindleError,
    distance,
    exp_map,
    log_dir,
)
from .measure import Incircle, ThicknessWitness
from .regions import Arc, full_circle_arc

ARC_SAMPLES = 256
LINE_SAMPLES = 64
SVG_SIZE = 600          # width and height of the viewport
_PAD = 0.05             # margin around the drawing, as a share of its span

_REGION_STYLES = (
    ("#1f6fb4", "rgba(31,111,180,0.12)"),
    ("#b45b1f", "rgba(180,91,31,0.12)"),
    ("#3d8f3d", "rgba(61,143,61,0.12)"),
    ("#8f3d8f", "rgba(143,61,143,0.12)"),
)


def _project(p: Point) -> tuple[float, float]:
    s = 1.0 + p.z
    if s <= 0.0:
        raise SpindleError("PROJECTION_DOMAIN", "the south pole has no place in the chart")
    return p.x / s, p.y / s


def _arc_polyline(arc: Arc) -> list[tuple[float, float]]:
    return [_project(arc.point_at(arc.extent * k / ARC_SAMPLES)) for k in range(ARC_SAMPLES + 1)]


def _geodesic_polyline(a: Point, b: Point, g: Geometry) -> list[tuple[float, float]]:
    d = distance(a, b, g)
    u = log_dir(a, b, g)
    return [_project(exp_map(a, u, d * k / LINE_SAMPLES, g)) for k in range(LINE_SAMPLES + 1)]


class _Canvas:
    """Collects chart polylines, then scales them into one SVG viewport."""

    def __init__(self):
        self.items: list[tuple[str, list[tuple[float, float]], dict]] = []

    def add(self, kind: str, pts: Sequence[tuple[float, float]], **style) -> None:
        if pts:
            self.items.append((kind, list(pts), style))

    def _transform(self):
        xs = [x for _, pts, _ in self.items for x, _ in pts]
        ys = [y for _, pts, _ in self.items for _, y in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        span = max(x1 - x0, y1 - y0)
        margin = span * _PAD
        x0 -= margin
        y0 -= margin
        span += 2.0 * margin
        scale = SVG_SIZE / span
        # center the shorter axis; flip y so the chart is drawn upright
        ox = (SVG_SIZE - (x1 - x0 + 2 * margin) * scale) / 2.0 - x0 * scale
        oy = (SVG_SIZE - (y1 - y0 + 2 * margin) * scale) / 2.0 - y0 * scale

        def tf(x, y):
            return x * scale + ox, SVG_SIZE - (y * scale + oy)

        return tf

    def to_svg(self) -> str:
        tf = self._transform()
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
            f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
            f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        ]
        for kind, pts, style in self.items:
            path = " ".join(
                ("M" if i == 0 else "L") + " %.6f %.6f" % tf(x, y)
                for i, (x, y) in enumerate(pts)
            )
            if kind == "region":
                out.append(
                    f'<path d="{path} Z" fill="{style["fill"]}" '
                    f'stroke="{style["stroke"]}" stroke-width="1.5"/>'
                )
            elif kind == "line":
                out.append(
                    f'<path d="{path}" fill="none" stroke="{style["stroke"]}" '
                    f'stroke-width="{style.get("width", 1.0)}" '
                    f'stroke-dasharray="{style.get("dash", "none")}"/>'
                )
            elif kind == "dot":
                x, y = tf(*pts[0])
                out.append(
                    f'<circle cx="%.6f" cy="%.6f" r="3" fill="{style["stroke"]}"/>'
                    % (x, y)
                )
        out.append("</svg>")
        return "\n".join(out)


def render_svg(
    regions: Sequence,
    incircles: Sequence[Incircle] = (),
    witnesses: Sequence[ThicknessWitness] = (),
) -> str:
    """Render regions plus optional incircle and width-chord overlays."""
    if not regions:
        raise SpindleError("EMPTY", "nothing to render")
    g = regions[0].geometry
    for region in regions:
        if region.geometry is not g:
            raise SpindleError("BAD_RANGE", "regions must share one geometry")
    canvas = _Canvas()
    for idx, region in enumerate(regions):
        stroke, fill = _REGION_STYLES[idx % len(_REGION_STYLES)]
        boundary: list[tuple[float, float]] = []
        for arc in region.arcs:
            pts = _arc_polyline(arc)
            if boundary:
                pts = pts[1:]
            boundary.extend(pts)
        canvas.add("region", boundary, stroke=stroke, fill=fill)
    for inc in incircles:
        canvas.add(
            "line",
            _arc_polyline(full_circle_arc(inc.center, inc.radius, g)),
            stroke="#2a7f2a",
            width=1.2,
            dash="4 3",
        )
        canvas.add("dot", [_project(inc.center)], stroke="#2a7f2a")
        for t in inc.contacts:
            canvas.add("dot", [_project(t)], stroke="#2a7f2a")
    for wit in witnesses:
        canvas.add(
            "line",
            _geodesic_polyline(wit.a, wit.b, g),
            stroke="#c03030",
            width=1.4,
            dash="none",
        )
        canvas.add("dot", [_project(wit.a)], stroke="#c03030")
        canvas.add("dot", [_project(wit.b)], stroke="#c03030")
    return canvas.to_svg()
