"""Deterministic SVG rendering of arc-bounded regions.

Each geometry gets a planar chart: the Euclidean plane draws as-is, the
hyperbolic plane through the conformal unit-disk projection
(x, y) / (1 + z), and the sphere by orthographic projection onto z = 0,
which requires everything to stay on the upper hemisphere.  Arcs are
flattened to polylines in the chart, so output needs no renderer-side
geometry.  No timestamps or environment data are embedded; the same region
always yields byte-identical SVG.
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

_REGION_STYLES = (
    ("#1f6fb4", "rgba(31,111,180,0.12)"),
    ("#b45b1f", "rgba(180,91,31,0.12)"),
    ("#3d8f3d", "rgba(61,143,61,0.12)"),
    ("#8f3d8f", "rgba(143,61,143,0.12)"),
)


def _project(p: Point, g: Geometry) -> tuple[float, float]:
    if g.kappa == 0:
        return p.x, p.y
    if g.kappa < 0:
        return p.x / (1.0 + p.z), p.y / (1.0 + p.z)
    if p.z <= 1e-9:
        raise SpindleError(
            "PROJECTION_DOMAIN", "point leaves the upper hemisphere chart"
        )
    return p.x, p.y


def _arc_polyline(arc: Arc, g: Geometry) -> list[tuple[float, float]]:
    pts = []
    for k in range(ARC_SAMPLES + 1):
        s = arc.extent * k / ARC_SAMPLES
        pts.append(_project(arc.point_at(s), g))
    return pts


def _geodesic_polyline(a: Point, b: Point, g: Geometry) -> list[tuple[float, float]]:
    d = distance(a, b, g)
    if d < 1e-12:
        return [_project(a, g)]
    u = log_dir(a, b, g)
    pts = []
    for k in range(LINE_SAMPLES + 1):
        pts.append(_project(exp_map(a, u, d * k / LINE_SAMPLES, g), g))
    return pts


class _Canvas:
    """Collects chart polylines, then scales them into one SVG viewport."""

    def __init__(self, size: int = 600, pad: float = 0.05):
        self.size = size
        self.pad = pad
        self.items: list[tuple[str, list[tuple[float, float]], dict]] = []

    def add(self, kind: str, pts: Sequence[tuple[float, float]], **style) -> None:
        if pts:
            self.items.append((kind, list(pts), style))

    def _transform(self):
        xs = [x for _, pts, _ in self.items for x, _ in pts]
        ys = [y for _, pts, _ in self.items for _, y in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        span = max(x1 - x0, y1 - y0, 1e-9)
        margin = span * self.pad
        x0 -= margin
        y0 -= margin
        span += 2.0 * margin
        scale = self.size / span
        # center the shorter axis; flip y so the chart is drawn upright
        ox = (self.size - (x1 - x0 + 2 * margin) * scale) / 2.0 - x0 * scale
        oy = (self.size - (y1 - y0 + 2 * margin) * scale) / 2.0 - y0 * scale

        def tf(x, y):
            return x * scale + ox, self.size - (y * scale + oy)

        return tf

    def to_svg(self) -> str:
        tf = self._transform()
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" '
            f'height="{self.size}" viewBox="0 0 {self.size} {self.size}">',
            f'<rect width="{self.size}" height="{self.size}" fill="white"/>',
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
    size: int = 600,
) -> str:
    """Render regions plus optional incircle and width-chord overlays."""
    if not regions:
        raise SpindleError("EMPTY", "nothing to render")
    g = regions[0].geometry
    for region in regions:
        if region.geometry is not g:
            raise SpindleError("BAD_RANGE", "regions must share one geometry")
    canvas = _Canvas(size=size)
    for idx, region in enumerate(regions):
        stroke, fill = _REGION_STYLES[idx % len(_REGION_STYLES)]
        boundary: list[tuple[float, float]] = []
        for arc in region.arcs:
            pts = _arc_polyline(arc, g)
            if boundary:
                pts = pts[1:]
            boundary.extend(pts)
        canvas.add("region", boundary, stroke=stroke, fill=fill)
    for inc in incircles:
        canvas.add(
            "line",
            _arc_polyline(full_circle_arc(inc.center, inc.radius, g), g),
            stroke="#2a7f2a",
            width=1.2,
            dash="4 3",
        )
        canvas.add("dot", [_project(inc.center, g)], stroke="#2a7f2a")
        for t in inc.contacts:
            canvas.add("dot", [_project(t, g)], stroke="#2a7f2a")
    for wit in witnesses:
        canvas.add(
            "line",
            _geodesic_polyline(wit.a, wit.b, g),
            stroke="#c03030",
            width=1.4,
            dash="none",
        )
        canvas.add("dot", [_project(wit.a, g)], stroke="#c03030")
        canvas.add("dot", [_project(wit.b, g)], stroke="#c03030")
    return canvas.to_svg()
