"""Plain-text SVG emission for solution plots; no plotting dependency.

1D fields render as a polyline with axis frame and horizontal guide lines
(used for jump levels of the forcing rule).  2D fields render as flat-shaded
triangle fills, one panel per field, with a small color legend.
"""

from __future__ import annotations

import numpy as np

# compact sRGB anchors of a perceptually ordered dark-to-light map
_CMAP = np.array([
    (68, 1, 84), (71, 44, 122), (59, 81, 139), (44, 113, 142),
    (33, 144, 141), (39, 173, 129), (92, 200, 99), (170, 220, 50),
    (253, 231, 37),
], dtype=float)


def _color(t: float) -> str:
    t = min(1.0, max(0.0, t))
    pos = t * (len(_CMAP) - 1)
    i = min(int(pos), len(_CMAP) - 2)
    frac = pos - i
    rgb = (1 - frac) * _CMAP[i] + frac * _CMAP[i + 1]
    return "#{:02x}{:02x}{:02x}".format(*(int(round(c)) for c in rgb))


class SvgCanvas:
    """Accumulates SVG elements and renders a standalone document."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = []

    def rect(self, x, y, w, h, fill="none", stroke="none", stroke_width=1.0):
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{stroke_width:g}"/>')

    def line(self, x1, y1, x2, y2, stroke="#000000", stroke_width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{stroke_width:g}"{d}/>')

    def polyline(self, pts, stroke="#1f6fb4", stroke_width=1.5):
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{path}" fill="none" stroke="{stroke}" '
            f'stroke-width="{stroke_width:g}"/>')

    def polygon(self, pts, fill="#cccccc", stroke="none"):
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        self.parts.append(f'<polygon points="{path}" fill="{fill}" stroke="{stroke}"/>')

    def text(self, x, y, s, size=11, anchor="start", fill="#222222"):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="{fill}">{s}</text>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (f'<?xml version="1.0" encoding="UTF-8"?>\n'
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
                f'{body}\n</svg>\n')


def _axis_1d(canvas, box, x_rng, y_rng):
    x0, y0, w, h = box
    canvas.rect(x0, y0, w, h, stroke="#444444")
    canvas.text(x0, y0 + h + 14, f"{x_rng[0]:.4g}", size=10)
    canvas.text(x0 + w, y0 + h + 14, f"{x_rng[1]:.4g}", size=10, anchor="end")
    canvas.text(x0 - 4, y0 + h, f"{y_rng[0]:.4g}", size=10, anchor="end")
    canvas.text(x0 - 4, y0 + 10, f"{y_rng[1]:.4g}", size=10, anchor="end")


def field_svg_1d(mesh, values, guide_levels=(), title="") -> str:
    """Polyline plot of a 1D nodal field with horizontal guide lines."""
    order = np.argsort(mesh.nodes[:, 0])
    xs = mesh.nodes[order, 0]
    vs = np.asarray(values)[order]
    lo = min(float(vs.min()), min(guide_levels, default=0.0), 0.0)
    hi = max(float(vs.max()), max(guide_levels, default=0.0), 0.0)
    if hi - lo < 1e-15:
        hi = lo + 1.0
    pad = 0.08 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    W, H, m = 640, 420, 52
    canvas = SvgCanvas(W, H)
    box = (m, m, W - 2 * m, H - 2 * m)

    def to_px(x, v):
        px = box[0] + (x - xs[0]) / (xs[-1] - xs[0]) * box[2]
        py = box[1] + (hi - v) / (hi - lo) * box[3]
        return px, py

    if lo < 0.0 < hi:
        _, zy = to_px(xs[0], 0.0)
        canvas.line(box[0], zy, box[0] + box[2], zy, stroke="#bbbbbb")
    for level in guide_levels:
        if lo <= level <= hi:
            _, gy = to_px(xs[0], level)
            canvas.line(box[0], gy, box[0] + box[2], gy,
                        stroke="#c0392b", dash="6,4")
            canvas.text(box[0] + box[2] + 4, gy + 4, f"{level:.4g}", size=10,
                        fill="#c0392b")
    canvas.polyline([to_px(x, v) for x, v in zip(xs, vs)])
    _axis_1d(canvas, box, (xs[0], xs[-1]), (lo, hi))
    if title:
        canvas.text(W / 2, 24, title, size=14, anchor="middle")
    return canvas.render()


def _panel_2d(canvas, mesh, values, box, title):
    x0, y0, w, h = box
    nodes = mesh.nodes
    xmin, ymin = nodes.min(axis=0)
    xmax, ymax = nodes.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-15)
    scale = min(w, h - 20) / span
    vlo, vhi = float(np.min(values)), float(np.max(values))
    vspan = max(vhi - vlo, 1e-15)

    def to_px(p):
        return (x0 + (p[0] - xmin) * scale,
                y0 + 20 + (ymax - p[1]) * scale)

    for tri in mesh.elements:
        mean = float(np.mean(np.asarray(values)[tri]))
        canvas.polygon([to_px(nodes[i]) for i in tri],
                       fill=_color((mean - vlo) / vspan))
    canvas.text(x0 + w / 2, y0 + 10, title, size=12, anchor="middle")
    # legend strip
    for k in range(24):
        canvas.rect(x0 + w - 14, y0 + 30 + (23 - k) * 5, 10, 5,
                    fill=_color(k / 23.0))
    canvas.text(x0 + w - 18, y0 + 38, f"{vhi:.3g}", size=9, anchor="end")
    canvas.text(x0 + w - 18, y0 + 30 + 24 * 5, f"{vlo:.3g}", size=9, anchor="end")


def field_svg_2d(mesh, values, second=None) -> str:
    """Flat-shaded triangle fill of a 2D field `u` and, if given, `zeta`."""
    panels = 1 if second is None else 2
    W, H, m = 420 * panels + 40, 440, 20
    canvas = SvgCanvas(W, H)
    _panel_2d(canvas, mesh, values, (m, m, 400, 400), "u")
    if second is not None:
        _panel_2d(canvas, mesh, second, (m + 420, m, 400, 400), "zeta")
    return canvas.render()
