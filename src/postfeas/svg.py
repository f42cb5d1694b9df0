"""Hand-rolled SVG output for diagnostic charts.

Only rect, line, circle, and text primitives, composed into three chart
shapes (bars, scatter, quantile boxes).  Coordinates are formatted with
two fixed decimals so identical inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SvgCanvas", "bar_chart", "scatter_chart", "box_chart"]

_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
            "#aa3377", "#bbbbbb")


def _f(v: float) -> str:
    return f"{float(v):.2f}"


def _escape(text: str) -> str:
    """Escape &, > and < for XML character data, in that order, as
    xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class SvgCanvas:
    """Accumulates SVG elements and serializes them deterministically."""

    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = []

    def rect(self, x, y, w, h, fill, stroke=None, stroke_width=1.0):
        attrs = (
            f'x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}"'
        )
        if stroke is not None:
            attrs += f' stroke="{stroke}" stroke-width="{_f(stroke_width)}"'
        self._parts.append(f"<rect {attrs} />")

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0, dashed=False):
        attrs = (
            f'x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"'
        )
        if dashed:
            attrs += ' stroke-dasharray="6,4"'
        self._parts.append(f"<line {attrs} />")

    def circle(self, cx, cy, r, fill, opacity=1.0):
        attrs = f'cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="{fill}"'
        if opacity != 1.0:
            attrs += f' fill-opacity="{_f(opacity)}"'
        self._parts.append(f"<circle {attrs} />")

    def text(self, x, y, content, size=12.0, anchor="start", fill="#000000"):
        self._parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-size="{_f(size)}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{fill}">{_escape(str(content))}</text>'
        )

    def to_string(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_f(self.width)}" height="{_f(self.height)}" '
            f'viewBox="0 0 {_f(self.width)} {_f(self.height)}">'
        )
        body = "\n".join(self._parts)
        return f"{head}\n{body}\n</svg>\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_string())


def _axis_max(values, target=None) -> float:
    vals = [v for v in values if np.isfinite(v)]
    if target is not None:
        vals.append(target)
    top = max(vals) if vals else 1.0
    return top * 1.15 if top > 0 else 1.0


def _frame(canvas: SvgCanvas, left, top, right, bottom, y_max, ylabel, title):
    canvas.text(canvas.width / 2, 20, title, size=14, anchor="middle")
    canvas.line(left, bottom, right, bottom)
    canvas.line(left, top, left, bottom)
    for k in range(5):
        frac = k / 4
        y = bottom - frac * (bottom - top)
        canvas.line(left - 4, y, left, y)
        canvas.text(left - 8, y + 4, f"{frac * y_max:g}", size=10, anchor="end")
    canvas.text(14, (top + bottom) / 2, ylabel, size=11, anchor="middle")


def bar_chart(path, labels, values, title, ylabel, target=None):
    """Vertical bars, one per label; dashed line at target if given."""
    width, height = 480.0, 320.0
    left, top, right, bottom = 60.0, 40.0, width - 20.0, height - 50.0
    c = SvgCanvas(width, height)
    c.rect(0, 0, width, height, "#ffffff")
    y_max = _axis_max(values, target)
    _frame(c, left, top, right, bottom, y_max, ylabel, title)
    n = len(labels)
    span = (right - left) / max(n, 1)
    bar_w = span * 0.6
    for i, (lab, val) in enumerate(zip(labels, values)):
        x = left + i * span + (span - bar_w) / 2
        if np.isfinite(val):
            h = (val / y_max) * (bottom - top)
            c.rect(x, bottom - h, bar_w, h, _PALETTE[i % len(_PALETTE)])
        c.text(x + bar_w / 2, bottom + 16, lab, size=11, anchor="middle")
    if target is not None:
        y = bottom - (target / y_max) * (bottom - top)
        c.line(left, y, right, y, stroke="#333333", dashed=True)
        c.text(right, y - 5, f"target {target:g}", size=10, anchor="end",
               fill="#333333")
    c.write(path)


def scatter_chart(path, groups, title, xlabel, ylabel):
    """Scatter of (x, y) points per named group with a legend.

    groups maps label -> (xs, ys); the dashed diagonal marks y = x.
    """
    width, height = 480.0, 400.0
    left, top, right, bottom = 60.0, 40.0, width - 20.0, height - 60.0
    c = SvgCanvas(width, height)
    c.rect(0, 0, width, height, "#ffffff")
    all_vals = [v for xs, ys in groups.values() for v in list(xs) + list(ys)
                if np.isfinite(v)]
    v_max = _axis_max(all_vals)
    _frame(c, left, top, right, bottom, v_max, ylabel, title)
    for k in range(5):
        frac = k / 4
        x = left + frac * (right - left)
        c.line(x, bottom, x, bottom + 4)
        c.text(x, bottom + 16, f"{frac * v_max:g}", size=10, anchor="middle")
    c.text((left + right) / 2, height - 12, xlabel, size=11, anchor="middle")
    c.line(left, bottom, right, top, stroke="#333333", dashed=True)
    for gi, (label, (xs, ys)) in enumerate(groups.items()):
        color = _PALETTE[gi % len(_PALETTE)]
        for x, y in zip(xs, ys):
            if np.isfinite(x) and np.isfinite(y):
                px = left + (x / v_max) * (right - left)
                py = bottom - (y / v_max) * (bottom - top)
                c.circle(px, py, 3.0, color, opacity=0.7)
        c.circle(right - 90, top + 14 * gi + 6, 4.0, color)
        c.text(right - 80, top + 14 * gi + 10, label, size=10)
    c.write(path)


def box_chart(path, labels, boxes, title, ylabel, threshold=None):
    """Quantile boxes per label: (q05, median, q95, mean) tuples.

    Box spans q05..q95, the bar is the median, the dot is the mean, and
    the dashed line marks the threshold.
    """
    width, height = 480.0, 320.0
    left, top, right, bottom = 60.0, 40.0, width - 20.0, height - 50.0
    c = SvgCanvas(width, height)
    c.rect(0, 0, width, height, "#ffffff")
    flat = [v for box in boxes for v in box]
    y_max = _axis_max(flat, threshold)
    _frame(c, left, top, right, bottom, y_max, ylabel, title)
    n = len(labels)
    span = (right - left) / max(n, 1)
    box_w = span * 0.5

    def ypix(v):
        return bottom - (v / y_max) * (bottom - top)

    for i, (lab, (q05, med, q95, mean)) in enumerate(zip(labels, boxes)):
        x = left + i * span + (span - box_w) / 2
        c.rect(x, ypix(q95), box_w, max(ypix(q05) - ypix(q95), 0.5),
               "#cfe0f0", stroke="#4477aa")
        c.line(x, ypix(med), x + box_w, ypix(med), stroke="#1f3a5f", width=2.0)
        c.circle(x + box_w / 2, ypix(mean), 3.0, "#ee6677")
        c.text(x + box_w / 2, bottom + 16, lab, size=11, anchor="middle")
    if threshold is not None:
        y = ypix(threshold)
        c.line(left, y, right, y, stroke="#333333", dashed=True)
        c.text(right, y - 5, f"threshold {threshold:g}", size=10, anchor="end",
               fill="#333333")
    c.write(path)
