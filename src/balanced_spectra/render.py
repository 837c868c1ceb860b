"""Minimal self-contained SVG rendering for density histograms."""

from __future__ import annotations

from .spectra import HistogramData

_BAR = "#4878a8"
_AXIS = "#222222"
_BG = "#ffffff"


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def histogram_svg(hist: HistogramData, title: str = "") -> str:
    """Render the histogram as a single-file SVG bar chart (no external assets)."""
    width, height = 640, 360
    left, right, top, bottom = 52.0, 12.0, 28.0, 36.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    lo = float(hist.edges[0])
    hi = float(hist.edges[-1])
    span = hi - lo if hi > lo else 1.0
    dmax = float(max(hist.densities.max(), 1e-12))

    def sx(x: float) -> float:
        return left + (x - lo) / span * plot_w

    def sy(d: float) -> float:
        return top + plot_h * (1.0 - d / (1.05 * dmax))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="{_BG}"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="18" font-family="sans-serif" font-size="13" '
            f'text-anchor="middle" fill="{_AXIS}">{title}</text>'
        )
    for i, d in enumerate(hist.densities):
        if d <= 0.0:
            continue
        x0 = sx(float(hist.edges[i]))
        x1 = sx(float(hist.edges[i + 1]))
        y = sy(float(d))
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y)}" width="{_fmt(max(x1 - x0 - 0.4, 0.3))}" '
            f'height="{_fmt(top + plot_h - y)}" fill="{_BAR}"/>'
        )
    base = top + plot_h
    parts.append(
        f'<line x1="{left}" y1="{_fmt(base)}" x2="{left + plot_w}" y2="{_fmt(base)}" '
        f'stroke="{_AXIS}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{_fmt(base)}" '
        f'stroke="{_AXIS}" stroke-width="1"/>'
    )
    ticks = [lo, 0.5 * (lo + hi), hi] if lo < 0.0 < hi else [lo, hi]
    if lo < 0.0 < hi:
        ticks[1] = 0.0
    for t in ticks:
        parts.append(
            f'<text x="{_fmt(sx(t))}" y="{_fmt(base + 16)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle" fill="{_AXIS}">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{left - 6}" y="{_fmt(sy(dmax) + 4)}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end" fill="{_AXIS}">{_fmt(dmax)}</text>'
    )
    parts.append(
        f'<text x="{left - 6}" y="{_fmt(base + 4)}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end" fill="{_AXIS}">0</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
