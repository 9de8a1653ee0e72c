"""Minimal self-contained SVG line charts (no plotting dependencies).

Output is deterministic: fixed palette, fixed tick logic, fixed float
formatting. Good enough for eyeballing sweep trends next to the CSV.
"""

from __future__ import annotations

import math
import sys

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#7f7f7f", "#ff7f0e", "#9467bd",
           "#8c564b", "#17becf")

_WIDTH = 720
_HEIGHT = 440
_MARGIN_LEFT = 62
_MARGIN_RIGHT = 130
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46
# the tick count an axis aims for; the step rounds it to 2 to 8
_TICK_COUNT = 5


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi]: 2 to 8 of them, strictly
    increasing, the first at or below ``lo`` and the last at or above ``hi``.

    Tick ``i`` is the decimal ``i * step`` read as one float, so no tick
    carries the rounding of the ones before it. A span flat to within
    rounding is padded out, as an empty one is.
    """
    if not math.isfinite(lo) or not math.isfinite(hi):
        lo, hi = 0.0, 1.0
    # a wider span puts ticks over 6 ulps apart, so they stay distinct floats
    if hi - lo <= 32 * math.ulp(max(abs(lo), abs(hi))):
        pad = abs(lo) * 0.1 if abs(lo) >= sys.float_info.min else 1.0
        lo, hi = lo - pad, min(hi + pad, sys.float_info.max)
    raw = (hi - lo) / _TICK_COUNT
    exponent = math.floor(math.log10(raw)) - 1
    for mult in (10, 20, 25, 50, 100):
        if float(f"{mult}e{exponent}") >= raw:
            break
    # step = num / den and each float is an exact ratio too, so the first
    # and last tick indices are an exact floor and ceiling
    num, den = mult * 10 ** max(exponent, 0), 10 ** max(-exponent, 0)
    lo_num, lo_den = lo.as_integer_ratio()
    hi_num, hi_den = hi.as_integer_ratio()
    first = lo_num * den // (lo_den * num)
    last = -(-hi_num * den // (hi_den * num))
    ticks = [float(f"{i * mult}e{exponent}") for i in range(first, last + 1)]
    # no round number above the largest float is one: end the axis there
    ticks[-1] = min(ticks[-1], sys.float_info.max)
    return ticks


def _tick_labels(ticks: list[float]) -> list[str]:
    """Labels at the fewest significant digits, 6 to 17, that tell them apart."""
    for digits in range(6, 18):
        labels = [format(tick, f".{digits}g") for tick in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def line_chart(
    title: str,
    x_label: str,
    y_label: str,
    series: list[tuple[str, list[float], list[float]]],
) -> str:
    """Render one chart; ``series`` is a list of (label, xs, ys)."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    x_ticks = _nice_ticks(min(xs_all), max(xs_all))
    y_ticks = _nice_ticks(min(ys_all), max(ys_all))
    x_lo, x_hi = x_ticks[0], x_ticks[-1]
    y_lo, y_hi = y_ticks[0], y_ticks[-1]
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    x_span, y_span, y_base = x_hi - x_lo, y_hi - y_lo, _MARGIN_TOP + plot_h

    # Data to pixels a list at a time: a call per point costs more than its arithmetic.
    def px(xs: list[float]) -> list[float]:
        return [_MARGIN_LEFT + (x - x_lo) / x_span * plot_w for x in xs]

    def py(ys: list[float]) -> list[float]:
        return [y_base - (y - y_lo) / y_span * plot_h for y in ys]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="15">{title}</text>',
    ]
    for x, label in zip(px(x_ticks), _tick_labels(x_ticks)):
        parts.append(f'<line x1="{x:.2f}" y1="{_MARGIN_TOP}" x2="{x:.2f}" '
                     f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 16}" '
                     f'text-anchor="middle">{label}</text>')
    for y, label in zip(py(y_ticks), _tick_labels(y_ticks)):
        parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" '
                     f'x2="{_MARGIN_LEFT + plot_w}" y2="{y:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 6}" y="{y + 4:.2f}" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>')

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(["%.2f,%.2f" % xy for xy, y in zip(zip(px(xs), py(ys)), ys)
                           if math.isfinite(y)])
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        legend_y = _MARGIN_TOP + 10 + idx * 18
        legend_x = _MARGIN_LEFT + plot_w + 12
        parts.append(f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 22}" '
                     f'y2="{legend_y}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{legend_x + 27}" y="{legend_y + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
