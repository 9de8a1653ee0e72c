"""Minimal self-contained SVG line charts (no plotting dependencies).

Output is deterministic: fixed palette, fixed tick logic, fixed float
formatting. Good enough for eyeballing sweep trends next to the CSV.

One routine, ``_axis``, builds both axes of a chart: the ticks, their
pixels and labels, and one ``%.2f`` format of the pixel of each input
value, by position. A chart takes one y value per distinct report and
draws each series as one index into those values per x position, so a
point is the join of two texts picked by position and no value is
hashed. Charts that share their xs share one x axis, so its labels and
texts are made once; each chart builds its y axis once over its values.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

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
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_Y_BASE = _MARGIN_TOP + _PLOT_H


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
        lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
    raw = (hi - lo) / _TICK_COUNT
    if raw == math.inf:  # a finite span wider than the largest float
        raw = hi / _TICK_COUNT - lo / _TICK_COUNT
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
    # no round number beyond the largest float is one: end the axis there
    ticks[0] = max(ticks[0], -sys.float_info.max)
    ticks[-1] = min(ticks[-1], sys.float_info.max)
    return ticks


def _frame(ticks: list[float]) -> tuple[bool, float, float]:
    """``(halve, lo, span)``: value v, halved first if ``halve``, lies
    ``(v - lo) / span`` of the way from the first tick to the last. Where
    the ticks are further apart than the largest float, all are halved,
    so no difference overflows."""
    lo, hi = ticks[0], ticks[-1]
    halve = hi - lo == math.inf
    if halve:
        lo, hi = lo / 2, hi / 2
    return halve, lo, hi - lo


def _tick_labels(ticks: list[float]) -> list[str]:
    """Labels at the fewest significant digits, 6 to 17, that tell them apart."""
    for digits in range(6, 18):
        labels = [format(tick, f".{digits}g") for tick in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


class Axis(NamedTuple):
    """A chart axis: its ticks, their pixels and labels, and the pixel text
    of each input value by position (``None`` where the value is not
    finite), so charts that share an axis label and format it once."""

    ticks: list[float]
    pixels: list[float]
    labels: list[str]
    texts: list[str | None]


def _axis(values: list[float], origin: float, length: float, fmt: str) -> Axis:
    """The axis whose ticks cover the finite ``values``: the first tick
    lies at pixel ``origin`` and the last ``length`` pixels on (negative
    for a y axis, which grows upwards). Each finite value's text is
    ``fmt`` of its pixel; a value that is not finite has none and is not
    drawn."""
    finite = list(filter(math.isfinite, values))
    ticks = _nice_ticks(min(finite, default=math.nan), max(finite, default=math.nan))
    halve, lo, span = _frame(ticks)

    # Data to pixels a list at a time: a call per point costs more than its arithmetic.
    def px(vs: list[float]) -> list[float]:
        if halve:
            vs = [v / 2 for v in vs]
        return [origin + (v - lo) / span * length for v in vs]

    texts = [fmt % p if math.isfinite(v) else None for v, p in zip(values, px(values))]
    return Axis(ticks, px(ticks), _tick_labels(ticks), texts)


def x_axis(xs: list[float]) -> Axis:
    """The x axis of charts drawn at ``xs``, one position each; its pixel
    texts end in the comma that joins a point's x to its y."""
    return _axis(xs, _MARGIN_LEFT, _PLOT_W, "%.2f,")


def line_chart(
    title: str,
    x_label: str,
    y_label: str,
    axis: Axis,
    values: list[float],
    series: list[tuple[str, list[int]]],
) -> str:
    """Render one chart of ``(label, indices)`` series over ``axis``.

    ``axis`` is ``x_axis`` of the chart's xs, and the point of a series at
    axis position ``i`` has the y ``values[indices[i]]``. A point whose x
    or y is not finite is not drawn.
    """
    y_axis = _axis(values, _Y_BASE, -_PLOT_H, "%.2f")
    x_texts, y_texts = axis.texts, y_axis.texts

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="15">{title}</text>',
    ]
    for x, label in zip(axis.pixels, axis.labels):
        parts.append(f'<line x1="{x:.2f}" y1="{_MARGIN_TOP}" x2="{x:.2f}" '
                     f'y2="{_MARGIN_TOP + _PLOT_H}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MARGIN_TOP + _PLOT_H + 16}" '
                     f'text-anchor="middle">{label}</text>')
    for y, label in zip(y_axis.pixels, y_axis.labels):
        parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" '
                     f'x2="{_MARGIN_LEFT + _PLOT_W}" y2="{y:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 6}" y="{y + 4:.2f}" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{_PLOT_W}" '
                 f'height="{_PLOT_H}" fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{_MARGIN_LEFT + _PLOT_W / 2:.1f}" y="{_HEIGHT - 10}" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{_MARGIN_TOP + _PLOT_H / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_MARGIN_TOP + _PLOT_H / 2:.1f})">{y_label}</text>')

    for idx, (label, indices) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join([x + y for x, y in zip(x_texts, map(y_texts.__getitem__, indices))
                           if x is not None and y is not None])
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        legend_y = _MARGIN_TOP + 10 + idx * 18
        legend_x = _MARGIN_LEFT + _PLOT_W + 12
        parts.append(f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 22}" '
                     f'y2="{legend_y}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{legend_x + 27}" y="{legend_y + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
