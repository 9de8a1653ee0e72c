import hashlib
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dangermac import cli
from dangermac.charts import (_HEIGHT, _MARGIN_BOTTOM, _MARGIN_LEFT, _MARGIN_RIGHT,
                              _MARGIN_TOP, _WIDTH, _frame, _nice_ticks, _tick_labels, line_chart,
                              run_ends, x_axis)
from dangermac.cli import main


SERIES = [
    ("300", [1.0, 2.0, 3.0], [0.9, 0.8, 0.7]),
    ("benchmark", [1.0, 2.0, 3.0], [0.85, 0.7, 0.55]),
]


def _chart(title: str, x_label: str, y_label: str,
           series: list[tuple[str, list[float], list[float]]]) -> str:
    """``line_chart`` of ``(label, xs, ys)`` series: every series' xs go into
    one axis, one stretch after another, and each series joins every
    position, pointing at a NaN filler, which is not drawn, outside its
    own stretch."""
    xs, values, stretches = [], [math.nan], []
    for _, own_xs, ys in series:
        assert len(own_xs) == len(ys)
        stretches.append((len(xs), len(values), len(ys)))
        xs += own_xs
        values += ys
    indexed = []
    for (label, _, _), (start, first, count) in zip(series, stretches):
        indices = [0] * len(xs)
        indices[start:start + count] = range(first, first + count)
        indexed.append((label, list(range(len(xs))), indices))
    return line_chart(title, x_label, y_label, x_axis(xs), values, indexed)


def test_chart_is_well_formed_xml():
    svg = _chart("pdr", "number of vehicles", "pdr", SERIES)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_chart_has_one_polyline_per_series():
    svg = _chart("pdr", "x", "y", SERIES)
    assert svg.count("<polyline") == 2
    assert "300" in svg and "benchmark" in svg


def test_chart_deterministic():
    assert _chart("t", "x", "y", SERIES) == _chart("t", "x", "y", SERIES)


def test_chart_handles_flat_series():
    svg = _chart("tau", "x", "y", [("flat", [0.0, 1.0], [0.5, 0.5])])
    ET.fromstring(svg)
    assert "<polyline" in svg


def test_chart_skips_non_finite_points():
    svg = _chart("d", "x", "y",
                 [("gap", [0.0, 1.0, 2.0], [1.0, float("inf"), 3.0])])
    root = ET.fromstring(svg)
    polys = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polys[0].attrib["points"].split()) == 2
    # an infinite x once stretched the x ticks to the largest float, drew
    # x = 5 at pixel 2702 and wrote an "inf,34.00" point
    series = [("a", [0.0, 5.0, math.inf], [1.0, 2.0, 3.0])]
    svg = _chart("d", "x", "y", series)
    [points] = [e.attrib["points"] for e in ET.fromstring(svg).iter()
                if e.tag.endswith("polyline")]
    assert points == _reference_points(series)[0] == "62.00,394.00 590.00,214.00"
    assert _points_outside_plot(svg) == []


def test_chart_of_non_finite_points_is_pinned():
    nan, inf = math.nan, math.inf
    svg = _chart("pdr", "danger threshold (m)", "pdr", [
        ("gaps", [0.1, 0.7, 1.3, 2.9, 3.3, 4.75], [1 / 3, nan, 2 / 7, inf, -inf, 2.5]),
        ("edges", [0.05, 1.55, 2.5, 4.0], [-inf, 0.125, nan, 1 / 7]),
        ("none", [0.2, 3.1], [nan, inf]),
    ])
    root = ET.fromstring(svg)
    points = [e.attrib["points"] for e in root.iter() if e.tag.endswith("polyline")]
    assert points == ["72.56,346.00 199.28,352.86 563.60,34.00",
                      "225.68,376.00 484.40,373.43", ""]
    assert (hashlib.sha256(svg.encode()).hexdigest()
            == "62839cd3f59fa75bd99ba242bc7026f006c57ae883d61ae92e24f52110687298")


def _reference_points(series: list[tuple[str, list[float], list[float]]]) -> list[str]:
    """Each series' polyline points as the chart once drew them: one
    ``"%.2f,%.2f"`` format per point whose x and y are finite."""
    xs_all = [x for _, xs, _ in series for x in xs if math.isfinite(x)]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    x_ticks = _nice_ticks(min(xs_all, default=math.nan), max(xs_all, default=math.nan))
    y_ticks = _nice_ticks(min(ys_all, default=math.nan), max(ys_all, default=math.nan))
    x_halve, x_lo, x_span = _frame(x_ticks)
    y_halve, y_lo, y_span = _frame(y_ticks)
    x_scale, y_scale = 0.5 if x_halve else 1.0, 0.5 if y_halve else 1.0
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    y_base = _MARGIN_TOP + plot_h
    return [" ".join("%.2f,%.2f" % (_MARGIN_LEFT + (x * x_scale - x_lo) / x_span * plot_w,
                                    y_base - (y * y_scale - y_lo) / y_span * plot_h)
                     for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y))
            for _, xs, ys in series]


def test_chart_of_no_finite_y_has_empty_polylines():
    # the command line never draws one: evaluate_point rejects a report
    # whose delay or throughput is not finite, so each curve has finite ys
    for series in ([("a", [1.0, 2.0], [math.nan, math.inf])],
                   [("a", [], [])],
                   [("a", [], []), ("b", [0.5, 1.5], [2.0, 3.0])]):
        root = ET.fromstring(_chart("t", "x", "y", series))
        points = [e.attrib["points"] for e in root.iter() if e.tag.endswith("polyline")]
        assert points == _reference_points(series)
        assert points[0] == ""


# one NaN object, so a chart can meet the same NaN twice
_NAN = math.nan
_CHART_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, 1e300, -1e300, 0.1, 0.3,
                     1e308, -1e308, sys.float_info.max, -sys.float_info.max,
                     math.inf, -math.inf, _NAN]),
    # every finite float, so a span can be wider than the largest float
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _chart_series(draw):
    """1 to 4 series; each takes its xs from a shared list or its own, so
    xs and ys repeat within and across series."""
    shared = draw(st.lists(_CHART_VALUES, max_size=12))
    series = []
    for i in range(draw(st.integers(1, 4))):
        xs = shared if draw(st.booleans()) else draw(st.lists(_CHART_VALUES, max_size=12))
        ys = draw(st.lists(_CHART_VALUES, min_size=len(xs), max_size=len(xs)))
        series.append((str(i), xs, ys))
    return series


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_chart_series())
def test_polylines_match_one_format_per_point(series):
    svg = _chart("t", "x", "y", series)
    root = ET.fromstring(svg)
    points = [e.attrib["points"] for e in root.iter() if e.tag.endswith("polyline")]
    assert points == _reference_points(series)
    assert _points_outside_plot(svg) == []


@st.composite
def _sweep_charts(draw):
    """A chart shaped as the command line draws one: finite xs, finite
    values each of which some series picks, and 1 to 4 series that each
    index the values at every x position, so no text is ``None``."""
    finite = _CHART_VALUES.filter(math.isfinite)
    xs = draw(st.lists(finite, max_size=12))
    drawn = draw(st.lists(finite, min_size=12, max_size=12))
    picks = [draw(st.lists(st.integers(0, 11), min_size=len(xs), max_size=len(xs)))
             for _ in range(draw(st.integers(1, 4)))]
    # keep the picked values only, in the order first picked
    order = {}
    series = [(str(i), [order.setdefault(j, len(order)) for j in indices])
              for i, indices in enumerate(picks)]
    return xs, [drawn[j] for j in order], series


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sweep_charts())
def test_sweep_polylines_match_one_format_per_point(chart):
    xs, values, series = chart
    every = list(range(len(xs)))
    svg = line_chart("t", "x", "y", x_axis(xs), values,
                     [(label, every, indices) for label, indices in series])
    root = ET.fromstring(svg)
    points = [e.attrib["points"] for e in root.iter() if e.tag.endswith("polyline")]
    assert points == _reference_points([(label, xs, [values[i] for i in indices])
                                        for label, indices in series])
    assert all(len(p.split()) == len(xs) for p in points)
    assert _points_outside_plot(svg) == []


@st.composite
def _runs_charts(draw):
    """A sweep's chart with runs: strictly increasing finite xs, finite
    values each of which some series picks, and 1 to 4 series of indices
    that repeat in runs of 1 to 6."""
    finite = _CHART_VALUES.filter(math.isfinite)
    xs = sorted(set(draw(st.lists(finite, max_size=24))))
    drawn = draw(st.lists(finite, min_size=4, max_size=4))
    order, series = {}, []
    for _ in range(draw(st.integers(1, 4))):
        indices = []
        while len(indices) < len(xs):
            indices += [draw(st.integers(0, 3))] * draw(st.integers(1, 6))
        series.append([order.setdefault(j, len(order)) for j in indices[:len(xs)]])
    return xs, [drawn[j] for j in order], series


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_runs_charts())
def test_run_ends_draw_the_same_line(chart):
    # each polyline is the every-position one with only the interior points
    # of its runs of one index removed, and each removed point has the y of
    # its run's ends, between their xs: it lies on the segment they draw
    xs, values, series = chart
    kept = [run_ends(indices) for indices in series]
    svg = line_chart("t", "x", "y", x_axis(xs), values,
                     [(str(i), ends, [indices[p] for p in ends])
                      for i, (indices, ends) in enumerate(zip(series, kept))])
    points = [e.attrib["points"] for e in ET.fromstring(svg).iter()
              if e.tag.endswith("polyline")]
    every = _reference_points([(str(i), xs, [values[j] for j in indices])
                               for i, indices in enumerate(series)])
    for indices, ends, drawn, full in zip(series, kept, points, every):
        full = full.split()
        interior = {p for p in range(1, len(indices) - 1)
                    if indices[p - 1] == indices[p] == indices[p + 1]}
        assert ends == [p for p in range(len(indices)) if p not in interior]
        assert drawn.split() == [full[p] for p in ends]
        for a, b in zip(ends, ends[1:]):
            ax, ay = full[a].split(",")
            bx, by = full[b].split(",")
            for p in range(a + 1, b):
                x, y = full[p].split(",")
                assert y == ay == by and float(ax) <= float(x) <= float(bx)


def test_threshold_sweep_charts_share_one_axis(tmp_path, monkeypatch, capsys):
    # Every chart of a sweep shares one x axis and takes one value per
    # distinct report, not per row: the threshold sweep's 2,002 rows hold
    # 473 distinct reports and the default sweep's 200 rows 174. Each curve
    # keeps the ends of its runs of one report, each with its index into
    # those values: the threshold sweep's filtered curve 481 of its 1,001
    # positions and its benchmark curve 2, the default sweep's all 50.
    calls = []

    def recording_line_chart(title, x_label, y_label, axis, values, series):
        calls.append((axis, values, series))
        return line_chart(title, x_label, y_label, axis, values, series)

    monkeypatch.setattr(cli, "line_chart", recording_line_chart)
    for argv, x_count, value_count, curves in [
        (["--x-axis", "threshold_m", "--values", "0..1000", "--n-vehicles", "50"],
         1001, 473, [("filtered", 481), ("benchmark", 2)]),
        ([], 50, 174, [("300", 50), ("500", 50), ("700", 50), ("benchmark", 50)]),
    ]:
        calls.clear()
        assert main(["sweep", *argv, "--svg", "--out", str(tmp_path / str(x_count))]) == 0
        capsys.readouterr()
        assert len(calls) == 7
        axis = calls[0][0]
        assert all(call[0] is axis for call in calls)
        assert len(axis.texts) == x_count
        # only a position some curve keeps has a pixel text
        kept = {p for _, positions, _ in calls[0][2] for p in positions}
        assert [p for p, text in enumerate(axis.texts) if text is not None] == sorted(kept)
        for _, values, series in calls:
            assert len(values) == value_count
            assert [(label, len(positions)) for label, positions, _ in series] == curves
            assert all(len(indices) == len(positions) and positions[-1] == x_count - 1
                       for _, positions, indices in series)
            # every distinct report is drawn
            assert {i for _, _, indices in series for i in indices} == set(range(value_count))


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def _spans(draw):
    """``lo <= hi``: two independent floats, or ``lo`` and a float a few
    ulps above it, where a tick step can fall below rounding."""
    lo = draw(_FLOATS)
    if draw(st.booleans()):
        hi = draw(_FLOATS)
    else:
        hi = lo
        for _ in range(draw(st.integers(0, 100))):
            hi = math.nextafter(hi, math.inf)
    return min(lo, hi), min(max(lo, hi), sys.float_info.max)


def test_chart_of_a_span_wider_than_the_largest_float():
    # hi - lo overflows: the ticks and the pixels are still finite
    assert _nice_ticks(-1e308, 1e308) == [-1.5e308, -1e308, -5e307, 0.0, 5e307, 1e308, 1.5e308]
    top = sys.float_info.max
    assert _nice_ticks(-top, top) == [-top, -1e308, 0.0, 1e308, top]
    svg = _chart("t", "x", "y", [("a", [0.0, 1.0], [1e308, -1e308])])
    root = ET.fromstring(svg)
    [points] = [e.attrib["points"] for e in root.iter() if e.tag.endswith("polyline")]
    assert points == "62.00,94.00 590.00,334.00"
    assert _points_outside_plot(svg) == []


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_spans())
def test_ticks_cover_the_span(span):
    lo, hi = span
    ticks = _nice_ticks(lo, hi)
    assert 2 <= len(ticks) <= 8
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
    assert ticks[0] <= lo and ticks[-1] >= hi
    assert all(math.isfinite(t) for t in ticks)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_spans())
def test_tick_labels_are_distinct(span):
    ticks = _nice_ticks(*span)
    labels = _tick_labels(ticks)
    assert len(set(labels)) == len(labels)
    # the fewest digits from 6 up: one fewer would repeat a label
    digits = max(len(label.split("e")[0].replace("-", "").replace(".", "").lstrip("0"))
                 for label in labels)
    if digits > 6:
        fewer = [format(t, f".{digits - 1}g") for t in ticks]
        assert len(set(fewer)) < len(fewer)


def test_tick_labels_keep_six_digits_when_they_suffice():
    assert _tick_labels([0.0, 0.25, 0.5]) == ["0", "0.25", "0.5"]
    assert _tick_labels([999.0, 999.0 + 1e-11]) == ["999", "999.00000000001"]


def _plot_box(root: ET.Element) -> ET.Element:
    [box] = [e for e in root.iter() if e.tag.endswith("rect") and e.get("fill") == "none"]
    return box


def test_sweep_chart_of_near_equal_counts_labels_every_tick(tmp_path, capsys):
    # at .6g the four x ticks 1000000..1000003 all read 1e+06
    argv = ["sweep", "--values", "1000000..1000003", "--metrics", "tau", "--svg",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    root = ET.fromstring((tmp_path / "tau.svg").read_text())
    box = _plot_box(root)
    # x tick labels sit 16 px below the plot box, y tick labels are right-aligned
    below = str(round(float(box.get("y")) + float(box.get("height"))) + 16)
    texts = [e for e in root.iter() if e.tag.endswith("text")]
    x_labels = [e.text for e in texts if e.get("y") == below]
    y_labels = [e.text for e in texts if e.get("text-anchor") == "end"]
    assert x_labels == ["1000000", "1000001", "1000002", "1000003"]
    assert len(set(y_labels)) == len(y_labels) >= 2


def _points_outside_plot(svg: str) -> list[tuple[float, float]]:
    root = ET.fromstring(svg)
    box = _plot_box(root)
    x0, y0 = float(box.get("x")), float(box.get("y"))
    x1, y1 = x0 + float(box.get("width")), y0 + float(box.get("height"))
    points = [tuple(map(float, p.split(",")))
              for e in root.iter() if e.tag.endswith("polyline")
              for p in e.get("points").split()]
    return [(x, y) for x, y in points if not (x0 <= x <= x1 and y0 <= y <= y1)]


@pytest.mark.parametrize("argv", [
    [],
    ["--x-axis", "threshold_m", "--values", "999,1000", "--n-vehicles", "5"],
    ["--values", "4900..5000", "--metrics", "pdr"],
    ["--values", "93000..95000", "--thresholds", "300", "--metrics", "pdr"],
], ids=["default", "ulps-apart", "below-1e-12", "subnormal"])
def test_sweep_charts_stay_inside_the_plot(argv, tmp_path, capsys):
    # the top tick sits at or above the largest value, so no curve is drawn
    # above the plot box (the default sweep's total_delay once reached
    # y = -121.76); values ulps apart, below 1e-12 or subnormal once made a
    # zero axis span and a ZeroDivisionError
    assert main(["sweep", *argv, "--svg", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    svgs = sorted(tmp_path.glob("*.svg"))
    assert len(svgs) == (1 if "--metrics" in argv else 7)
    for path in svgs:
        assert _points_outside_plot(path.read_text()) == [], path.name


def test_sweep_chart_of_a_step_below_half_an_ulp_ends(capsys):
    # a step under half an ulp of 1e20 once left the tick loop adding it
    # forever; the child's address space is capped so a relapse fails
    # instead of exhausting memory. The sweep that reached it, over x
    # values 1e20 and the float after it, is refused now, since both
    # print as the cell 1e+20, so the child draws their chart itself.
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    values = "100000000000000000000,100000000000000016384"
    assert main(["sweep", "--x-axis", "threshold_m", "--n-vehicles", "5",
                 "--values", values]) == 1
    assert capsys.readouterr().err == "error: --values: 1e+20 and 1.0000000000000002e+20 " \
                                      "both print as 1e+20\n"
    src = str(Path(__file__).resolve().parents[1] / "src")
    xs = [float(x) for x in values.split(",")]  # the sweep's x values
    code = ("from dangermac.charts import line_chart, x_axis; "
            f"print(line_chart('pdr', 'x', 'pdr', x_axis({xs!r}), [0.5, 0.6], "
            "[('filtered', [0, 1], [0, 1])]))")
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                            text=True, timeout=60, preexec_fn=cap_address_space)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("<svg")
