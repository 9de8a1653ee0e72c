import math
import sys

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import dangermac.metrics as metrics
import dangermac.pipeline as pipeline
from dangermac.config import MODEL_MODES, MacTimings, validate_timings
from dangermac.markov import solve_fixed_point
from dangermac.metrics import (
    AccessProbabilities,
    access_probabilities,
    delay_state_probabilities,
    pdr,
    throughput,
    total_delay,
)
from dangermac.pipeline import (
    REPORT_COLUMNS,
    SWEEP_METRICS,
    PerfReport,
    evaluate_point,
    evaluate_points,
    geometry_from,
    metric_column,
    metric_value,
    simulate_points,
)
from dangermac.slotsim import run

COUNTS = [5.0, 0.0, 12.5, 5.0, 0.0, 50.0, 12.5, 1.0]


@pytest.mark.parametrize("model_mode", ["busy_aware", "classic"])
def test_evaluate_points_matches_evaluate_point(model_mode):
    timings = MacTimings(cw_min=15)
    reports = evaluate_points(timings, COUNTS, model_mode)
    assert reports == [evaluate_point(timings, n, model_mode) for n in COUNTS]


def test_evaluate_points_solves_each_distinct_count_once(monkeypatch):
    solve = pipeline.solve_fixed_point
    solved = []

    def counting_solve(n, *args):
        solved.append(n)
        return solve(n, *args)

    monkeypatch.setattr(pipeline, "solve_fixed_point", counting_solve)
    timings = MacTimings()
    assert evaluate_points(timings, [], "busy_aware") == []
    evaluate_points(timings, COUNTS, "busy_aware")
    assert solved == [5.0, 12.5, 50.0, 1.0]
    # nothing is kept between calls
    evaluate_points(timings, COUNTS, "busy_aware")
    assert solved == [5.0, 12.5, 50.0, 1.0] * 2


def test_evaluate_points_builds_each_report_in_one_pass(monkeypatch):
    geometries, frames = [], []
    frame_times = metrics.frame_times

    def counting_geometry_from(timings):
        geometries.append(timings)
        return geometry_from(timings)

    def counting_frame_times(timings):
        frames.append(timings)
        return frame_times(timings)

    def refuse(*args):
        raise AssertionError("a per-count metric function ran")

    monkeypatch.setattr(pipeline, "geometry_from", counting_geometry_from)
    for module in (pipeline, metrics):
        monkeypatch.setattr(module, "frame_times", counting_frame_times)
        for name in ("access_probabilities", "delay_state_probabilities", "throughput",
                     "total_delay"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    timings = MacTimings()
    assert len(evaluate_points(timings, COUNTS, "busy_aware")) == len(COUNTS)
    assert geometries == frames == [timings]
    # the simulator's throughput takes the same per-call frame times
    assert len(simulate_points(timings, [1, 2, 5], 500, 0)) == 3
    assert geometries == frames == [timings] * 2


def _reference_report(timings: MacTimings, n_eff: float, model_mode: str) -> PerfReport:
    """The report composed from the solver and the four metric functions."""
    if n_eff > 0:
        s = solve_fixed_point(n_eff, geometry_from(timings), model_mode)
        tau, p_c, p_b = s.tau, s.p_c, s.p_b
    else:
        tau, p_c, p_b = 0.0, 0.0, 0.0
    access = access_probabilities(tau, n_eff)
    states = delay_state_probabilities(tau, n_eff)
    rate = throughput(access, timings)
    t_td_us = total_delay(states, access.p_tr, n_eff, timings).t_td_us
    if not math.isfinite(t_td_us + rate):
        raise ValueError(
            f"the delay or throughput at n_eff {n_eff:g} is not finite "
            f"(t_td_us {t_td_us:g}, throughput {rate:g}); "
            "the population or the timings are too large")
    return PerfReport(n_eff, tau, access.p_tr, access.p_su, pdr(access), rate,
                      states.p_emp, states.p_suc, states.p_own, p_c, p_b, t_td_us)


def _bits(report: PerfReport) -> list[tuple[str, str]]:
    """Each field's type and exact float, so that -0.0 and 0.0 differ."""
    return [(type(v).__name__, float(v).hex()) for v in report]


_N_EFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1.0, 1, 2.0, 10**6, 1e6]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    st.integers(2, 10**6),
    st.integers(2, 10**6).map(float),
    st.floats(2.0, 1e6),
)


def _durations(edge: float, *huge: float) -> st.SearchStrategy[float]:
    """Durations from ``edge`` up, mostly moderate, sometimes huge."""
    return st.one_of(st.floats(edge, 1e4), st.sampled_from([edge, 1e300, *huge]))


@st.composite
def _timings(draw):
    """Valid ``MacTimings``, RTS/CTS, a 2-slot window and a single stage included.

    A slot time near the float limit makes the delay total overflow; the
    air-time terms stay below it, so their validated sum is finite.
    """
    max_stage = draw(st.one_of(st.just(0), st.integers(0, 31)))
    cw_min = draw(st.one_of(st.just(1), st.integers(1, (2**32 >> max_stage) - 1)))
    timings = MacTimings(
        difs_us=draw(_durations(5e-324)), sifs_us=draw(_durations(5e-324)),
        slot_us=draw(_durations(5e-324, sys.float_info.max)),
        prop_delay_us=draw(_durations(0.0)),
        payload_bytes=draw(st.integers(1, 10**6)),
        data_rate_mbps=draw(st.one_of(st.floats(1e-3, 1e4), st.just(1e300))),
        header_bytes=draw(st.integers(0, 10**4)), ack_us=draw(_durations(0.0)),
        rts_us=draw(_durations(0.0)), cts_us=draw(_durations(0.0)),
        cw_min=cw_min, max_stage=max_stage)
    validate_timings(timings)
    return timings


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_timings(), st.lists(_N_EFFS, min_size=1, max_size=4), st.sampled_from(MODEL_MODES))
@example(MacTimings(slot_us=sys.float_info.max), [5.0], "busy_aware")
@example(MacTimings(cw_min=1, max_stage=0, rts_us=20.0, cts_us=30.0), [0.0, 0.5, 1.0, 1.5, 50],
         "classic")
def test_evaluate_points_matches_the_metric_functions_bit_for_bit(timings, n_effs, mode):
    # equal counts, 0.0 and -0.0 among them, share the first one's report
    try:
        expected = {n: _bits(_reference_report(timings, n, mode)) for n in dict.fromkeys(n_effs)}
    except ValueError as exc:
        event("not finite")
        with pytest.raises(ValueError) as raised:
            evaluate_points(timings, n_effs, mode)
        assert str(raised.value) == str(exc)
        return
    reports = evaluate_points(timings, n_effs, mode)
    assert [_bits(r) for r in reports] == [expected[n] for n in n_effs]


def test_report_fields_are_its_csv_columns():
    report = evaluate_point(MacTimings(), 5.0, "busy_aware")
    assert PerfReport._fields == REPORT_COLUMNS == (
        "n_eff_mean", "tau", "p_tr", "p_su", "pdr", "throughput",
        "p_emp", "p_suc", "p_own", "p_col", "p_bus", "t_td_us")
    assert all(type(getattr(report, name)) is float for name in REPORT_COLUMNS)


def test_metric_value_reads_its_column():
    report = PerfReport(*(float(i) for i in range(1, len(REPORT_COLUMNS) + 1)))
    columns = {"pdr": "pdr", "throughput": "throughput", "total_delay": "t_td_us",
               "p_bus": "p_bus", "p_col": "p_col", "n_eff": "n_eff_mean", "tau": "tau"}
    assert SWEEP_METRICS == tuple(columns)
    for metric, column in columns.items():
        assert metric_column(metric)(report) == getattr(report, column)
        assert metric_value(report, metric) == getattr(report, column)
    with pytest.raises(ValueError, match=r"unknown metric: 'p_c' \(choose from pdr, "
                                         r"throughput, total_delay, p_bus, p_col, n_eff, tau\)"):
        metric_column("p_c")
    with pytest.raises(ValueError, match="unknown metric: 'p_c'"):
        metric_value(report, "p_c")


def test_simulate_points_reads_each_run_from_its_counts():
    # tau = attempts / (n slots), p_su = success_slots / tx_slots (1 when
    # no slot was busy), throughput at p_tr = tx_slots / slots
    timings = MacTimings(cw_min=15)
    g = geometry_from(timings)
    counts = [1, 2, 7, 30]
    silent = 0
    for slots in (1, 7, 3000):
        for seed in (0, 1):
            for n, measured in zip(counts, simulate_points(timings, counts, slots, seed)):
                sim = run(n, slots, g, seed)
                p_su = sim.success_slots / sim.tx_slots if sim.tx_slots else 1.0
                access = AccessProbabilities(p_tr=sim.tx_slots / slots, p_su=p_su)
                assert measured.tau == sim.attempts / (n * slots), (n, slots, seed)
                assert measured.p_su == measured.pdr == p_su, (n, slots, seed)
                assert measured.throughput == throughput(access, timings), (n, slots, seed)
                silent += sim.tx_slots == 0
    assert silent > 0  # a one-slot run can be idle


def test_idle_simulated_run_reads_no_collision_and_no_throughput():
    # a one-slot run is idle when no station's first counter is 0
    timings = MacTimings(cw_min=15)
    g = geometry_from(timings)
    idle = 0
    for n in (1, 2, 3):
        for seed in range(10):
            [report] = simulate_points(timings, [n], 1, seed)
            if run(n, 1, g, seed).tx_slots == 0:
                assert (report.p_tr, report.p_su, report.p_col, report.throughput) == (
                    0.0, 1.0, 0.0, 0.0)
                assert math.isfinite(report.t_td_us)
                idle += 1
    assert idle > 0


def test_lone_simulated_station_never_collides_nor_sees_a_busy_slot():
    for slots in (1, 7, 3000):
        for seed in range(3):
            [report] = simulate_points(MacTimings(), [1], slots, seed)
            assert report.p_col == report.p_bus == 0.0, (slots, seed)
            assert all(type(field) is float for field in report)
