import errno
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

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
from dangermac.cli import main
from dangermac.slotsim import run

simulate_runs = pipeline._simulate_runs

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


def _published_report(timings: MacTimings, n_eff: float, model_mode: str) -> PerfReport:
    """The report written out from the published formulas, apart from
    ``metrics``: p_tr, p_s and S of Bianchi (IEEE JSAC 18(3), 2000), and
    the tagged states and delay total as README states them, each in the
    order of operations that the report takes."""
    if n_eff > 0:
        s = solve_fixed_point(n_eff, geometry_from(timings), model_mode)
        tau, p_c, p_b = s.tau, s.p_c, s.p_b
    else:
        tau, p_c, p_b = 0.0, 0.0, 0.0
    n, t = n_eff, timings
    q = 1.0 - tau  # above 0: tau is at most 2 / (w0 + 1) <= 2/3
    p_tr = 1.0 - q ** n
    # p_s = n tau (1 - tau)^(n-1) / p_tr, clamped into [0, 1]; a lone or
    # silent station's transmissions all succeed
    p_su = 1.0 if p_tr <= 0.0 or n <= 1.0 else min(1.0, n * tau * q ** (n - 1.0) / p_tr)
    # S = p_s p_tr E[P] / ((1 - p_tr) sigma + p_tr p_s T_s + p_tr (1 - p_s) T_c)
    t_s = (t.header_us + t.payload_us + t.sifs_us + t.prop_delay_us + t.ack_us + t.difs_us
           + t.prop_delay_us)
    t_c = t.header_us + t.payload_us + t.difs_us + t.prop_delay_us
    rate = p_su * p_tr * t.payload_us / ((1.0 - p_tr) * t.slot_us + p_tr * p_su * t_s
                                         + p_tr * (1.0 - p_su) * t_c)
    # the tagged states, with no other station below one contender
    others = max(n - 1.0, 0.0)
    p_emp = q ** n
    p_suc = others * tau * q ** (n - 1.0)
    p_own = tau * q ** (n - 1.0)
    p_pair = others * tau * tau * q ** (n - 2.0)
    t_tx = t.rts_us + t.cts_us + 3.0 * t.sifs_us + t.payload_us + t.ack_us + t.difs_us
    t_coll = t.rts_us + t.difs_us
    t_td_us = (t_tx * (p_tr * n) + t_coll * (p_pair * n) + t.cw_min * t.slot_us / 2.0
               + t.slot_us * p_emp * n)
    return PerfReport(n_eff, tau, p_tr, p_su, p_su, rate, p_emp, p_suc, p_own, p_c, p_b, t_td_us)


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
    published = {n: _bits(_published_report(timings, n, mode)) for n in expected}
    reports = evaluate_points(timings, n_effs, mode)
    assert [_bits(r) for r in reports] == [expected[n] for n in n_effs]
    assert [_bits(r) for r in reports] == [published[n] for n in n_effs]


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


# (count, seed) jobs of mixed cost, with repeated counts and seeds
JOBS = [(5, 1), (50, 0), (1, 3), (2, 1), (50, 2), (5, 0), (1, 1)]


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count the simulator map sees; after the test, no
    child process may be left, running or unreaped."""
    if not hasattr(os, "fork"):
        pytest.skip("the simulator map forks no worker without os.fork")
    yield lambda count: monkeypatch.setattr(pipeline, "_usable_cpus", lambda: count)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_compare(capsys, *argv):
    code = main(["compare", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usable_cpus_reads_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert pipeline._usable_cpus() == len(os.sched_getaffinity(0))
    assert pipeline._usable_cpus() >= 1


def test_shares_stripe_the_jobs_largest_count_first():
    counts = [n for n, _ in JOBS]
    assert pipeline._shares(counts, 1) == [[1, 4, 0, 5, 3, 2, 6]]
    assert pipeline._shares(counts, 2) == [[1, 0, 3, 6], [4, 5, 2]]
    assert pipeline._shares(counts, 3) == [[1, 5, 6], [4, 3], [0, 2]]
    assert pipeline._shares([], 1) == [[]]


@pytest.mark.parametrize("count", [1, 2, 3, len(JOBS) + 5])
def test_run_jobs_equals_serial_runs(cpus, count):
    cpus(count)
    g = geometry_from(MacTimings(cw_min=15))
    assert pipeline._run_jobs(JOBS, 3000, g) == [run(n, 3000, g, seed) for n, seed in JOBS]
    timings = MacTimings()
    assert simulate_runs(timings, JOBS, 2000) == [
        simulate_points(timings, [n], 2000, seed)[0] for n, seed in JOBS]
    assert simulate_points(timings, [1, 5, 50], 2000, 4) == simulate_runs(
        timings, [(1, 4), (5, 4), (50, 4)], 2000)
    assert simulate_runs(timings, [], 2000) == []


def test_one_worker_forks_nothing(cpus, monkeypatch):
    cpus(1)

    def refuse():
        raise AssertionError("forked with one worker")

    monkeypatch.setattr(os, "fork", refuse)
    g = geometry_from(MacTimings())
    assert pipeline._run_jobs(JOBS, 500, g) == [run(n, 500, g, seed) for n, seed in JOBS]


@pytest.mark.parametrize("fails", ["pipe", "fork"])
def test_a_share_that_cannot_fork_runs_in_this_process(cpus, monkeypatch, fails):
    cpus(3)

    def refuse(*args):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, fails, refuse)
    opened = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    g = geometry_from(MacTimings())
    assert pipeline._run_jobs(JOBS, 500, g) == [run(n, 500, g, seed) for n, seed in JOBS]
    if opened is not None:  # no pipe end is left open
        assert len(os.listdir("/proc/self/fd")) == opened


def test_compare_output_is_the_same_for_every_worker_count(cpus, capsys):
    argv = ["--n-list", "1,2,5,50", "--slots", "3000", "--seeds", "0,1,7"]
    outputs = set()
    for count in (1, 2, 5, 20):
        cpus(count)
        code, out, err = run_compare(capsys, *argv)
        assert (code, err) == (0, "")
        outputs.add(out)
    assert len(outputs) == 1


def test_an_error_raised_in_a_worker_reaches_the_command_line(cpus, capsys, monkeypatch):
    # the parent runs the first share: reversed, the too-large count runs in the child
    cpus(2)
    shares = pipeline._shares
    monkeypatch.setattr(pipeline, "_shares", lambda costs, workers: shares(costs, workers)[::-1])
    code, out, err = run_compare(capsys, "--n-list", f"1,{10**300}", "--slots", "1")
    assert (code, out) == (1, "")
    assert err == f"error: n must be <= {sys.maxsize}\n"


def test_the_first_failing_job_gives_the_error(cpus):
    # the parent's own job fails too, but later in job order
    cpus(3)
    with pytest.raises(ValueError, match=r"^seed must be >= 0 \(got -1\)$"):
        simulate_runs(MacTimings(), [(2, 0), (5, -1), (10**40, 2)], 100)


def _in_children_only(action):
    """A ``run`` that does ``action`` in a forked worker and runs as usual in
    this process."""
    parent = os.getpid()

    def patched(n, slots, g, seed):
        if os.getpid() != parent:
            return action()
        return run(n, slots, g, seed)

    return patched


def test_a_killed_worker_is_one_error_line(cpus, capsys, monkeypatch):
    cpus(2)
    monkeypatch.setattr(pipeline, "run", _in_children_only(
        lambda: os.kill(os.getpid(), 9)))
    code, out, err = run_compare(capsys, "--n-list", "2,5", "--slots", "100")
    assert (code, out) == (1, "")
    assert err == "error: a simulator worker was killed by signal 9 (SIGKILL)\n"


def test_a_worker_that_cannot_send_its_results_is_one_error_line(cpus, capsys, monkeypatch):
    cpus(2)
    monkeypatch.setattr(pipeline, "run", _in_children_only(lambda: lambda: None))  # unpicklable
    code, out, err = run_compare(capsys, "--n-list", "2,5", "--slots", "100")
    assert (code, out) == (1, "")
    assert err == "error: a simulator worker exited with status 1 without its results\n"


def test_an_interrupt_kills_the_running_workers(cpus, monkeypatch):
    cpus(2)
    parent = os.getpid()

    def patched(n, slots, g, seed):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)

    monkeypatch.setattr(pipeline, "run", patched)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        simulate_runs(MacTimings(), [(2, 0), (5, 0)], 100)
    assert time.perf_counter() - start < 10


def test_a_compare_beside_another_thread_raises_no_warning(cpus, capsys):
    # Python 3.12+ warns at a fork while another thread runs; the suite's
    # filterwarnings = error makes any warning fail this test
    cpus(2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        code, out, err = run_compare(capsys, "--n-list", "2,5,50", "--slots", "2000")
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4


def test_the_sigterm_handler_is_set_only_while_workers_run(cpus, monkeypatch):
    cpus(2)
    seen = []
    parent = os.getpid()

    def patched(n, slots, g, seed):
        if os.getpid() == parent:
            seen.append(signal.getsignal(signal.SIGTERM))
        return run(n, slots, g, seed)

    monkeypatch.setattr(pipeline, "run", patched)
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    simulate_runs(MacTimings(), [(2, 0), (5, 0)], 100)
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    assert len(seen) == 1 and seen[0] != signal.SIG_DFL

    # a handler someone else set stays as it is
    def mine(signum, frame):
        pass

    seen.clear()
    signal.signal(signal.SIGTERM, mine)
    try:
        simulate_runs(MacTimings(), [(2, 0), (5, 0)], 100)
        assert seen == [mine] and signal.getsignal(signal.SIGTERM) is mine
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


# a compare whose runs sleep, with two usable CPUs; each worker prints its
# pid once it runs
_SLEEPING_COMPARE = """
import os, sys, time
import dangermac.pipeline as pipeline
from dangermac.cli import main

parent = os.getpid()

def run(n, slots, g, seed):
    if os.getpid() != parent:
        print(os.getpid(), flush=True)
    time.sleep(60)

pipeline._usable_cpus = lambda: 2
pipeline.run = run
sys.exit(main(["compare", "--n-list", "2,5", "--slots", "100"]))
"""


def test_a_sigterm_kills_the_workers_before_compare_ends():
    if not hasattr(os, "fork"):
        pytest.skip("the simulator map forks no worker without os.fork")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen([sys.executable, "-c", _SLEEPING_COMPARE],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        worker = int(proc.stdout.readline())
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=10)
    finally:
        proc.kill()
    try:
        os.kill(worker, signal.SIGKILL)
        outlived = True
    except ProcessLookupError:
        outlived = False
    _, stderr = proc.communicate()
    assert not outlived, f"worker {worker} outlived compare"
    assert (code, stderr) == (128 + signal.SIGTERM, "")
