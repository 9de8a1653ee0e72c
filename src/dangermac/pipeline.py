"""Glue between the chain solver, the slot simulator and the metric set.

Every CLI command reads ``PerfReport``s, one flat record per count whose
fields are the report's CSV columns, and one private builder makes them
all from a count's tau, slot terms and collision and busy probabilities.
``_distinct_reports`` feeds it from the chain's fixed point, solving each
distinct count once, and ``evaluate_points`` lays its reports out by
count. A count there may be an expected value, hence fractional; zero
contenders skip the solve and give a silent network.
``evaluate_point`` is ``evaluate_points`` of one count.
``simulate_points``, which ``compare`` runs beside the chain, feeds it from
the ``SimStats`` of one simulator run per station count; ``compare`` hands
all its ``(station count, seed)`` jobs to one call of its private twin
``_simulate_runs``. The runs are independent and seeded, so ``_run_jobs``
runs them side by side in forked worker processes, one per usable CPU, and
the reports are the same bytes whatever the number of workers.
"""

from __future__ import annotations

import math
import os
from operator import attrgetter
from typing import NamedTuple

from .config import MacTimings
from .markov import ChainGeometry, solve_fixed_point
from .metrics import _delay, _delay_charges, _rate, _slot_terms, frame_times
from .slotsim import run


class PerfReport(NamedTuple):
    """One configuration's figures, in the order of the report's CSV columns."""

    n_eff_mean: float  # contender count the chain is solved at
    tau: float
    p_tr: float
    p_su: float
    pdr: float
    throughput: float  # payload-time fraction, dimensionless
    p_emp: float       # tagged-station slot states (delay_state_probabilities)
    p_suc: float
    p_own: float
    p_col: float       # per-attempt collision probability at the fixed point
    p_bus: float       # per-slot busy probability at the fixed point
    t_td_us: float     # total_delay's aggregate delay


# The report's CSV columns, in order.
REPORT_COLUMNS = PerfReport._fields


def geometry_from(timings: MacTimings) -> ChainGeometry:
    return ChainGeometry(max_stage=timings.max_stage, w0=timings.w0)


def _report_builder(timings: MacTimings):
    """The one maker of a ``PerfReport``: ``build(n, tau, terms, p_c, p_b)``
    with ``terms`` in ``_slot_terms``' order. It applies ``_rate``, ``_delay``,
    the finite check and the field order; the frame times and delay charges
    of ``timings`` are taken once, here."""
    slot_us, payload_us = timings.slot_us, timings.payload_us
    t_s, t_c = frame_times(timings)
    charges = _delay_charges(timings)

    def build(n, tau, terms, p_c, p_b) -> PerfReport:
        p_emp, p_tr, p_su, p_suc, p_own, p_pair = terms
        rate = _rate(p_tr, p_su, slot_us, payload_us, t_s, t_c)
        t_td_us = _delay(charges, p_tr, p_pair, p_emp, n)[-1]
        if not math.isfinite(t_td_us + rate):
            raise ValueError(
                f"the delay or throughput at n_eff {n:g} is not finite "
                f"(t_td_us {t_td_us:g}, throughput {rate:g}); "
                "the population or the timings are too large")
        return PerfReport(n, tau, p_tr, p_su, p_su, rate, p_emp, p_suc, p_own, p_c, p_b, t_td_us)

    return build


def _distinct_reports(
    timings: MacTimings,
    n_effs: list[float],
    model_mode: str,
) -> tuple[list[PerfReport], list[int]]:
    """One full analytic report per distinct count in ``n_effs``, in the
    order each is first met, and each count's index into them.

    Each distinct count is solved once, and ``_report_builder`` makes its
    report from ``metrics``' helpers, the definitions the public metric
    functions read, so the reports equal their composition bit for bit.
    This one pass is where equal counts come to share a report. Raises
    ValueError for a negative or NaN count, and as the builder does.
    """
    geometry = geometry_from(timings)
    build = _report_builder(timings)
    index: dict[float, int] = {}
    at = [index.setdefault(n, len(index)) for n in n_effs]
    reports = []
    for n in index:
        if n > 0:
            s = solve_fixed_point(n, geometry, model_mode)
            tau, p_c, p_b = s.tau, s.p_c, s.p_b
        else:
            tau, p_c, p_b = 0.0, 0.0, 0.0
        # a negative or NaN count skips the solve, and _slot_terms rejects it
        reports.append(build(n, tau, _slot_terms(tau, n), p_c, p_b))
    return reports, at


def evaluate_points(
    timings: MacTimings,
    n_effs: list[float],
    model_mode: str,
) -> list[PerfReport]:
    """One full analytic report per count in ``n_effs``, in order: the
    reports of ``_distinct_reports``, which solves each distinct count
    once. Equal counts share one report, kept only for this call."""
    reports, at = _distinct_reports(timings, n_effs, model_mode)
    return [reports[i] for i in at]


def evaluate_point(
    timings: MacTimings,
    n_eff: float,
    model_mode: str = "busy_aware",
) -> PerfReport:
    """Full analytic report for ``n_eff`` contenders: ``evaluate_points``
    of the one count."""
    return evaluate_points(timings, [n_eff], model_mode)[0]


def simulate_points(timings: MacTimings, counts: list[int], slots: int,
                    seed: int) -> list[PerfReport]:
    """One measured report per station count, in order, each from a run of
    ``slots`` slots at ``seed`` (``run`` rejects a count below 1). The runs
    go side by side in up to one process per usable CPU (``_run_jobs``),
    and an error is the first failing count's, as in a loop over the counts.

    Its fields are the run's ratios, averaged over the stations where a
    quantity is per station: ``tau`` attempts per station-slot, ``p_emp``
    and ``p_tr`` the idle and busy slots, ``p_su`` successes per busy slot
    (1 when none was busy), ``p_col`` collided attempts per attempt (0 with
    none) and ``p_bus`` the busy slots a station sees while not the lone
    sender. ``throughput`` and ``t_td_us`` are the chain's formulas at them.
    """
    return _simulate_runs(timings, [(n, seed) for n in counts], slots)


def _simulate_runs(timings: MacTimings, jobs: list[tuple[int, int]],
                   slots: int) -> list[PerfReport]:
    """``simulate_points`` over ``(count, seed)`` jobs, so that ``compare``
    runs every count at every seed in one map."""
    geometry = geometry_from(timings)
    build = _report_builder(timings)
    reports = []
    for (n, _), sim in zip(jobs, _run_jobs(jobs, slots, geometry)):
        if isinstance(sim, Exception):
            raise sim
        tx, won, attempts = sim.tx_slots, sim.success_slots, sim.attempts
        terms = ((slots - tx) / slots, tx / slots, won / tx if tx else 1.0,
                 won * (n - 1) / (n * slots), won / (n * slots), sim.tagged_pair_slots / slots)
        reports.append(build(float(n), attempts / (n * slots), terms,
                             (attempts - won) / attempts if attempts else 0.0,
                             (n * tx - won) / (n * slots)))
    return reports


class WorkerError(RuntimeError):
    """A forked simulator worker ended without sending its results."""


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has
    one, so ``taskset`` limits it); 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(counts: list[int], workers: int) -> list[list[int]]:
    """Job indices per worker: the jobs sorted by station count, largest
    first, and striped over the workers, so the first holds the largest."""
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    return [order[w::workers] for w in range(workers)]


def _worker_error(status: int) -> WorkerError:
    """The error of a worker that ended with ``status`` (as
    ``os.waitstatus_to_exitcode`` gives it, so -9 for SIGKILL) and no results."""
    if status > 0:
        return WorkerError(f"a simulator worker exited with status {status} "
                           "without its results")
    import signal

    try:
        name = f" ({signal.Signals(-status).name})"
    except ValueError:  # a real-time signal has no name
        name = ""
    return WorkerError(f"a simulator worker was killed by signal {-status}{name}")


def _run_share(jobs, share, slots, geometry) -> list:
    """The outcome of each job of ``share``, in its order: the run's
    ``SimStats``, or the exception the run raised."""
    outcomes = []
    for j in share:
        n, seed = jobs[j]
        try:
            outcomes.append(run(n, slots, geometry, seed))
        except Exception as exc:  # raised in job order by the caller
            outcomes.append(exc)
    return outcomes


def _serve(write_end: int, jobs, share, slots, geometry):
    """A forked worker's whole life: run ``share``, send the pickled outcomes
    through ``write_end`` and end the process with status 0, or 1 if
    anything failed, by ``os._exit``, so no parent cleanup or buffered
    output runs twice."""
    code = 1
    try:
        import pickle

        data = memoryview(pickle.dumps(_run_share(jobs, share, slots, geometry)))
        while data:
            data = data[os.write(write_end, data):]
        code = 0
    finally:
        os._exit(code)


def _fork(jobs, share, slots, geometry, sigterm) -> tuple[int, int]:
    """Fork a worker that runs ``share`` (``_serve``): its pid and the read
    end of the pipe it sends its outcomes through. The worker gets
    ``sigterm`` back as its SIGTERM handler when that is not None. Raises
    OSError, with no pipe left open, when no pipe or process can be made."""
    import signal
    import warnings

    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that a fork while other threads run
            # (numpy's OpenBLAS threads, say) may deadlock the child, if the
            # child takes a lock another thread holds. This child runs only
            # pure-Python random, list and heapq code, pickle and os.write,
            # and takes no such lock. Before Python 3.14 catch_warnings saves
            # and restores the process-wide filter list, so a filter another
            # thread sets during the fork is lost.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            if sigterm is not None:
                signal.signal(signal.SIGTERM, sigterm)
            _serve(write_end, jobs, share, slots, geometry)
    except BaseException:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)  # the child never gets here
    return pid, read_end


def _run_jobs(jobs: list[tuple[int, int]], slots: int, geometry: ChainGeometry) -> list:
    """The outcome of ``run(n, slots, geometry, seed)`` for each ``(n, seed)``
    in ``jobs``, in order: its ``SimStats``, or the exception it raised.

    The jobs are dealt to ``min(len(jobs), usable CPUs)`` workers by
    ``_shares``. This process runs the first share itself, so one worker
    forks nothing, and each other share runs in a child made by ``_fork``
    that sends its outcomes back through a pipe; a share whose pipe or
    process cannot be made runs here too. Every run is seeded, so the
    outcomes are the same whatever the number of workers. Every child is
    reaped before this returns or raises: on an error, an interrupt or a
    SIGTERM the children still running are killed first. A child that
    ends without its outcomes raises ``WorkerError``.
    """
    workers = max(1, min(len(jobs), _usable_cpus()))
    own, *others = _shares([n for n, _ in jobs], workers)
    outcomes = [None] * len(jobs)
    children = {}   # pid -> (share, read end of its pipe), until reaped
    sigterm = None  # SIGTERM's handler before this call set on_sigterm
    held = []       # a SIGTERM held off during a fork, a reap or the cleanup
    holding = False

    def on_sigterm(signum, frame):
        # SIGTERM's default action would end this process without running
        # the finally below, and the children would run on: raise instead,
        # but only while every child forked so far is in children (a fork
        # takes about a millisecond, and a reaped pid must not be killed)
        if holding:
            held.append(signum)
        else:
            raise SystemExit(128 + signum)

    def hold(on: bool):
        nonlocal holding
        holding = on
        if not on and held:
            raise SystemExit(128 + held.pop())

    try:
        if others:
            import pickle
            import signal

            try:
                if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
                    sigterm = signal.signal(signal.SIGTERM, on_sigterm)
            except ValueError:  # not the main thread, which alone sets handlers
                pass
        for share in others:
            hold(True)
            try:
                pid, read_end = _fork(jobs, share, slots, geometry, sigterm)
                children[pid] = (share, read_end)
            except OSError:  # no pipe or process to spare (EMFILE, EAGAIN, ENOMEM)
                own += share
            hold(False)
        for j, outcome in zip(own, _run_share(jobs, own, slots, geometry)):
            outcomes[j] = outcome
        for pid, (share, read_end) in list(children.items()):
            chunks = []
            while chunk := os.read(read_end, 1 << 16):
                chunks.append(chunk)
            hold(True)  # the child is ending: reap it
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            os.close(read_end)
            hold(False)
            if status:
                raise _worker_error(status)
            for j, outcome in zip(share, pickle.loads(b"".join(chunks))):
                outcomes[j] = outcome
    finally:
        holding = True
        for pid, (_, read_end) in children.items():  # signal was imported to fork them
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
        if sigterm is not None:
            signal.signal(signal.SIGTERM, sigterm)
            if held:  # a SIGTERM came while the children were killed
                signal.raise_signal(signal.SIGTERM)
    return outcomes


# Metric names accepted by the sweep command, in canonical order, and the
# report column each one plots.
_METRIC_COLUMNS = {
    "pdr": "pdr",
    "throughput": "throughput",
    "total_delay": "t_td_us",
    "p_bus": "p_bus",
    "p_col": "p_col",
    "n_eff": "n_eff_mean",
    "tau": "tau",
}
SWEEP_METRICS = tuple(_METRIC_COLUMNS)


def metric_column(metric: str) -> attrgetter:
    """Getter of one plottable sweep metric: its report column.

    ``p_col`` and ``p_bus`` are the fixed point's per-attempt collision and
    per-slot busy probabilities (the quantities that respond monotonically
    to thinning the contender population).
    """
    try:
        return attrgetter(_METRIC_COLUMNS[metric])
    except KeyError:
        raise ValueError(f"unknown metric: {metric!r} "
                         f"(choose from {', '.join(SWEEP_METRICS)})") from None


def metric_value(report: PerfReport, metric: str) -> float:
    """Value of one plottable sweep metric: ``metric_column(metric)(report)``."""
    return metric_column(metric)(report)
