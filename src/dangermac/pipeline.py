"""Glue between the chain solver, the slot simulator and the metric set.

``evaluate_points``, the one evaluation path every CLI command takes,
turns a list of effective contender counts into complete performance
reports, one flat record per count whose fields are the report's CSV
columns. It computes the per-call constants once (the chain geometry, the
frame times and the delay charges), then solves each distinct count once
and builds its report from the private formula helpers of ``metrics``,
which the public metric functions read too: each formula has one
definition.
``evaluate_point`` is ``evaluate_points`` of one count. A contender count
there may be an expected value, hence fractional; zero contenders skip the
solve and give a silent network. ``simulate_points``, the simulator
counterpart that ``compare`` runs, takes whole station counts of at least
one and runs each.
"""

from __future__ import annotations

import math
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


def evaluate_points(
    timings: MacTimings,
    n_effs: list[float],
    model_mode: str,
) -> list[PerfReport]:
    """One full analytic report per count in ``n_effs``, in order.

    The per-call constants (the chain geometry, the frame times and the
    delay charges) are computed once. Each distinct count is then solved
    once and its report built from ``metrics``' slot-state, throughput and
    delay helpers, the definitions that ``access_probabilities``,
    ``delay_state_probabilities``, ``throughput`` and ``total_delay``
    read, so the reports equal that composition bit for bit. Equal counts
    share one report, kept only for this call: nothing is cached across
    calls.

    Raises ValueError for a negative or NaN count, and when a report's
    delay or throughput is not finite, as when the population or the
    timings are too large for a float.
    """
    geometry = geometry_from(timings)
    slot_us, payload_us = timings.slot_us, timings.payload_us
    t_s, t_c = frame_times(timings)
    charges = _delay_charges(timings)
    reports = {}
    for n in dict.fromkeys(n_effs):
        if n > 0:
            s = solve_fixed_point(n, geometry, model_mode)
            tau, p_c, p_b = s.tau, s.p_c, s.p_b
        else:
            tau, p_c, p_b = 0.0, 0.0, 0.0
        # a negative or NaN count skips the solve, and _slot_terms rejects it
        p_emp, p_tr, p_su, p_suc, p_own, p_pair = _slot_terms(tau, n)
        rate = _rate(p_tr, p_su, slot_us, payload_us, t_s, t_c)
        t_td_us = _delay(charges, p_tr, p_pair, p_emp, n)[-1]
        if not math.isfinite(t_td_us + rate):
            raise ValueError(
                f"the delay or throughput at n_eff {n:g} is not finite "
                f"(t_td_us {t_td_us:g}, throughput {rate:g}); "
                "the population or the timings are too large")
        reports[n] = PerfReport(n, tau, p_tr, p_su, p_su, rate,
                                p_emp, p_suc, p_own, p_c, p_b, t_td_us)
    return [reports[n_eff] for n_eff in n_effs]


def evaluate_point(
    timings: MacTimings,
    n_eff: float,
    model_mode: str = "busy_aware",
) -> PerfReport:
    """Full analytic report for ``n_eff`` contenders: ``evaluate_points``
    of the one count."""
    return evaluate_points(timings, [n_eff], model_mode)[0]


def simulate_points(timings: MacTimings, counts: list[int], slots: int,
                    seed: int) -> list[tuple[float, float, float]]:
    """Measured ``(tau, p_su, throughput)`` per station count, in order.

    Each count is run ``slots`` slots at ``seed``; ``run`` rejects a count
    below 1. ``tau`` is attempts per station-slot, ``p_su`` successes per
    busy slot (1 when none was busy), and ``throughput`` the chain's
    ratio (``metrics._rate``) at the measured ``p_tr = tx_slots / slots``.
    """
    geometry = geometry_from(timings)
    t_s, t_c = frame_times(timings)
    measured = []
    for n in counts:
        sim = run(n, slots, geometry, seed)
        p_su = sim.success_slots / sim.tx_slots if sim.tx_slots else 1.0
        rate = _rate(sim.tx_slots / slots, p_su, timings.slot_us, timings.payload_us, t_s, t_c)
        measured.append((sim.attempts / (n * slots), p_su, rate))
    return measured


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
        raise ValueError(f"unknown metric: {metric!r}") from None


def metric_value(report: PerfReport, metric: str) -> float:
    """Value of one plottable sweep metric: ``metric_column(metric)(report)``."""
    return metric_column(metric)(report)
