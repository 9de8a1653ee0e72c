"""Glue between the chain solver, the slot simulator and the metric set.

``evaluate_point`` turns an effective contender count into the complete
performance report, one flat record whose fields are the report's CSV
columns. ``evaluate_points``, the path every CLI command takes, and
``simulate_points``, its simulator counterpart, map a list of counts to
one result each and compute each distinct count once. A contender count
may be an expected value, hence fractional; zero contenders skip the
solve or the run and give a silent network.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple

from .config import MacTimings
from .markov import ChainGeometry, solve_fixed_point
from .metrics import (
    AccessProbabilities,
    access_probabilities,
    delay_state_probabilities,
    pdr,
    throughput,
    total_delay,
)
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


def evaluate_point(
    timings: MacTimings,
    n_eff: float,
    model_mode: str = "busy_aware",
) -> PerfReport:
    """Full analytic report for ``n_eff`` contenders.

    Raises ValueError when the report's delay or throughput is not finite,
    as when the population or the timings are too large for a float.
    """
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


def evaluate_points(
    timings: MacTimings,
    n_effs: list[float],
    model_mode: str,
) -> list[PerfReport]:
    """One report per count in ``n_effs``, in order; equal counts share one.

    ``evaluate_point`` is pure, so each distinct count is evaluated once.
    The reports are kept only for this call: nothing is cached across calls.
    """
    reports = {n_eff: evaluate_point(timings, n_eff, model_mode)
               for n_eff in dict.fromkeys(n_effs)}
    return [reports[n_eff] for n_eff in n_effs]


def simulate_points(timings: MacTimings, counts: list[int], slots: int,
                    seed: int) -> list[tuple[float, float, float]]:
    """Measured ``(tau, p_su, throughput)`` per station count, in order.

    Each distinct nonzero count is run once, ``slots`` slots at ``seed``;
    count 0 is the silent network ``(0.0, 1.0, 0.0)``. ``tau`` is attempts
    per station-slot, ``p_su`` successes per busy slot (1 when none was
    busy), and ``throughput`` the chain's formula at the measured access,
    ``p_tr = tx_slots / slots``. Nothing is kept between calls.
    """
    geometry = geometry_from(timings)
    measured = {0: (0.0, 1.0, 0.0)}
    for n in counts:
        if n not in measured:
            sim = run(n, slots, geometry, seed)
            p_su = sim.success_slots / sim.tx_slots if sim.tx_slots else 1.0
            access = AccessProbabilities(p_tr=sim.tx_slots / slots, p_su=p_su)
            measured[n] = (sim.attempts / (n * slots), p_su, throughput(access, timings))
    return [measured[n] for n in counts]


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
