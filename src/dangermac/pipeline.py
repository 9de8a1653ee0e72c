"""Glue between the chain solver, the danger filter, and the metric set.

``evaluate_point`` turns an effective contender count into the complete
performance report; ``evaluate_points``, the path every CLI command takes,
does so for a list of counts and evaluates each distinct count once. A
contender count may be an expected value, hence fractional; zero
contenders skip the solve and give a silent-network report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from .config import MacTimings
from .markov import ChainGeometry, solve_fixed_point
from .metrics import (
    AccessProbabilities,
    DelayBreakdown,
    DelayStates,
    access_probabilities,
    delay_state_probabilities,
    pdr,
    throughput,
    total_delay,
)


@dataclass(frozen=True)
class PerfReport:
    n_eff: float
    tau: float
    p_c: float         # per-attempt collision probability at the fixed point
    p_b: float         # per-slot busy probability at the fixed point
    access: AccessProbabilities
    pdr: float
    throughput: float  # payload-time fraction, dimensionless
    states: DelayStates
    delay: DelayBreakdown


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
    report = PerfReport(
        n_eff=n_eff,
        tau=tau,
        p_c=p_c,
        p_b=p_b,
        access=access,
        pdr=pdr(access),
        throughput=throughput(access, timings),
        states=states,
        delay=total_delay(states, access.p_tr, n_eff, timings),
    )
    if not math.isfinite(report.delay.t_td_us + report.throughput):
        raise ValueError(
            f"the delay or throughput at n_eff {n_eff:g} is not finite "
            f"(t_td_us {report.delay.t_td_us:g}, throughput {report.throughput:g}); "
            "the population or the timings are too large")
    return report


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


# The report's CSV columns, in order, and the value each one holds.
REPORT_COLUMNS = {
    "n_eff_mean": attrgetter("n_eff"),
    "tau": attrgetter("tau"),
    "p_tr": attrgetter("access.p_tr"),
    "p_su": attrgetter("access.p_su"),
    "pdr": attrgetter("pdr"),
    "throughput": attrgetter("throughput"),
    "p_emp": attrgetter("states.p_emp"),
    "p_suc": attrgetter("states.p_suc"),
    "p_own": attrgetter("states.p_own"),
    "p_col": attrgetter("p_c"),
    "p_bus": attrgetter("p_b"),
    "t_td_us": attrgetter("delay.t_td_us"),
}

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


def metric_value(report: PerfReport, metric: str) -> float:
    """Value of one plottable sweep metric.

    ``p_col`` and ``p_bus`` are the fixed point's per-attempt collision and
    per-slot busy probabilities (the quantities that respond monotonically
    to thinning the contender population); the tagged-station slot-state
    probabilities live in ``report.states``.
    """
    try:
        column = _METRIC_COLUMNS[metric]
    except KeyError:
        raise ValueError(f"unknown metric: {metric!r}") from None
    return REPORT_COLUMNS[column](report)
