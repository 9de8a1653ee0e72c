"""Glue between the chain solver, the danger filter, and the metric set.

``evaluate_point`` turns an effective contender count into the complete
performance report; ``evaluate_points``, the path every CLI command takes,
does so for a list of counts and evaluates each distinct count once. A
contender count may be an expected value, hence fractional; zero
contenders skip the solve and give a silent-network report.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .config import MacTimings, derive_durations
from .markov import ChainGeometry, solve_fixed_point
from .metrics import (
    AccessProbabilities,
    DelayBreakdown,
    DelayStates,
    access_probabilities,
    delay_state_probabilities,
    frame_times,
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
    iterations: int
    residual: float
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
    throughput_mode: str = "slot_scaled",
) -> PerfReport:
    """Full analytic report for ``n_eff`` contenders."""
    if n_eff > 0:
        s = solve_fixed_point(n_eff, geometry_from(timings), model_mode)
        tau, p_c, p_b, iterations, residual = s.tau, s.p_c, s.p_b, s.iterations, s.residual
    else:
        tau, p_c, p_b, iterations, residual = 0.0, 0.0, 0.0, 0, 0.0
    d = derive_durations(timings)
    t_s, t_c = frame_times(d, timings)
    access = access_probabilities(tau, n_eff)
    states = delay_state_probabilities(tau, n_eff)
    return PerfReport(
        n_eff=n_eff,
        tau=tau,
        p_c=p_c,
        p_b=p_b,
        iterations=iterations,
        residual=residual,
        access=access,
        pdr=pdr(access),
        throughput=throughput(access, t_s, t_c, d.payload_us, d.t_slot_us,
                              throughput_mode),
        states=states,
        delay=total_delay(states, access.p_tr, n_eff, timings, d),
    )


def evaluate_points(
    timings: MacTimings,
    n_effs: list[float],
    model_mode: str,
    throughput_mode: str,
) -> list[PerfReport]:
    """One report per count in ``n_effs``, in order; equal counts share one.

    ``evaluate_point`` is pure, so each distinct count is evaluated once.
    The reports are kept only for this call: nothing is cached across calls.
    """
    reports = {n_eff: evaluate_point(timings, n_eff, model_mode, throughput_mode)
               for n_eff in dict.fromkeys(n_effs)}
    return [reports[n_eff] for n_eff in n_effs]


# Metric names accepted by the sweep command, in canonical order.
_METRIC_GETTERS = {
    "pdr": attrgetter("pdr"),
    "throughput": attrgetter("throughput"),
    "total_delay": attrgetter("delay.t_td_us"),
    "p_bus": attrgetter("p_b"),
    "p_col": attrgetter("p_c"),
    "n_eff": attrgetter("n_eff"),
    "tau": attrgetter("tau"),
}
SWEEP_METRICS = tuple(_METRIC_GETTERS)


def metric_value(report: PerfReport, metric: str) -> float:
    """Value of one plottable sweep metric.

    ``p_col`` and ``p_bus`` are the fixed point's per-attempt collision and
    per-slot busy probabilities (the quantities that respond monotonically
    to thinning the contender population); the tagged-station slot-state
    probabilities live in ``report.states``.
    """
    try:
        getter = _METRIC_GETTERS[metric]
    except KeyError:
        raise ValueError(f"unknown metric: {metric!r}") from None
    return getter(report)
