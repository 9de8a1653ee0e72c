"""Glue between the chain solver, the slot simulator and the metric set.

Every CLI command reads ``PerfReport``s, one flat record per count whose
fields are the report's CSV columns, and one private builder makes them
all from a count's tau, slot terms and collision and busy probabilities.
``evaluate_points`` feeds it from the chain's fixed point, solving each
distinct count once. A count there may be an expected value, hence
fractional; zero contenders skip the solve and give a silent network.
``evaluate_point`` is ``evaluate_points`` of one count. ``simulate_points``,
which ``compare`` runs beside the chain, feeds it from the ``SimStats`` of
one run per whole station count.
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


def evaluate_points(
    timings: MacTimings,
    n_effs: list[float],
    model_mode: str,
) -> list[PerfReport]:
    """One full analytic report per count in ``n_effs``, in order.

    Each distinct count is solved once, and ``_report_builder`` makes its
    report from ``metrics``' helpers, the definitions the public metric
    functions read, so the reports equal their composition bit for bit.
    Equal counts share one report, kept only for this call. Raises
    ValueError for a negative or NaN count, and as the builder does.
    """
    geometry = geometry_from(timings)
    build = _report_builder(timings)
    reports = {}
    for n in dict.fromkeys(n_effs):
        if n > 0:
            s = solve_fixed_point(n, geometry, model_mode)
            tau, p_c, p_b = s.tau, s.p_c, s.p_b
        else:
            tau, p_c, p_b = 0.0, 0.0, 0.0
        # a negative or NaN count skips the solve, and _slot_terms rejects it
        reports[n] = build(n, tau, _slot_terms(tau, n), p_c, p_b)
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
                    seed: int) -> list[PerfReport]:
    """One measured report per station count, in order, each from a run of
    ``slots`` slots at ``seed`` (``run`` rejects a count below 1).

    Its fields are the run's ratios, averaged over the stations where a
    quantity is per station: ``tau`` attempts per station-slot, ``p_emp``
    and ``p_tr`` the idle and busy slots, ``p_su`` successes per busy slot
    (1 when none was busy), ``p_col`` collided attempts per attempt (0 with
    none) and ``p_bus`` the busy slots a station sees while not the lone
    sender. ``throughput`` and ``t_td_us`` are the chain's formulas at them.
    """
    geometry = geometry_from(timings)
    build = _report_builder(timings)
    reports = []
    for n in counts:
        sim = run(n, slots, geometry, seed)
        tx, won, attempts = sim.tx_slots, sim.success_slots, sim.attempts
        terms = ((slots - tx) / slots, tx / slots, won / tx if tx else 1.0,
                 won * (n - 1) / (n * slots), won / (n * slots), sim.tagged_pair_slots / slots)
        reports.append(build(float(n), attempts / (n * slots), terms,
                             (attempts - won) / attempts if attempts else 0.0,
                             (n * tx - won) / (n * slots)))
    return reports


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
