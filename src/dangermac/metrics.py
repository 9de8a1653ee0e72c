"""Performance figures derived from the solved transmission probability.

Everything here is a pure function of (tau, n) plus the configured frame
timings: slot-level access probabilities, normalized throughput, the
five-way slot-state probabilities seen by a tagged station, and the
aggregate delay decomposition over an observation window.

``n`` is the number of contending stations. It may be fractional when it
is the exact expected number of granted contenders
(``scenario.expected_n_eff``); the formulas extend smoothly, with
delivery ratios clamped into [0, 1].

These functions are the component API: the delay breakdown and the two
slot states that are not report columns come from them. Each reads one
private definition of its formula (``_slot_terms``, ``_rate``,
``_delay_charges`` and ``_delay``), which ``pipeline``'s one report
builder reads too: ``evaluate_points`` feeds it the chain's terms and
``simulate_points`` a run's measured ratios.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import MacTimings


class AccessProbabilities(NamedTuple):
    """Per-slot transmission activity for n contenders.

    p_tr: probability at least one station transmits in a slot.
    p_su: probability a transmission slot is a success (single transmitter).
    """

    p_tr: float
    p_su: float


class DelayStates(NamedTuple):
    """Slot-state probabilities for a tagged station among n contenders.

    p_emp: idle slot. p_suc: exactly one other station succeeds.
    p_own: the tagged station transmits alone. p_col: the tagged station
    collides with exactly one other. p_bus: residual busy state, defined
    so the five always sum to one. With a single contender the
    neighbour-dependent terms vanish.
    """

    p_emp: float
    p_suc: float
    p_own: float
    p_col: float
    p_bus: float


class DelayBreakdown(NamedTuple):
    n_transmission: float
    n_collision: float
    t_tt_us: float       # time spent in (attempted) transmissions
    t_tc_us: float       # time lost to collisions
    cw_star_us: float    # mean initial backoff
    t_emp_us: float      # idle time
    t_td_us: float       # total: t_tt + t_tc + cw_star + t_emp


def _pow(base: float, exponent: float) -> float:
    # 0**negative would blow up; the limit of interest is 1 at exponent 0.
    if base == 0.0:
        return 1.0 if exponent == 0.0 else 0.0
    return base ** exponent


def _slot_terms(tau: float, n: float) -> tuple[float, ...]:
    """``(p_emp, p_tr, p_su, p_suc, p_own, p_pair)`` for n stations at ``tau``.

    The one definition of the slot-state terms. ``p_pair`` is the tagged
    pair's collision state, ``DelayStates.p_col``.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1] (got {tau})")
    if not n >= 0:
        raise ValueError(f"n must be >= 0 (got {n})")
    q = 1.0 - tau
    p_emp = _pow(q, n)
    p_tr = 1.0 - p_emp
    if n == 0:
        return p_emp, p_tr, 1.0, 0.0, 0.0, 0.0
    q_others = _pow(q, n - 1.0)
    others = max(n - 1.0, 0.0)
    if p_tr <= 0.0 or n <= 1.0:
        p_su = 1.0  # alone, or silent: every transmission (vacuously) succeeds
    elif q == 0.0:
        p_su = 0.0
    else:
        p_su = min(1.0, n * tau * q_others / p_tr)
    return (p_emp, p_tr, p_su, others * tau * q_others, tau * q_others,
            others * tau * tau * _pow(q, n - 2.0))


def access_probabilities(tau: float, n: float) -> AccessProbabilities:
    """Slot occupancy and success probabilities for n independent stations."""
    _, p_tr, p_su, *_ = _slot_terms(tau, n)
    return AccessProbabilities(p_tr=p_tr, p_su=p_su)


def pdr(ap: AccessProbabilities) -> float:
    """Packet delivery ratio: the fraction of transmissions that succeed."""
    return ap.p_su


def frame_times(t: MacTimings) -> tuple[float, float]:
    """(successful-exchange time, collision time) in us.

    A success occupies header + payload + SIFS + ACK + DIFS plus two
    propagation crossings; a collision is discovered without the ACK leg.
    """
    t_s = (t.header_us + t.payload_us + t.sifs_us + t.prop_delay_us
           + t.ack_us + t.difs_us + t.prop_delay_us)
    t_c = t.header_us + t.payload_us + t.difs_us + t.prop_delay_us
    return t_s, t_c


def _rate(p_tr: float, p_su: float, slot_us: float, payload_us: float,
          t_s: float, t_c: float) -> float:
    """The throughput ratio at access ``(p_tr, p_su)`` and frame times ``(t_s, t_c)``."""
    if p_tr == 0.0:
        return 0.0
    return p_su * p_tr * payload_us / ((1.0 - p_tr) * slot_us + p_tr * p_su * t_s
                                       + p_tr * (1.0 - p_su) * t_c)


def throughput(ap: AccessProbabilities, t: MacTimings) -> float:
    """Normalized saturation throughput: payload air time per channel time.

    An idle slot lasts ``slot_us``; a success and a collision last their
    ``frame_times`` (Bianchi, IEEE JSAC 18(3), 2000).
    """
    t_s, t_c = frame_times(t)
    return _rate(ap.p_tr, ap.p_su, t.slot_us, t.payload_us, t_s, t_c)


def delay_state_probabilities(tau: float, n: float) -> DelayStates:
    """Probabilities of the five slot states around a tagged station.

    The busy term is the residual, so the five sum to exactly one. For
    non-integer n below 2 the residual is an analytic continuation and can
    dip below zero; integer populations always give proper probabilities.
    For 0 < n < 1 they are not probabilities at all: ``(1 - tau)**(n - 1)``
    exceeds 1, so ``p_own`` exceeds ``tau`` and can exceed 1, and
    ``p_emp + p_own`` exceeds 1. At n = 0.0049 and tau = 2/9 (the default
    geometry) ``p_emp`` is 0.9988 and ``p_own`` 0.2854; at tau = 2/3
    (``cw_min`` 1) ``p_own`` is 1.989. ROADMAP items 6 and 7 plan the mend.
    """
    p_emp, _, _, p_suc, p_own, p_col = _slot_terms(tau, n)
    # subtract the left-to-right partial sum so the five-term total is an
    # exact 1.0 when re-added in field order
    p_bus = 1.0 - (p_emp + p_suc + p_own + p_col)
    return DelayStates(p_emp=p_emp, p_suc=p_suc, p_own=p_own, p_col=p_col, p_bus=p_bus)


def _delay_charges(t: MacTimings) -> tuple[float, float, float, float]:
    """Per-event delay charges in us: a transmission, a collision, the mean
    initial backoff and an idle slot."""
    return (t.rts_us + t.cts_us + 3.0 * t.sifs_us + t.payload_us + t.ack_us + t.difs_us,
            t.rts_us + t.difs_us, t.cw_min * t.slot_us / 2.0, t.slot_us)


def _delay(charges: tuple[float, float, float, float], p_tr: float, p_col: float,
           p_emp: float, n: float) -> tuple[float, ...]:
    """``DelayBreakdown``'s fields, in order, for ``n`` transmitters."""
    t_single_tx, t_single_coll, cw_star, slot_us = charges
    n_transmission = p_tr * n
    n_collision = p_col * n
    t_tt = t_single_tx * n_transmission
    t_tc = t_single_coll * n_collision
    t_emp = slot_us * p_emp * n
    return n_transmission, n_collision, t_tt, t_tc, cw_star, t_emp, t_tt + t_tc + cw_star + t_emp


def total_delay(
    states: DelayStates,
    p_tr: float,
    n_transmitter: float,
    t: MacTimings,
) -> DelayBreakdown:
    """Aggregate delay decomposition across ``n_transmitter`` stations.

    Expected transmission and collision counts scale the per-event costs;
    the idle component charges one slot per station weighted by the empty
    probability, mirroring how the event counts are formed. The mean
    initial backoff is half the minimum window in slot time.
    """
    if not n_transmitter >= 0:
        raise ValueError(f"n_transmitter must be >= 0 (got {n_transmitter})")
    return DelayBreakdown(*_delay(_delay_charges(t), p_tr, states.p_col, states.p_emp,
                                  n_transmitter))
