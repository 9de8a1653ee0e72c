"""Performance figures derived from the solved transmission probability.

Everything here is a pure function of (tau, n) plus the configured frame
timings: slot-level access probabilities, normalized throughput, the
five-way slot-state probabilities seen by a tagged station, and the
aggregate delay decomposition over an observation window.

``n`` is the number of contending stations. It may be fractional when it
is the exact expected number of granted contenders
(``scenario.expected_n_eff``); the formulas extend smoothly, with
delivery ratios clamped into [0, 1].
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


def access_probabilities(tau: float, n: float) -> AccessProbabilities:
    """Slot occupancy and success probabilities for n independent stations."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1] (got {tau})")
    if n < 0:
        raise ValueError(f"n must be >= 0 (got {n})")
    q = 1.0 - tau
    p_tr = 1.0 - _pow(q, n)
    if p_tr <= 0.0 or n <= 1.0:
        p_su = 1.0  # alone, or silent: every transmission (vacuously) succeeds
    elif q == 0.0:
        p_su = 0.0
    else:
        p_su = min(1.0, n * tau * _pow(q, n - 1.0) / p_tr)
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


def throughput(ap: AccessProbabilities, t: MacTimings) -> float:
    """Normalized saturation throughput: payload air time per channel time.

    An idle slot lasts ``slot_us``; a success and a collision last their
    ``frame_times`` (Bianchi, IEEE JSAC 18(3), 2000).
    """
    t_s, t_c = frame_times(t)
    denom = ((1.0 - ap.p_tr) * t.slot_us + ap.p_tr * ap.p_su * t_s
             + ap.p_tr * (1.0 - ap.p_su) * t_c)
    return 0.0 if ap.p_tr == 0.0 else ap.p_su * ap.p_tr * t.payload_us / denom


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
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1] (got {tau})")
    if n < 0:
        raise ValueError(f"n must be >= 0 (got {n})")
    q = 1.0 - tau
    p_emp = _pow(q, n)
    if n == 0:
        return DelayStates(p_emp=p_emp, p_suc=0.0, p_own=0.0, p_col=0.0,
                           p_bus=1.0 - p_emp)
    others = max(n - 1.0, 0.0)
    p_own = tau * _pow(q, n - 1.0)
    p_suc = others * tau * _pow(q, n - 1.0)
    p_col = others * tau * tau * _pow(q, n - 2.0)
    # subtract the left-to-right partial sum so the five-term total is an
    # exact 1.0 when re-added in field order
    p_bus = 1.0 - (p_emp + p_suc + p_own + p_col)
    return DelayStates(p_emp=p_emp, p_suc=p_suc, p_own=p_own, p_col=p_col, p_bus=p_bus)


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
    if n_transmitter < 0:
        raise ValueError(f"n_transmitter must be >= 0 (got {n_transmitter})")
    n_transmission = p_tr * n_transmitter
    n_collision = states.p_col * n_transmitter
    t_single_tx = (t.rts_us + t.cts_us + 3.0 * t.sifs_us + t.payload_us
                   + t.ack_us + t.difs_us)
    t_single_coll = t.rts_us + t.difs_us
    t_tt = t_single_tx * n_transmission
    t_tc = t_single_coll * n_collision
    cw_star = t.cw_min * t.slot_us / 2.0
    t_emp = t.slot_us * states.p_emp * n_transmitter
    return DelayBreakdown(
        n_transmission=n_transmission,
        n_collision=n_collision,
        t_tt_us=t_tt,
        t_tc_us=t_tc,
        cw_star_us=cw_star,
        t_emp_us=t_emp,
        t_td_us=t_tt + t_tc + cw_star + t_emp,
    )
