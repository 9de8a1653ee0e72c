"""Busy-aware DCF backoff chain: closed-form stationary tau and fixed point.

A saturated station is modelled as a two-dimensional Markov chain over
(backoff stage, backoff counter). Windows double per stage up to the
maximum stage, where collisions re-enter the same stage. While counting
down, the counter holds in place with probability ``p_b / W_i`` per slot
(the busy self-loop of stage ``i``); a stage-``i`` window of size ``W_i``
therefore accumulates extra occupancy by the factor ``1 / (1 - p_b/W_i)``.
From a transmission state the station returns to stage 0 on success and
advances one stage (capped) on collision, drawing uniformly over the
destination window either way.

The per-slot transmission probability ``tau`` is the stationary mass of the
counter-zero states: one attempt per D slots, T = 1 / D(p_c, p_b), where D
is the mean number of slots per attempt. D sums each stage's mean
occupancy per attempt weighted by the share of attempts made from that
stage; those stage coefficients sum to exactly 1. ``_slots_per_attempt``
is its one closed form, evaluated by Horner's rule over a per-solve tuple
of ``(W_i, (W_i - 1) / 2)``; the tests check it against the per-stage
form and a power iteration of the explicit transition matrix. The model
is closed over ``n`` contenders by a bracketed solve of tau = T(tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .config import MODEL_MODES


@dataclass(frozen=True)
class ChainGeometry:
    """Backoff-stage structure: ``max_stage + 1`` stages, windows ``2^i * w0``."""

    max_stage: int
    w0: int

    def __post_init__(self):
        if self.max_stage < 0:
            raise ValueError(f"max_stage must be >= 0 (got {self.max_stage})")
        if self.w0 < 2:
            raise ValueError(f"w0 must be >= 2 (got {self.w0})")

    def window(self, stage: int) -> int:
        """Window of ``stage``: ``2**stage * w0`` counter values."""
        if not 0 <= stage <= self.max_stage:
            raise ValueError(f"stage must be in [0, {self.max_stage}] (got {stage})")
        return (1 << stage) * self.w0


class FixedPointSolution(NamedTuple):
    tau: float
    p_c: float
    p_b: float
    iterations: int
    residual: float


def _stage_terms(g: ChainGeometry) -> tuple[tuple[int, float], ...]:
    """``(W_i, (W_i - 1) / 2)`` for each stage, top stage first."""
    stages = []
    w = g.window(g.max_stage)
    while w >= g.w0:
        stages.append((w, (w - 1) / 2))
        w >>= 1
    return tuple(stages)


def _slots_per_attempt(p_c: float, p_b: float, stages: tuple[tuple[int, float], ...]) -> float:
    """D(p_c, p_b), the mean number of slots per transmission attempt.

    Stage i < max receives collision inflow from stage i-1 only, so its
    transmission state carries p_c**i times b00. The top stage also feeds
    itself on collision, which sums the geometric tail into
    p_c**m / (1 - p_c). Scaled by ``1 - p_c``, the stage coefficients are
    c_i = p_c**i (1 - p_c) below the top and c_m = p_c**m. They sum to
    exactly 1, as c_i is the share of attempts made from stage i. A
    stage-i attempt spends k_i = 1 + h_i / (1 - p_b/W_i) slots in its
    stage: h_i = (W_i - 1) / 2 is the mean counter, and 1 / (1 - p_b/W_i)
    the busy self-loop's stretch of each counter value. So D = sum c_i k_i,
    which Horner's rule gives from the top stage down (``stages`` order) as
    d <- d p_c + (1 - p_c) k_i, starting from d = k_m. At ``p_c = 1`` it is
    the finite limit k_m (only the top stage transmits) rather than a
    division by zero; a single stage (max_stage 0) gives k_0 whatever p_c.
    """
    stages = iter(stages)
    w, h = next(stages)
    d = 1.0 + h / (1.0 - p_b / w)
    q = 1.0 - p_c
    for w, h in stages:
        d = d * p_c + q * (1.0 + h / (1.0 - p_b / w))
    return d


def _collision_probability(tau: float, others: float) -> float:
    """``1 - (1 - tau)**others``: that one of ``others`` stations transmits.

    ``others`` may be fractional (a population average) and is 0 below one
    contender. The value rounds to 1 from about 150 contenders, which
    :func:`_slots_per_attempt` takes as its finite limit.
    """
    return -math.expm1(others * math.log1p(-tau))


# The solve stops once its bracket is this narrow relative to its upper
# end: a few ulps, below which the secant and midpoint steps are rounding.
_BRACKET_REL_WIDTH = 1e-15


def solve_fixed_point(n: float, g: ChainGeometry, mode: str = "busy_aware") -> FixedPointSolution:
    """Solve tau = T(tau) for ``n`` contenders by Illinois regula falsi.

    T(tau) = 1 / D(p_c, p_b) closes the chain over the population: both
    the collision and the busy event are "at least one of the other n - 1
    stations transmits in the slot", p_c = 1 - (1 - tau)^(n-1), and
    ``classic`` mode drops the busy feedback (p_b = 0), recovering plain
    binary exponential backoff. The loop evaluates only the float
    f(tau) = tau - 1/D; ``p_c`` and ``p_b`` are computed once, at the
    returned tau.

    f(tau) is negative at 0, where T = 2 / (w0 + 1), and non-negative at
    2 / (w0 + 1), the most T can be, so the root lies in that bracket
    (exactly at its upper end for n <= 1). Each step replaces one end by
    the secant point (the midpoint when the secant point is not strictly
    inside), halving the kept end's f when the same end is kept twice
    (Dowell & Jarratt, BIT 11, 1971). The solve ends when the
    bracket is a few ulps wide or the midpoint cannot split it, and
    returns the end with the smaller |f|. ``iterations`` counts map
    calls; ``residual`` is |T(tau) - tau| at the returned tau.
    Deterministic: same inputs, same bits.
    """
    if mode not in MODEL_MODES:
        raise ValueError(f"mode must be one of {MODEL_MODES} (got {mode!r})")
    if not n > 0:
        raise ValueError(f"n must be > 0 (got {n})")
    stages = _stage_terms(g)
    others = max(n - 1.0, 0.0)
    busy = mode == "busy_aware"

    def f(tau: float) -> float:
        p_c = _collision_probability(tau, others)
        return tau - 1.0 / _slots_per_attempt(p_c, p_c if busy else 0.0, stages)

    hi = 2.0 / (g.w0 + 1.0)
    f_hi = f(hi)
    lo, f_lo = 0.0, -hi
    weight_lo, weight_hi, kept = f_lo, f_hi, None
    calls = 1
    while f_hi > 0.0:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi or hi - lo <= _BRACKET_REL_WIDTH * hi:
            break
        tau = hi - weight_hi * (hi - lo) / (weight_hi - weight_lo)
        if not lo < tau < hi:
            tau = mid
        f_tau = f(tau)
        calls += 1
        if f_tau >= 0.0:
            hi, f_hi, weight_hi = tau, f_tau, f_tau
            if kept == "lo":
                weight_lo *= 0.5
            kept = "lo"
        else:
            lo, f_lo, weight_lo = tau, f_tau, f_tau
            if kept == "hi":
                weight_hi *= 0.5
            kept = "hi"
    tau, f_tau = (lo, f_lo) if lo > 0.0 and -f_lo < f_hi else (hi, f_hi)
    p_c = _collision_probability(tau, others)
    return FixedPointSolution(tau=tau, p_c=p_c, p_b=p_c if busy else 0.0,
                              iterations=calls, residual=abs(f_tau))
