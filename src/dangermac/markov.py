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
is its one closed form, evaluated by Horner's rule over a table of
``(W_i, (W_i - 1) / 2)`` floats built once per geometry, the top stage
kept apart as the recurrence's start; the tests check it
against the per-stage form and a power iteration of the explicit
transition matrix, and it returns dD/dp_c and dD/dp_b from the same
pass. The model is closed over ``n`` contenders by a bracketed Newton
solve of tau = T(tau) in the collision probability, about 5 evaluations
of D per solve.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import expm1, log1p
from operator import index
from typing import NamedTuple

from .config import MODEL_MODES


class ChainGeometry(NamedTuple("ChainGeometry", [("max_stage", int), ("w0", int)])):
    """Backoff-stage structure: ``max_stage + 1`` stages, windows ``2^i * w0``.

    The constructor checks both fields, and so do ``pickle`` and
    ``copy``, which call it; ``_make`` and ``_replace`` skip the check,
    and nothing calls them. Both fields are made integers by
    ``operator.index``, which refuses a float: ``_stage_terms`` caches
    its table by geometry, and equal geometries must build equal tables.
    """

    __slots__ = ()

    def __new__(cls, max_stage: int, w0: int):
        max_stage, w0 = index(max_stage), index(w0)
        if max_stage < 0:
            raise ValueError(f"max_stage must be >= 0 (got {max_stage})")
        if w0 < 2:
            raise ValueError(f"w0 must be >= 2 (got {w0})")
        return super().__new__(cls, max_stage, w0)

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


@lru_cache(maxsize=64)
def _stage_terms(g: ChainGeometry) -> tuple[tuple[float, float], tuple[tuple[float, float], ...]]:
    """``(top, rest)``: ``(W_i, (W_i - 1) / 2)`` of the top stage, and of
    the stages below it, top first. Each window is stored as the float
    that every operation on it would convert it to (exact up to the
    configuration's 2^32 cap), so a Horner pass converts none. Built once
    per geometry, which is immutable and hashable, and shared by its
    solves."""
    stages = []
    w = g.window(g.max_stage)
    while w >= g.w0:
        stages.append((float(w), (w - 1) / 2))
        w >>= 1
    return stages[0], tuple(stages[1:])


def _slots_per_attempt(
    p_c: float, p_b: float,
    stages: tuple[tuple[float, float], tuple[tuple[float, float], ...]],
) -> tuple[float, float, float]:
    """D(p_c, p_b), the mean number of slots per transmission attempt, and
    its partial derivatives in ``p_c`` and ``p_b``, from one Horner pass
    over ``_stage_terms``' table.

    Stage i < max receives collision inflow from stage i-1 only, so its
    transmission state carries p_c**i times b00. The top stage also feeds
    itself on collision, which sums the geometric tail into
    p_c**m / (1 - p_c). Scaled by ``1 - p_c``, the stage coefficients are
    c_i = p_c**i (1 - p_c) below the top and c_m = p_c**m. They sum to
    exactly 1, as c_i is the share of attempts made from stage i. A
    stage-i attempt spends k_i = 1 + h_i / (1 - p_b/W_i) slots in its
    stage: h_i = (W_i - 1) / 2 is the mean counter, and 1 / (1 - p_b/W_i)
    the busy self-loop's stretch of each counter value. So D = sum c_i k_i,
    which Horner's rule gives from the top stage down: d = k_m, then
    d <- d p_c + (1 - p_c) k_i over the stages below it. At ``p_c = 1``
    it is the finite limit k_m (only the top stage transmits) rather than
    a division by zero; a single stage (max_stage 0) gives k_0 whatever p_c.
    The derivatives ride along the same recurrence: dD/dp_c as
    d_c <- d_c p_c + d - k_i from 0, and dD/dp_b as
    d_b <- d_b p_c + (1 - p_c) dk_i/dp_b from dk_m/dp_b, where
    dk_i/dp_b = h_i / (W_i (1 - p_b/W_i)^2).
    """
    (w, h), rest = stages
    t = 1.0 - p_b / w
    d = 1.0 + h / t
    d_c = 0.0
    d_b = h / (w * t * t)
    q = 1.0 - p_c
    for w, h in rest:
        t = 1.0 - p_b / w
        k = 1.0 + h / t
        d_c = d_c * p_c + d - k
        d_b = d_b * p_c + q * h / (w * t * t)
        d = d * p_c + q * k
    return d, d_c, d_b


# A Newton step of at most this share of tau (4 to 8 ulps) is rounding
# noise: phi's few rounded operations each carry about an ulp of
# x = -log(1 - tau) >= tau, and phi's slope in x is at least 1, so the
# step cannot resolve tau any finer.
_NOISE = 4.0 * sys.float_info.epsilon


def solve_fixed_point(n: float, g: ChainGeometry, mode: str = "busy_aware") -> FixedPointSolution:
    """Solve tau = T(tau) for ``n`` contenders by a bracketed Newton solve.

    T(tau) = 1 / D(p_c, p_b) closes the chain over the population: both
    the collision and the busy event are "at least one of the other n - 1
    stations transmits in the slot", p_c = 1 - (1 - tau)^(n-1), and
    ``classic`` mode drops the busy feedback (p_b = 0), recovering plain
    binary exponential backoff. ``n`` may be fractional (a population
    average). With at most one contender nobody else transmits, and tau
    is T's no-contention value 2 / (w0 + 1).

    Otherwise tau is the root of phi = log(1 - 1/D(p)) - log(1 - tau),
    which is negative at tau = 0 and crosses 0 once, where tau = 1/D.
    Each evaluation takes an iterate tau to p = 1 - (1 - tau)^(n-1), then
    to D and dD/dp by one Horner pass (:func:`_slots_per_attempt`), and so
    to phi and its slope. The step is Newton's on phi as a function of p,
    the collision probability Bianchi solves for, in which phi is nearly
    linear. It is computed in y = -log(1 - p) = -(n-1) log(1 - tau) and
    applied to log(1 - tau), which resolves the root even where p rounds
    to 1. Where the p-step would pass p = 1 (a y-step of 1 or more) the
    step is Newton's in y instead: near
    saturation (p rounds to 1 from about 4,800 contenders at the
    defaults) phi is linear in y, so the y-step lands on the root. The
    first step is from tau = 0, where D and its slope have closed forms.
    A step that leaves the bracket [lo, hi] of evaluated signs (from
    [0, 1]) is replaced by its midpoint, and no step passes
    2 / (w0 + 1), the most T can be; each evaluation is strictly inside
    the bracket and narrows it, so the solve ends without an iteration
    cap. It stops when a step is at most ``_NOISE`` of tau: the step
    estimates tau's distance to the root, and one that small is the
    rounding noise of phi, so the last tau is as close as phi can tell.

    That tau is returned with ``p_c`` and ``p_b`` from its own evaluation
    and ``residual`` = |T(tau) - tau| from its D. ``iterations`` counts
    the Horner evaluations of D and its slope: 5 per solve busy-aware and
    6 classic over the counts of a 50-vehicle threshold sweep at the
    defaults, and at most 13 from n = 0.01 to 10^6 (the Illinois regula
    falsi this replaced took 16.4 and up to 37). The closed-form start is
    not counted, and n <= 1 takes none.
    Deterministic: same inputs, same bits.
    """
    if mode not in MODEL_MODES:
        raise ValueError(f"mode must be one of {MODEL_MODES} (got {mode!r})")
    if not n > 0:
        raise ValueError(f"n must be > 0 (got {n})")
    stages = _stage_terms(g)
    others = max(n - 1.0, 0.0)
    busy = mode == "busy_aware"
    # T is at most 2 / (w0 + 1), its value with no contention, and so is the root
    top = 2.0 / (g.w0 + 1.0)
    if others == 0.0:
        return FixedPointSolution(tau=top, p_c=0.0, p_b=0.0, iterations=0, residual=0.0)

    # The first step is from tau = 0, where p = 0 and D has closed forms:
    # D(0) = k_0 = (w0 + 1) / 2, dD/dp_c = k_1 - k_0 = w0 / 2 (0 with a
    # single stage) and dD/dp_b = h_0 / w0 = (w0 - 1) / (2 w0).
    tau = log_idle = p = p_b = 0.0
    d = (g.w0 + 1.0) / 2.0
    slope = (g.w0 / 2.0 if g.max_stage else 0.0) + ((g.w0 - 1.0) / (2.0 * g.w0) if busy else 0.0)
    inv_others = 1.0 / others
    lo, hi = 0.0, 1.0
    calls = 0
    while True:
        phi = log1p(-1.0 / d) - log_idle
        if phi < 0.0:
            lo = tau
        elif phi > 0.0:
            hi = tau
        else:
            break
        # Newton's step in y, where phi's slope is
        # 1/(n-1) + (dD/dp) (1 - p) / (D (D - 1)); in p while that stays below 1
        y_step = -phi / (inv_others + slope * (1.0 - p) / (d * (d - 1.0)))
        if y_step < 1.0:
            y_step = -log1p(-y_step)
        tau_next = -expm1(log_idle - y_step * inv_others)
        if tau_next > top:
            tau_next = top
        if abs(tau_next - tau) <= _NOISE * tau:
            break
        if not lo < tau_next < hi:
            tau_next = 0.5 * (lo + hi)
            if not lo < tau_next < hi:
                break
        tau = tau_next
        log_idle = log1p(-tau)
        p = -expm1(others * log_idle)
        p_b = p if busy else 0.0
        d, d_c, d_b = _slots_per_attempt(p, p_b, stages)
        slope = d_c + d_b if busy else d_c
        calls += 1
    return FixedPointSolution(tau=tau, p_c=p, p_b=p_b, iterations=calls,
                              residual=abs(tau - 1.0 / d))
