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
counter-zero states. ``_stationary_tau`` is its one closed form; the tests
check it against a power iteration of the explicit transition matrix. The
model is closed over ``n`` contenders by a bracketed solve of tau = T(tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import MODEL_MODES


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching its tolerance."""

    def __init__(self, message: str, last: float, residual: float, iterations: int):
        super().__init__(message)
        self.last = last
        self.residual = residual
        self.iterations = iterations


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


@dataclass(frozen=True)
class FixedPointSolution:
    tau: float
    p_c: float
    p_b: float
    b00: float
    iterations: int
    residual: float


def _stationary_tau(p_c: float, p_b: float, g: ChainGeometry) -> tuple[float, float]:
    """Closed-form ``(tau, b00)`` of the chain at coupling ``(p_c, p_b)``.

    Stage i < max receives collision inflow from stage i-1 only, so its
    transmission state carries p_c**i times b00. The top stage also feeds
    itself on collision, which sums the geometric tail into
    p_c**m / (1 - p_c); a single-stage chain (max_stage 0) loops every
    outcome back to stage 0, so its coefficient is 1 regardless of p_c.
    Every coefficient is multiplied by ``1 - p_c``:
    ``[p_c**i (1 - p_c)]_{i<m} + [p_c**m]``. The ratios are unchanged, and
    ``p_c = 1`` becomes a finite limit (only the top stage transmits)
    instead of a division by zero.

    Within stage i the counter states carry b_{i,0} * (1 - k/W_i) scaled by
    the busy-loop factor 1 / (1 - p_b/W_i), so the whole stage holds
    1 + (W_i - 1) / 2 times that factor of its transmission mass. tau is
    the counter-zero mass over the total, b00 the mass of state (0, 0).
    """
    m = g.max_stage
    if m == 0:
        scale, coeffs = 1.0, [1.0]
    else:
        scale = 1.0 - p_c
        coeffs = [p_c**i * scale for i in range(m)] + [p_c**m]
    total = 0.0
    for i, c in enumerate(coeffs):
        w = g.window(i)
        hold = 1.0 / (1.0 - p_b / w)
        total += c * (1.0 + hold * (w - 1) / 2.0)
    return sum(coeffs) / total, scale / total


def _coupled_map(
    tau: float, n: float, g: ChainGeometry, mode: str,
) -> tuple[float, float, float, float]:
    """One step of the fixed-point map: ``(T(tau), p_c, p_b, b00)``.

    The chain of :func:`_stationary_tau`, closed over ``n`` contenders:
    both the collision and the busy event are "at least one of the other
    n - 1 stations transmits in the slot", and ``classic`` mode drops the
    busy feedback (p_b = 0), recovering plain binary exponential backoff.
    ``n`` may be fractional (a population average); below one contender
    there is nobody else to collide with. ``1 - (1 - tau)^(n-1)`` rounds to
    ``p_c = 1`` from about 150 contenders, which the closed form takes as
    its finite limit.
    """
    p = -math.expm1(max(n - 1.0, 0.0) * math.log1p(-tau))
    p_b = p if mode == "busy_aware" else 0.0
    tau_next, b00 = _stationary_tau(p, p_b, g)
    return tau_next, p, p_b, b00


# The solve stops once its bracket is this narrow relative to its upper
# end: a few ulps, below which the secant and midpoint steps are rounding.
_BRACKET_REL_WIDTH = 1e-15


def solve_fixed_point(n: float, g: ChainGeometry, mode: str = "busy_aware") -> FixedPointSolution:
    """Solve tau = T(tau) for ``n`` contenders by Illinois regula falsi.

    f(tau) = tau - T(tau) is negative at 0, where T = 2 / (w0 + 1), and
    non-negative at 2 / (w0 + 1), the most T can be, so the root lies in
    that bracket (exactly at its upper end for n <= 1). Each step replaces
    one end by the secant point (the midpoint when the secant point is not
    strictly inside), halving the kept end's f when the same end is kept
    twice (Dowell & Jarratt, BIT 11, 1971). The solve ends when the
    bracket is a few ulps wide or the midpoint cannot split it, and
    returns the end with the smaller |f|. ``iterations`` counts map
    calls; ``residual`` is |T(tau) - tau| at the returned tau.
    Deterministic: same inputs, same bits.
    """
    if mode not in MODEL_MODES:
        raise ValueError(f"mode must be one of {MODEL_MODES} (got {mode!r})")
    if n <= 0:
        raise ValueError(f"n must be > 0 (got {n})")
    hi = 2.0 / (g.w0 + 1.0)
    hi_map = _coupled_map(hi, n, g, mode)
    f_hi = hi - hi_map[0]
    lo, f_lo, lo_map = 0.0, -hi, None
    weight_lo, weight_hi, kept = f_lo, f_hi, None
    calls = 1
    while f_hi > 0.0:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi or hi - lo <= _BRACKET_REL_WIDTH * hi:
            break
        tau = hi - weight_hi * (hi - lo) / (weight_hi - weight_lo)
        if not lo < tau < hi:
            tau = mid
        out = _coupled_map(tau, n, g, mode)
        calls += 1
        f = tau - out[0]
        if f >= 0.0:
            hi, f_hi, hi_map, weight_hi = tau, f, out, f
            if kept == "lo":
                weight_lo *= 0.5
            kept = "lo"
        else:
            lo, f_lo, lo_map, weight_lo = tau, f, out, f
            if kept == "hi":
                weight_hi *= 0.5
            kept = "hi"
    if lo_map is not None and -f_lo < f_hi:
        tau, f, (_, p_c, p_b, b00) = lo, f_lo, lo_map
    else:
        tau, f, (_, p_c, p_b, b00) = hi, f_hi, hi_map
    return FixedPointSolution(tau=tau, p_c=p_c, p_b=p_b, b00=b00,
                              iterations=calls, residual=abs(f))

