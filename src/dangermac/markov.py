"""Busy-aware DCF backoff chain: stationary solution and fixed point.

A saturated station is modelled as a two-dimensional Markov chain over
(backoff stage, backoff counter). Windows double per stage up to the
maximum stage, where collisions re-enter the same stage. While counting
down, the counter holds in place with probability ``p_b / W_i`` per slot
(the busy self-loop of stage ``i``); a stage-``i`` window of size ``W_i``
therefore accumulates extra occupancy by the factor ``1 / (1 - p_b/W_i)``.
From a transmission state the station returns to stage 0 on success and
advances one stage (capped) on collision, drawing uniformly over the
destination window either way.

The closed-form stationary distribution is validated against a brute-force
power iteration of the explicit transition matrix; both are exposed here.
The per-slot transmission probability ``tau`` is the stationary mass of the
counter-zero states, and the model is closed over ``n`` contenders through
``couple`` plus a damped fixed-point iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    @property
    def n_states(self) -> int:
        return sum(self.window(i) for i in range(self.max_stage + 1))


@dataclass(frozen=True)
class ChainInputs:
    """Coupling probabilities seen by a single station.

    ``p_b = 1`` would make the counting-down self-loop absorbing, so both
    probabilities live in ``[0, 1)``.
    """

    p_c: float
    p_b: float

    def __post_init__(self):
        if not 0.0 <= self.p_c < 1.0:
            raise ValueError(f"p_c must be in [0, 1) (got {self.p_c})")
        if not 0.0 <= self.p_b < 1.0:
            raise ValueError(f"p_b must be in [0, 1) (got {self.p_b})")


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary probability of every (stage, counter) state."""

    geometry: ChainGeometry
    stages: tuple[np.ndarray, ...]  # stages[i][k] = b_{i,k}

    def probability(self, stage: int, counter: int) -> float:
        return float(self.stages[stage][counter])

    def total(self) -> float:
        return float(sum(s.sum() for s in self.stages))

    def flat(self) -> np.ndarray:
        return np.concatenate(self.stages)


@dataclass(frozen=True)
class FixedPointSolution:
    tau: float
    p_c: float
    p_b: float
    b00: float
    iterations: int
    residual: float
    mode: str


def _stage_coefficients(inputs: ChainInputs, g: ChainGeometry) -> list[float]:
    """Transmission-state mass of each stage relative to b00.

    Stage i < max receives collision inflow from stage i-1 only, giving the
    geometric factor p_c**i. The top stage also feeds itself on collision,
    which sums the geometric tail into p_c**m / (1 - p_c). A single-stage
    chain (max_stage 0) loops every outcome back to stage 0, so its
    coefficient is exactly 1 regardless of p_c.
    """
    m = g.max_stage
    if m == 0:
        return [1.0]
    coeffs = [inputs.p_c**i for i in range(m)]
    coeffs.append(inputs.p_c**m / (1.0 - inputs.p_c))
    return coeffs


def _stage_totals(inputs: ChainInputs, g: ChainGeometry) -> tuple[list[float], list[float]]:
    """Per-stage (transmission mass, whole-stage mass), relative to b00.

    Within stage i the counter states carry b_{i,0} * (1 - k/W_i) scaled by
    the busy-loop factor 1 / (1 - p_b/W_i); their sum over k >= 1 is
    (W_i - 1) / 2 times that factor.
    """
    coeffs = _stage_coefficients(inputs, g)
    return coeffs, _whole_stage_masses(coeffs, inputs.p_b, g)


def _whole_stage_masses(coeffs: list[float], p_b: float, g: ChainGeometry) -> list[float]:
    """Whole-stage masses for the given per-stage transmission masses."""
    totals = []
    for i, c in enumerate(coeffs):
        w = g.window(i)
        hold = 1.0 / (1.0 - p_b / w)
        totals.append(c * (1.0 + hold * (w - 1) / 2.0))
    return totals


def stationary_b00(inputs: ChainInputs, g: ChainGeometry) -> float:
    """Probability of the stage-0, counter-0 state after normalization."""
    _, totals = _stage_totals(inputs, g)
    return 1.0 / sum(totals)


def stationary_distribution(inputs: ChainInputs, g: ChainGeometry) -> StationaryDistribution:
    """Closed-form stationary distribution, normalized over all states."""
    coeffs, totals = _stage_totals(inputs, g)
    b00 = 1.0 / sum(totals)
    stages = []
    for i, c in enumerate(coeffs):
        w = g.window(i)
        hold = 1.0 / (1.0 - inputs.p_b / w)
        k = np.arange(w, dtype=np.float64)
        b = b00 * c * hold * (1.0 - k / w)
        b[0] = b00 * c  # transmission state carries no busy self-loop
        stages.append(b)
    return StationaryDistribution(geometry=g, stages=tuple(stages))


def tau_from_distribution(d: StationaryDistribution) -> float:
    """Per-slot transmission probability: total mass of counter-zero states."""
    return float(sum(s[0] for s in d.stages))


def _coupled_map(
    tau: float, n: float, g: ChainGeometry, mode: str,
) -> tuple[float, float, float, float]:
    """One step of the fixed-point map: ``(T(tau), p_c, p_b, b00)``.

    The same chain as :func:`_stage_totals`, closed over ``n`` contenders
    as in :func:`couple`, but with every stage coefficient multiplied by
    ``1 - p_c``: ``[p_c**i (1 - p_c)]_{i<m} + [p_c**m]``. The ratio tau is
    unchanged, and ``p_c = 1``, which ``1 - (1 - tau)^(n-1)`` reaches in
    floating point from about 150 contenders, becomes a finite limit
    (only the top stage transmits) instead of a division by zero.
    """
    p = -math.expm1(max(n - 1.0, 0.0) * math.log1p(-tau))
    p_b = p if mode == "busy_aware" else 0.0
    m = g.max_stage
    if m == 0:
        scale, coeffs = 1.0, [1.0]
    else:
        scale = 1.0 - p
        coeffs = [p**i * scale for i in range(m)] + [p**m]
    total = sum(_whole_stage_masses(coeffs, p_b, g))
    return sum(coeffs) / total, p, p_b, scale / total


def couple(tau: float, n: float, mode: str = "busy_aware") -> ChainInputs:
    """Close the chain over ``n`` contenders at transmission probability tau.

    Both the collision and the busy event are "at least one of the other
    n - 1 stations transmits in the slot". ``classic`` mode drops the busy
    feedback (p_b = 0), recovering the plain binary-exponential-backoff
    baseline. ``n`` may be fractional (a population average); below one
    contender there is nobody else to collide with.
    """
    if mode not in MODEL_MODES:
        raise ValueError(f"mode must be one of {MODEL_MODES} (got {mode!r})")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1] (got {tau})")
    if n < 0:
        raise ValueError(f"n must be >= 0 (got {n})")
    others = max(n - 1.0, 0.0)
    p = 1.0 - (1.0 - tau) ** others
    if mode == "busy_aware":
        return ChainInputs(p_c=p, p_b=p)
    return ChainInputs(p_c=p, p_b=0.0)


def solve_fixed_point(
    n: float,
    g: ChainGeometry,
    mode: str = "busy_aware",
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> FixedPointSolution:
    """Solve tau = tau(couple(tau, n)) by damped (averaged) iteration.

    The undamped map can oscillate between a high- and a low-contention
    branch at large n, so each step moves to the midpoint of the current
    iterate and the map output. Convergence is declared when the raw map
    residual drops below ``tol``. Deterministic: same inputs, same bits.
    """
    if mode not in MODEL_MODES:
        raise ValueError(f"mode must be one of {MODEL_MODES} (got {mode!r})")
    if n <= 0:
        raise ValueError(f"n must be > 0 (got {n})")
    if tol <= 0:
        raise ValueError(f"tol must be > 0 (got {tol})")
    tau = 2.0 / (g.w0 + 1.0)  # zero-coupling value, exact for n = 1
    residual = float("inf")
    for iteration in range(1, max_iter + 1):
        tau_next = _coupled_map(tau, n, g, mode)[0]
        residual = abs(tau_next - tau)
        if residual < tol:
            _, p_c, p_b, b00 = _coupled_map(tau_next, n, g, mode)
            return FixedPointSolution(
                tau=tau_next,
                p_c=p_c,
                p_b=p_b,
                b00=b00,
                iterations=iteration,
                residual=residual,
                mode=mode,
            )
        tau = 0.5 * (tau + tau_next)
    raise ConvergenceError(
        f"fixed point did not converge after {max_iter} iterations "
        f"(last tau {tau:.12g}, residual {residual:.3g})",
        last=tau,
        residual=residual,
        iterations=max_iter,
    )


def state_index(g: ChainGeometry, stage: int, counter: int) -> int:
    """Flat index of (stage, counter) in transition-matrix ordering."""
    offset = sum(g.window(i) for i in range(stage))
    return offset + counter


def build_transition_matrix(inputs: ChainInputs, g: ChainGeometry) -> np.ndarray:
    """Explicit row-stochastic matrix over all (stage, counter) states.

    Counting-down states (counter >= 1) self-loop with probability
    p_b / W_i and step down otherwise. Transmission states (counter 0)
    scatter uniformly over stage 0 on success and over the next stage
    (capped at the top, which re-enters itself) on collision.
    """
    m = g.max_stage
    size = g.n_states
    p = np.zeros((size, size))
    for i in range(m + 1):
        w = g.window(i)
        hold = inputs.p_b / w
        for k in range(1, w):
            idx = state_index(g, i, k)
            p[idx, idx] = hold
            p[idx, state_index(g, i, k - 1)] = 1.0 - hold
        tx = state_index(g, i, 0)
        w_succ = g.window(0)
        for k in range(w_succ):
            p[tx, state_index(g, 0, k)] += (1.0 - inputs.p_c) / w_succ
        nxt = min(i + 1, m)
        w_coll = g.window(nxt)
        for k in range(w_coll):
            p[tx, state_index(g, nxt, k)] += inputs.p_c / w_coll
    row_err = np.abs(p.sum(axis=1) - 1.0).max()
    assert row_err <= 1e-12, f"row sums off by {row_err:.3g}"
    return p


def oracle_stationary(
    matrix: np.ndarray,
    g: ChainGeometry,
    residual_tol: float = 1e-12,
    max_iter: int = 2_000_000,
) -> StationaryDistribution:
    """Stationary vector by power iteration, independent of the closed form."""
    size = matrix.shape[0]
    v = np.full(size, 1.0 / size)
    for _ in range(max_iter):
        v_next = v @ matrix
        if np.abs(v_next - v).max() <= residual_tol:
            v = v_next
            break
        v = v_next
    else:
        raise ConvergenceError(
            f"power iteration did not converge after {max_iter} iterations",
            last=float("nan"),
            residual=float(np.abs(v @ matrix - v).max()),
            iterations=max_iter,
        )
    v = v / v.sum()
    stages = []
    offset = 0
    for i in range(g.max_stage + 1):
        w = g.window(i)
        stages.append(v[offset:offset + w].copy())
        offset += w
    return StationaryDistribution(geometry=g, stages=tuple(stages))
