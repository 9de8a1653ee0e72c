import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dangermac.config import MODEL_MODES, MacTimings, ScenarioConfig
from dangermac.markov import (
    ChainGeometry,
    _slots_per_attempt,
    _stage_terms,
    solve_fixed_point,
)
from dangermac.pipeline import geometry_from
from dangermac.scenario import expected_n_eff

GRID_GEOMETRIES = [(1, 2), (2, 4), (3, 8), (5, 8)]
GRID_PROBS = [0.0, 0.2, 0.5, 0.8]
# the oracle also checks the saturated limits p_c = 1 and p_b = 1
ORACLE_PROBS = GRID_PROBS + [1.0]


def stationary_tau(p_c: float, p_b: float, g: ChainGeometry) -> tuple[float, float]:
    """The closed form's ``(tau, b00)`` at coupling ``(p_c, p_b)``.

    tau, the mass of the counter-zero states, is one attempt per
    ``_slots_per_attempt`` slots: 1 / D. Stage-0 attempts are the share
    ``1 - p_c`` of all attempts (every attempt, for a single stage), so
    b00, the mass of state (0, 0), is that share over D.
    """
    d = _slots_per_attempt(p_c, p_b, _stage_terms(g))[0]
    return 1.0 / d, (1.0 - p_c if g.max_stage > 0 else 1.0) / d


# Reference implementations of the chain, independent of the closed form:
# the explicit transition matrix built from the one-step rules, and its
# stationary vector by power iteration.

def state_index(g: ChainGeometry, stage: int, counter: int) -> int:
    """Flat index of (stage, counter) in transition-matrix ordering."""
    offset = sum(g.window(i) for i in range(stage))
    return offset + counter


def build_transition_matrix(p_c: float, p_b: float, g: ChainGeometry) -> np.ndarray:
    """Explicit row-stochastic matrix over all (stage, counter) states.

    Counting-down states (counter >= 1) self-loop with probability
    p_b / W_i and step down otherwise. Transmission states (counter 0)
    scatter uniformly over stage 0 on success and over the next stage
    (capped at the top, which re-enters itself) on collision.
    """
    m = g.max_stage
    size = sum(g.window(i) for i in range(m + 1))
    p = np.zeros((size, size))
    for i in range(m + 1):
        w = g.window(i)
        hold = p_b / w
        for k in range(1, w):
            idx = state_index(g, i, k)
            p[idx, idx] = hold
            p[idx, state_index(g, i, k - 1)] = 1.0 - hold
        tx = state_index(g, i, 0)
        w_succ = g.window(0)
        for k in range(w_succ):
            p[tx, state_index(g, 0, k)] += (1.0 - p_c) / w_succ
        nxt = min(i + 1, m)
        w_coll = g.window(nxt)
        for k in range(w_coll):
            p[tx, state_index(g, nxt, k)] += p_c / w_coll
    row_err = np.abs(p.sum(axis=1) - 1.0).max()
    assert row_err <= 1e-12, f"row sums off by {row_err:.3g}"
    return p


def oracle_stationary(
    matrix: np.ndarray,
    g: ChainGeometry,
    residual_tol: float = 1e-12,
    max_iter: int = 2_000_000,
) -> tuple[np.ndarray, ...]:
    """Stationary vector by power iteration, split into per-stage arrays."""
    size = matrix.shape[0]
    v = np.full(size, 1.0 / size)
    for _ in range(max_iter):
        v_next = v @ matrix
        if np.abs(v_next - v).max() <= residual_tol:
            v = v_next
            break
        v = v_next
    else:
        raise RuntimeError(
            f"power iteration did not converge after {max_iter} iterations "
            f"(residual {np.abs(v @ matrix - v).max():.3g})")
    v = v / v.sum()
    stages = []
    offset = 0
    for i in range(g.max_stage + 1):
        w = g.window(i)
        stages.append(v[offset:offset + w].copy())
        offset += w
    return tuple(stages)


def oracle_tau_b00(p_c: float, p_b: float, g: ChainGeometry) -> tuple[float, float]:
    """The oracle's tau (mass of the counter-zero states) and b00."""
    stages = oracle_stationary(build_transition_matrix(p_c, p_b, g), g)
    return float(sum(s[0] for s in stages)), float(stages[0][0])


def per_stage_tau_b00(p_c: float, p_b: float, g: ChainGeometry) -> tuple[float, float, float]:
    """The chain's ``(tau, b00)`` stage by stage, and its coefficient sum.

    Coefficients ``p_c**i (1 - p_c)`` below the top stage and ``p_c**m`` at
    it (1 for a single stage), each stage weighted by its whole-stage mass
    1 + (W_i - 1) / 2 / (1 - p_b/W_i); tau = sum(coeffs) / total.
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
    return sum(coeffs) / total, scale / total, sum(coeffs)


def balance_states(p_c: float, p_b: float, g: ChainGeometry) -> list[np.ndarray]:
    """Every state's mass from the closed form's b00 by the balance equations.

    b_{i,0} = p_c**i b00 below the top stage and p_c**m b00 / (1 - p_c) at
    it (b00 alone for a single stage); b_{i,k} = b_{i,0} (1 - k/W_i) /
    (1 - p_b/W_i) for k >= 1. Needs p_c < 1 and p_b < 1.
    """
    _, b00 = stationary_tau(p_c, p_b, g)
    m = g.max_stage
    stages = []
    for i in range(m + 1):
        w = g.window(i)
        b_i0 = b00 if m == 0 else b00 * p_c**i / (1.0 - p_c if i == m else 1.0)
        b = b_i0 * (1.0 - np.arange(w) / w) / (1.0 - p_b / w)
        b[0] = b_i0
        stages.append(b)
    return stages


def test_window_size():
    g = ChainGeometry(5, 8)
    assert g.window(0) == 8
    assert g.window(2) == 32
    assert g.window(5) == 2**5 * 8 == 256
    with pytest.raises(ValueError):
        g.window(6)
    with pytest.raises(ValueError):
        g.window(-1)


def test_geometry_validation():
    with pytest.raises(ValueError, match=r"max_stage must be >= 0 \(got -1\)"):
        ChainGeometry(-1, 8)
    with pytest.raises(ValueError, match=r"w0 must be >= 2 \(got 1\)"):
        ChainGeometry(2, 1)
    # a float field would share the cached stage table of the equal int geometry
    for fields in ((3, 16.0), (3.0, 16)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ChainGeometry(*fields)


def test_geometry_pickle_and_deepcopy_round_trip():
    # both rebuild the record through its checking constructor
    g = ChainGeometry(3, 16)
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert copied == g
        assert type(copied) is ChainGeometry
        assert copied.window(3) == 128
    # _make skips the check, so only the round trip sees the bad window
    bad = ChainGeometry._make((2, 1))
    with pytest.raises(ValueError, match="w0 must be >= 2"):
        pickle.loads(pickle.dumps(bad))
    with pytest.raises(ValueError, match="w0 must be >= 2"):
        copy.deepcopy(bad)


def test_b00_zero_coupling():
    # with no collisions and no busy slots only stage 0 is occupied and its
    # counter masses are 1, (w-1)/w, ..., 1/w, so b00 = 2 / (w0 + 1)
    _, b00 = stationary_tau(0.0, 0.0, ChainGeometry(5, 8))
    assert b00 == pytest.approx(2 / 9, abs=1e-15)


def test_b00_bounds():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p_c, p_b = rng.uniform(0, 0.95), rng.uniform(0, 0.95)
        g = ChainGeometry(int(rng.integers(0, 6)), int(2 ** rng.integers(1, 5)))
        _, b00 = stationary_tau(p_c, p_b, g)
        assert 0.0 < b00 <= 1.0


def test_stationary_hand_case():
    # two stages, windows 2 and 4, collisions half the time, never busy:
    # six states solvable by hand from the balance equations
    g = ChainGeometry(1, 2)
    tau, b00 = stationary_tau(0.5, 0.0, g)
    assert tau == pytest.approx(0.5, abs=1e-15)
    assert b00 == pytest.approx(0.25, abs=1e-15)
    expected = {
        (0, 0): 0.25, (0, 1): 0.125,
        (1, 0): 0.25, (1, 1): 0.1875, (1, 2): 0.125, (1, 3): 0.0625,
    }
    stages = oracle_stationary(build_transition_matrix(0.5, 0.0, g), g)
    for (i, k), value in expected.items():
        assert stages[i][k] == pytest.approx(value, abs=1e-9)


def test_stationary_no_collisions_empties_upper_stages():
    # only stage 0 transmits, so its transmission state is all of tau
    tau, b00 = stationary_tau(0.0, 0.3, ChainGeometry(3, 4))
    assert tau == b00


def test_normalization_grid():
    for m, w0 in GRID_GEOMETRIES:
        g = ChainGeometry(m, w0)
        for p_c in GRID_PROBS:
            for p_b in GRID_PROBS:
                stages = balance_states(p_c, p_b, g)
                assert sum(s.sum() for s in stages) == pytest.approx(1.0, abs=1e-12)
                assert all((s >= 0).all() for s in stages)
                tau, _ = stationary_tau(p_c, p_b, g)
                assert tau == pytest.approx(sum(s[0] for s in stages), abs=1e-12)


def test_closed_form_matches_matrix_oracle():
    for m, w0 in [(1, 2), (2, 4), (3, 8)]:
        g = ChainGeometry(m, w0)
        for p_c in ORACLE_PROBS:
            for p_b in ORACLE_PROBS:
                tau, b00 = stationary_tau(p_c, p_b, g)
                oracle_tau, oracle_b00 = oracle_tau_b00(p_c, p_b, g)
                assert abs(tau - oracle_tau) <= 1e-9, (m, w0, p_c, p_b)
                assert abs(b00 - oracle_b00) <= 1e-9, (m, w0, p_c, p_b)


def test_closed_form_matches_oracle_single_stage():
    # the degenerate one-stage chain loops back regardless of outcome
    g = ChainGeometry(0, 8)
    for p_c in (0.0, 0.5, 1.0):
        for p_b in (0.3, 1.0):
            tau, b00 = stationary_tau(p_c, p_b, g)
            oracle_tau, oracle_b00 = oracle_tau_b00(p_c, p_b, g)
            assert abs(tau - oracle_tau) <= 1e-9
            assert abs(b00 - oracle_b00) <= 1e-9


def test_reference_point_against_oracle():
    g = ChainGeometry(2, 4)
    tau, b00 = stationary_tau(0.3, 0.2, g)
    oracle_tau, oracle_b00 = oracle_tau_b00(0.3, 0.2, g)
    assert abs(b00 - oracle_b00) <= 1e-9
    assert abs(tau - oracle_tau) <= 1e-9
    # b00 = 1 / sum_i c_i (1 + (W_i - 1) / 2 / (1 - p_b / W_i)), W = 4, 8, 16,
    # c = 1, p_c, p_c^2 / (1 - p_c)
    stage_masses = [1 + 1.5 / 0.95, 0.3 * (1 + 3.5 / 0.975),
                    0.09 / 0.7 * (1 + 7.5 / 0.9875)]
    assert b00 == pytest.approx(1 / sum(stage_masses), rel=1e-14)


# Horner's rule and the per-stage sum round differently: a few ulps apart.
PER_STAGE_REL_TOL = 4e-15


def test_closed_form_matches_per_stage_reference():
    rng = random.Random(11)
    corners = [(p_c, p_b) for p_c in (0.0, 1.0) for p_b in (0.0, 1.0)]
    for w0 in (2, 8, 1024):
        for max_stage in range(33):
            g = ChainGeometry(max_stage, w0)
            interior = [(rng.random(), rng.random()) for _ in range(20)]
            for p_c, p_b in corners + interior:
                tau, b00 = stationary_tau(p_c, p_b, g)
                ref_tau, ref_b00, coeff_sum = per_stage_tau_b00(p_c, p_b, g)
                case = (w0, max_stage, p_c, p_b)
                assert coeff_sum == pytest.approx(1.0, rel=0, abs=1e-15), case
                assert tau == pytest.approx(ref_tau, rel=PER_STAGE_REL_TOL, abs=0), case
                assert b00 == pytest.approx(ref_b00, rel=PER_STAGE_REL_TOL, abs=0), case


def test_slots_per_attempt_derivatives_match_complex_step():
    # D is rational in p_c and p_b, so D(p + ih) = D(p) + ih D'(p) + O(h^2):
    # Im D(p + ih) / h is D' to rounding, with no difference to cancel
    rng = random.Random(13)
    h = 1e-30
    for w0 in (2, 8, 1024):
        for max_stage in (0, 1, 5, 16):
            stages = _stage_terms(ChainGeometry(max_stage, w0))
            for p_c, p_b in [(0.0, 0.0), (1.0, 1.0)] + [(rng.random(), rng.random())
                                                        for _ in range(10)]:
                _, d_c, d_b = _slots_per_attempt(p_c, p_b, stages)
                case = (w0, max_stage, p_c, p_b)
                assert d_c == pytest.approx(
                    _slots_per_attempt(p_c + h * 1j, p_b, stages)[0].imag / h,
                    rel=1e-12, abs=1e-12), case
                assert d_b == pytest.approx(
                    _slots_per_attempt(p_c, p_b + h * 1j, stages)[0].imag / h,
                    rel=1e-12, abs=1e-12), case


def test_slots_per_attempt_closed_forms_at_zero_coupling():
    # the solver's first step uses these instead of an evaluation:
    # D(0) = (w0 + 1) / 2, dD/dp_c = w0 / 2 (0 for one stage), dD/dp_b = (w0 - 1) / (2 w0)
    for w0 in (2, 3, 8, 1024, 2**16):
        for max_stage in (0, 1, 5, 16):
            d, d_c, d_b = _slots_per_attempt(0.0, 0.0, _stage_terms(ChainGeometry(max_stage, w0)))
            assert d == (w0 + 1) / 2
            assert d_c == (w0 / 2 if max_stage else 0.0)
            assert d_b == pytest.approx((w0 - 1) / (2 * w0), rel=1e-15)


def test_matrix_is_row_stochastic():
    for m, w0 in GRID_GEOMETRIES:
        g = ChainGeometry(m, w0)
        p = build_transition_matrix(0.4, 0.6, g)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_matrix_no_self_loops_when_never_busy():
    g = ChainGeometry(2, 4)
    p = build_transition_matrix(0.2, 0.0, g)
    for i in range(3):
        for k in range(1, g.window(i)):
            assert p[state_index(g, i, k), state_index(g, i, k)] == 0.0


def test_oracle_uniform_on_symmetric_two_state_chain():
    g = ChainGeometry(0, 2)
    matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
    stages = oracle_stationary(matrix, g)
    assert stages[0] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_oracle_fixed_point_residual():
    g = ChainGeometry(2, 4)
    matrix = build_transition_matrix(0.3, 0.2, g)
    v = np.concatenate(oracle_stationary(matrix, g))
    assert np.abs(v @ matrix - v).max() <= 1e-12


def test_tau_zero_coupling_reduction():
    for w0 in (2, 4, 8, 16):
        tau, _ = stationary_tau(0.0, 0.0, ChainGeometry(5, w0))
        assert tau == pytest.approx(2 / (w0 + 1), abs=1e-14)


def test_tau_single_stage():
    tau, b00 = stationary_tau(0.4, 0.1, ChainGeometry(0, 8))
    assert tau == pytest.approx(b00, abs=1e-15)


def test_fixed_point_single_station_exact():
    for mode in ("busy_aware", "classic"):
        solution = solve_fixed_point(1, ChainGeometry(5, 8), mode)
        assert solution.tau == 2 / 9
        assert solution.p_c == 0.0
        assert solution.residual == 0.0


def test_fixed_point_monotone_in_population():
    g = ChainGeometry(5, 8)
    for mode in ("busy_aware", "classic"):
        taus = [solve_fixed_point(n, g, mode).tau for n in range(1, 101)]
        assert all(a > b for a, b in zip(taus, taus[1:]))


def test_fixed_point_deterministic():
    g = ChainGeometry(5, 8)
    a = solve_fixed_point(37, g, "busy_aware")
    b = solve_fixed_point(37, g, "busy_aware")
    assert (a.tau, a.p_c, a.p_b, a.iterations, a.residual) == \
           (b.tau, b.p_c, b.p_b, b.iterations, b.residual)


def test_fixed_point_solution_is_an_immutable_record():
    solution = solve_fixed_point(5, ChainGeometry(5, 8), "busy_aware")
    assert solution._fields == ("tau", "p_c", "p_b", "iterations", "residual")
    assert type(solution.iterations) is int
    with pytest.raises(AttributeError):
        solution.tau = 0.5


def test_fixed_point_residual_below_tolerance():
    solution = solve_fixed_point(50, ChainGeometry(5, 8), "busy_aware")
    assert solution.residual <= 1e-15
    assert 0 < solution.tau < 1


def test_fixed_point_fractional_population():
    g = ChainGeometry(5, 8)
    below_one = solve_fixed_point(0.4, g, "busy_aware")
    assert below_one.tau == 2 / 9  # nobody else to contend with
    between = solve_fixed_point(1.5, g, "busy_aware").tau
    assert solve_fixed_point(2, g, "busy_aware").tau < between < 2 / 9


def test_fixed_point_large_populations():
    # from about 150 contenders 1 - (1 - tau)^(n-1) rounds to 1; the solve
    # must go on through that limit rather than reject p_c = 1
    g = ChainGeometry(5, 8)
    for mode in ("busy_aware", "classic"):
        taus = [solve_fixed_point(n, g, mode).tau for n in (100, 149, 150, 300, 10_000)]
        assert all(a > b > 0 for a, b in zip(taus, taus[1:]))


def test_fixed_point_saturated_limit():
    # at p_c = 1 only the top stage (window W_m = 256) transmits: classic
    # tau = 2 / (W_m + 1); busy-aware holds each counter 256/255 as long
    g = ChainGeometry(5, 8)
    classic = solve_fixed_point(10**6, g, "classic")
    busy = solve_fixed_point(10**6, g, "busy_aware")
    assert classic.tau == pytest.approx(1 / 128.5, rel=1e-12)
    assert busy.tau == pytest.approx(1 / 129, rel=1e-12)
    assert classic.p_c == busy.p_c == busy.p_b == 1.0
    assert classic.p_b == 0.0


def test_fixed_point_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        solve_fixed_point(5, ChainGeometry(5, 8), "bogus")


@pytest.mark.parametrize("n", [0, -1.5, float("nan"), float("-inf")])
def test_fixed_point_rejects_non_positive_population(n):
    with pytest.raises(ValueError, match="n must be > 0"):
        solve_fixed_point(n, ChainGeometry(5, 8))


def _bisection_root(n, g, mode):
    """tau = T(tau) by plain bisection on [0, 2 / (w0 + 1)], run until the
    midpoint stops moving; the end with the smaller |tau - T(tau)|."""
    stages = _stage_terms(g)

    def f(tau):
        p_c = -math.expm1(max(n - 1.0, 0.0) * math.log1p(-tau))
        return tau - 1.0 / _slots_per_attempt(p_c, p_c if mode == "busy_aware" else 0.0, stages)[0]

    lo, hi = 0.0, 2.0 / (g.w0 + 1.0)
    if f(hi) <= 0:
        return hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return min(lo, hi, key=lambda tau: abs(f(tau)))


@pytest.mark.parametrize("w0", [2, 8, 1024])
def test_fixed_point_matches_bisection(w0):
    for max_stage in range(17):
        g = ChainGeometry(max_stage, w0)
        # at n = 847, busy-aware over the default window, a Newton step leaves the
        # bracket and the solve takes a midpoint step
        for n in (0.4, 1, 1.5, 2, 50, 149, 150, 847, 1e4, 1e6):
            for mode in ("busy_aware", "classic"):
                solution = solve_fixed_point(n, g, mode)
                reference = _bisection_root(n, g, mode)
                assert solution.tau == pytest.approx(reference, rel=1e-12, abs=0), \
                    (max_stage, n, mode)
                assert solution.residual <= 1e-15, (max_stage, n, mode)


@st.composite
def _capped_geometries(draw):
    # the configuration's window cap: w0 * 2**max_stage <= 2**32
    w0 = draw(st.integers(2, 2**16))
    max_stage = draw(st.integers(0, 32 - (w0 - 1).bit_length()))
    return ChainGeometry(max_stage, w0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    g=_capped_geometries(),
    mode=st.sampled_from(MODEL_MODES),
)
def test_fixed_point_property(n, g, mode):
    solution = solve_fixed_point(n, g, mode)
    assert solution.residual <= 1e-15
    assert 0.0 <= solution.tau <= 2.0 / (g.w0 + 1.0)
    assert solution.tau == pytest.approx(_bisection_root(n, g, mode), rel=1e-12, abs=0)


def test_fixed_point_matches_stationary_distribution():
    # p_c = 1 - (1 - tau)^(n-1), p_b = p_c busy-aware and 0 classic, and
    # tau is that of the closed-form chain at (p_c, p_b)
    g = ChainGeometry(5, 8)
    for n in (2, 50, 149):
        for mode in ("busy_aware", "classic"):
            solution = solve_fixed_point(n, g, mode)
            assert solution.p_c == pytest.approx(1 - (1 - solution.tau) ** (n - 1), rel=1e-12)
            assert solution.p_b == (solution.p_c if mode == "busy_aware" else 0.0)
            tau, _ = stationary_tau(solution.p_c, solution.p_b, g)
            assert solution.tau == pytest.approx(tau, rel=1e-12)


DEFAULT_GEOMETRY = geometry_from(MacTimings())
# The most map calls any n in 0.1, 0.2, ..., 50 or 1, 2, ..., 200 takes at
# the defaults, as measured: a slip back to a slower solve fails here.
MAX_CALLS = {"busy_aware": 5, "classic": 6}
# Map calls of the Illinois regula falsi the Newton solve replaced, at the
# defaults: the new solve may take no more.
ILLINOIS_CALLS = {150: {"busy_aware": 37, "classic": 15},
                  10**4: {"busy_aware": 9, "classic": 9},
                  10**6: {"busy_aware": 9, "classic": 9}}


@pytest.mark.parametrize("mode", MODEL_MODES)
def test_fixed_point_map_calls_are_bounded(mode):
    populations = [k / 10 for k in range(1, 501)] + list(range(1, 201))
    calls = {n: solve_fixed_point(n, DEFAULT_GEOMETRY, mode).iterations for n in populations}
    worst = max(calls, key=calls.get)
    assert calls[worst] <= MAX_CALLS[mode], (worst, calls[worst])
    for n, illinois in ILLINOIS_CALLS.items():
        assert solve_fixed_point(n, DEFAULT_GEOMETRY, mode).iterations <= illinois[mode], n


def test_fixed_point_does_not_depend_on_solve_order():
    # the distinct contender counts of a 50-vehicle threshold sweep over 0..1000 m
    cfg = ScenarioConfig()
    counts = sorted({n for n in expected_n_eff(50, cfg.road_length_m,
                                               [float(t) for t in range(1001)],
                                               cfg.danger_metric) if n > 0})
    assert len(counts) == 472
    # interleaved with two other geometries, and with each order solved from an
    # empty stage-table cache, so a table cached under the wrong key shows
    jobs = [(n, g) for n in counts
            for g in (DEFAULT_GEOMETRY, ChainGeometry(0, 8), ChainGeometry(3, 16))]
    shuffled = jobs[:]
    random.Random(3).shuffle(shuffled)
    for mode in MODEL_MODES:
        solutions = []
        for order in (jobs, jobs[::-1], shuffled):
            _stage_terms.cache_clear()
            solutions.append({job: solve_fixed_point(*job, mode) for job in order})
        assert solutions[0] == solutions[1] == solutions[2]


# Solves pinned to the bit: float.hex of tau, p_c and p_b, and the map
# calls, for each n of PINNED_COUNTS in order. The counts take in n <= 1,
# the two floats either side of 50, the bracket's midpoint step at 847 and
# p rounding to 1 from about 4,800; the geometries take in a single stage,
# an odd w0 and the 2^32 window cap.
PINNED_COUNTS = (0.5, 2, 4.669741479412226, 49.99999999999999, 50, 149, 150, 847, 4800, 10**6)
PINNED_SOLVES = {
    ((5, 8), 'busy_aware'): [
        ('0x1.c71c71c71c71cp-3', '0x0.0p+0', '0x0.0p+0', 0),
        ('0x1.6980e63762d2bp-3', '0x1.6980e63762d2bp-3', '0x1.6980e63762d2bp-3', 5),
        ('0x1.d2c305fcb1a11p-4', '0x1.6f22df604f5c0p-2', '0x1.6f22df604f5c0p-2', 4),
        ('0x1.a4cf6b44dc946p-6', '0x1.70ed5cc6514bfp-1', '0x1.70ed5cc6514bfp-1', 5),
        ('0x1.a4cf6b44dc945p-6', '0x1.70ed5cc6514bfp-1', '0x1.70ed5cc6514bfp-1', 5),
        ('0x1.ba7e8c1ea3873p-7', '0x1.bb8c36279d65bp-1', '0x1.bb8c36279d65bp-1', 4),
        ('0x1.b8e84cf2b2499p-7', '0x1.bbf9f0ec231e9p-1', '0x1.bbf9f0ec231e9p-1', 4),
        ('0x1.fec1083e8fa2dp-8', '0x1.ff5111faf0e13p-1', '0x1.ff5111faf0e13p-1', 13),
        ('0x1.fc07f01fc07fap-8', '0x1.fffffffffffffp-1', '0x1.fffffffffffffp-1', 7),
        ('0x1.fc07f01fc07f0p-8', '0x1.0000000000000p+0', '0x1.0000000000000p+0', 7),
    ],
    ((0, 8), 'busy_aware'): [
        ('0x1.c71c71c71c71cp-3', '0x0.0p+0', '0x0.0p+0', 0),
        ('0x1.bd6ddca644eadp-3', '0x1.bd6ddca644eadp-3', '0x1.bd6ddca644eadp-3', 4),
        ('0x1.ad1df55255d5fp-3', '0x1.27f581b3e5276p-1', '0x1.27f581b3e5276p-1', 5),
        ('0x1.9999d054a1766p-3', '0x1.fffda96246015p-1', '0x1.fffda96246015p-1', 6),
        ('0x1.9999d054a1766p-3', '0x1.fffda96246015p-1', '0x1.fffda96246015p-1', 6),
        ('0x1.999999999999dp-3', '0x1.fffffffffffd7p-1', '0x1.fffffffffffd7p-1', 6),
        ('0x1.999999999999cp-3', '0x1.fffffffffffdfp-1', '0x1.fffffffffffdfp-1', 6),
        ('0x1.999999999999ap-3', '0x1.0000000000000p+0', '0x1.0000000000000p+0', 8),
        ('0x1.999999999999ap-3', '0x1.0000000000000p+0', '0x1.0000000000000p+0', 3),
        ('0x1.999999999999ap-3', '0x1.0000000000000p+0', '0x1.0000000000000p+0', 3),
    ],
    ((3, 11), 'busy_aware'): [
        ('0x1.5555555555555p-3', '0x0.0p+0', '0x0.0p+0', 0),
        ('0x1.1fcaa0aa9dcf8p-3', '0x1.1fcaa0aa9dcf8p-3', '0x1.1fcaa0aa9dcf8p-3', 4),
        ('0x1.9faaba7f5483fp-4', '0x1.4c8e74e0df434p-2', '0x1.4c8e74e0df434p-2', 5),
        ('0x1.1247a397b01adp-5', '0x1.9f7d9295ed185p-1', '0x1.9f7d9295ed185p-1', 5),
        ('0x1.1247a397b01acp-5', '0x1.9f7d9295ed185p-1', '0x1.9f7d9295ed185p-1', 5),
        ('0x1.83094679d8159p-6', '0x1.f11e0fbf682e6p-1', '0x1.f11e0fbf682e6p-1', 10),
        ('0x1.82930894f05f8p-6', '0x1.f168067634264p-1', '0x1.f168067634264p-1', 7),
        ('0x1.6c16c1b2ba6eap-6', '0x1.ffffffd072ba0p-1', '0x1.ffffffd072ba0p-1', 10),
        ('0x1.6c16c16c16c17p-6', '0x1.0000000000000p+0', '0x1.0000000000000p+0', 4),
        ('0x1.6c16c16c16c17p-6', '0x1.0000000000000p+0', '0x1.0000000000000p+0', 4),
    ],
    ((16, 65536), 'busy_aware'): [
        ('0x1.fffe0001fffe0p-16', '0x0.0p+0', '0x0.0p+0', 0),
        ('0x1.fffa000a00160p-16', '0x1.fffa000a00160p-16', '0x1.fffa000a00160p-16', 3),
        ('0x1.ffef5275d8390p-16', '0x1.d5a5e3ff153a6p-14', '0x1.d5a5e3ff153a6p-14', 3),
        ('0x1.ff3a2654439c6p-16', '0x1.871f470f5177cp-10', '0x1.871f470f5177cp-10', 3),
        ('0x1.ff3a2654439c6p-16', '0x1.871f470f5177dp-10', '0x1.871f470f5177dp-10', 3),
        ('0x1.fdaf599d42aa5p-16', '0x1.260130156cf35p-8', '0x1.260130156cf35p-8', 3),
        ('0x1.fdab5e4aa5b8ap-16', '0x1.27fa47778e433p-8', '0x1.27fa47778e433p-8', 3),
        ('0x1.f2f270ad55d62p-16', '0x1.9714600a1a7d2p-6', '0x1.9714600a1a7d2p-6', 4),
        ('0x1.bad942d3ac1b4p-16', '0x1.e757e48b5c969p-4', '0x1.e757e48b5c969p-4', 4),
        ('0x1.cfd7cc8b3cb43p-21', '0x1.28334c73a7126p-1', '0x1.28334c73a7126p-1', 7),
    ],
    ((5, 8), 'classic'): [
        ('0x1.c71c71c71c71cp-3', '0x0.0p+0', '0x0.0p+0', 0),
        ('0x1.6d7b111230aaap-3', '0x1.6d7b111230aaap-3', '0x0.0p+0', 5),
        ('0x1.d7603650d27b0p-4', '0x1.723214cc1d60ep-2', '0x0.0p+0', 4),
        ('0x1.a64628f8b5857p-6', '0x1.71919378042ccp-1', '0x0.0p+0', 6),
        ('0x1.a64628f8b5856p-6', '0x1.71919378042ccp-1', '0x0.0p+0', 6),
        ('0x1.bbb06d86c4717p-7', '0x1.bbebd0d2ae47ep-1', '0x0.0p+0', 6),
        ('0x1.ba18e26e7d120p-7', '0x1.bc592d849cdd8p-1', '0x0.0p+0', 6),
        ('0x1.0057354326646p-7', '0x1.ff5566eccc7c9p-1', '0x0.0p+0', 7),
        ('0x1.fe01fe01fe020p-8', '0x1.0000000000000p+0', '0x0.0p+0', 5),
        ('0x1.fe01fe01fe020p-8', '0x1.0000000000000p+0', '0x0.0p+0', 5),
    ],
    ((0, 8), 'classic'): [
        ('0x1.c71c71c71c71cp-3', '0x0.0p+0', '0x0.0p+0', 0),
        ('0x1.c71c71c71c71cp-3', '0x1.c71c71c71c71cp-3', '0x0.0p+0', 1),
        ('0x1.c71c71c71c71cp-3', '0x1.346b2d20c71acp-1', '0x0.0p+0', 1),
        ('0x1.c71c71c71c71cp-3', '0x1.ffff6974136dep-1', '0x0.0p+0', 1),
        ('0x1.c71c71c71c71cp-3', '0x1.ffff6974136dep-1', '0x0.0p+0', 1),
        ('0x1.c71c71c71c71cp-3', '0x1.fffffffffffffp-1', '0x0.0p+0', 1),
        ('0x1.c71c71c71c71cp-3', '0x1.0000000000000p+0', '0x0.0p+0', 1),
        ('0x1.c71c71c71c71cp-3', '0x1.0000000000000p+0', '0x0.0p+0', 1),
        ('0x1.c71c71c71c71cp-3', '0x1.0000000000000p+0', '0x0.0p+0', 1),
        ('0x1.c71c71c71c71cp-3', '0x1.0000000000000p+0', '0x0.0p+0', 1),
    ],
    ((3, 11), 'classic'): [
        ('0x1.5555555555555p-3', '0x0.0p+0', '0x0.0p+0', 0),
        ('0x1.22021116658aap-3', '0x1.22021116658aap-3', '0x0.0p+0', 4),
        ('0x1.a3dd6987b22d6p-4', '0x1.4f72461003482p-2', '0x0.0p+0', 5),
        ('0x1.147374a08c7b9p-5', '0x1.a0c75db8f72a6p-1', '0x0.0p+0', 6),
        ('0x1.147374a08c7b9p-5', '0x1.a0c75db8f72a6p-1', '0x0.0p+0', 6),
        ('0x1.86b6f00dd03d0p-6', '0x1.f19d8d4cdc353p-1', '0x0.0p+0', 6),
        ('0x1.864170bdbe7cep-6', '0x1.f1e5f717996d6p-1', '0x0.0p+0', 6),
        ('0x1.702e05fa9ae72p-6', '0x1.ffffffd9b031dp-1', '0x0.0p+0', 5),
        ('0x1.702e05c0b8170p-6', '0x1.0000000000000p+0', '0x0.0p+0', 3),
        ('0x1.702e05c0b8170p-6', '0x1.0000000000000p+0', '0x0.0p+0', 3),
    ],
    ((16, 65536), 'classic'): [
        ('0x1.fffe0001fffe0p-16', '0x0.0p+0', '0x0.0p+0', 0),
        ('0x1.fffa000dffe60p-16', '0x1.fffa000dffe60p-16', '0x0.0p+0', 3),
        ('0x1.ffef528483f91p-16', '0x1.d5a5e40c8a9b0p-14', '0x0.0p+0', 3),
        ('0x1.ff3a2716f0d43p-16', '0x1.871f47a426519p-10', '0x0.0p+0', 3),
        ('0x1.ff3a2716f0d43p-16', '0x1.871f47a42651ap-10', '0x0.0p+0', 3),
        ('0x1.fdaf5be152e1ep-16', '0x1.2601316347c9fp-8', '0x0.0p+0', 3),
        ('0x1.fdab60928cc3bp-16', '0x1.27fa48c9e1726p-8', '0x0.0p+0', 3),
        ('0x1.f2f27c7239e19p-16', '0x1.971469857ebcdp-6', '0x0.0p+0', 4),
        ('0x1.bad969e77e8d0p-16', '0x1.e7580ce1e0918p-4', '0x0.0p+0', 4),
        ('0x1.cfd7cd801fc97p-21', '0x1.28334cd61641cp-1', '0x0.0p+0', 7),
    ],
}


@pytest.mark.parametrize("geometry, mode", list(PINNED_SOLVES))
def test_fixed_point_bits_are_pinned(geometry, mode):
    got = [solve_fixed_point(n, ChainGeometry(*geometry), mode) for n in PINNED_COUNTS]
    assert [(s.tau.hex(), s.p_c.hex(), s.p_b.hex(), s.iterations) for s in got] \
        == PINNED_SOLVES[geometry, mode]
