import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dangermac.config import MODEL_MODES
from dangermac.markov import (
    ChainGeometry,
    ChainInputs,
    _coupled_map,
    build_transition_matrix,
    oracle_stationary,
    solve_fixed_point,
    stationary_distribution,
    tau_from_distribution,
)

GRID_GEOMETRIES = [(1, 2), (2, 4), (3, 8), (5, 8)]
GRID_PROBS = [0.0, 0.2, 0.5, 0.8]


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
    with pytest.raises(ValueError):
        ChainGeometry(-1, 8)
    with pytest.raises(ValueError):
        ChainGeometry(2, 1)


def test_inputs_validation():
    with pytest.raises(ValueError):
        ChainInputs(1.0, 0.0)
    with pytest.raises(ValueError):
        ChainInputs(0.0, 1.0)
    with pytest.raises(ValueError):
        ChainInputs(-0.1, 0.0)


def test_b00_zero_coupling():
    # with no collisions and no busy slots only stage 0 is occupied and its
    # counter masses are 1, (w-1)/w, ..., 1/w, so b00 = 2 / (w0 + 1)
    b00 = stationary_distribution(ChainInputs(0.0, 0.0), ChainGeometry(5, 8)).probability(0, 0)
    assert b00 == pytest.approx(2 / 9, abs=1e-15)


def test_b00_bounds():
    rng = np.random.default_rng(7)
    for _ in range(200):
        inputs = ChainInputs(rng.uniform(0, 0.95), rng.uniform(0, 0.95))
        g = ChainGeometry(int(rng.integers(0, 6)), int(2 ** rng.integers(1, 5)))
        b00 = stationary_distribution(inputs, g).probability(0, 0)
        assert 0.0 < b00 <= 1.0


def test_stationary_hand_case():
    # two stages, windows 2 and 4, collisions half the time, never busy:
    # six states solvable by hand from the balance equations
    d = stationary_distribution(ChainInputs(0.5, 0.0), ChainGeometry(1, 2))
    expected = {
        (0, 0): 0.25, (0, 1): 0.125,
        (1, 0): 0.25, (1, 1): 0.1875, (1, 2): 0.125, (1, 3): 0.0625,
    }
    for (i, k), value in expected.items():
        assert d.probability(i, k) == pytest.approx(value, abs=1e-15)
    assert tau_from_distribution(d) == pytest.approx(0.5, abs=1e-15)


def test_stationary_no_collisions_empties_upper_stages():
    d = stationary_distribution(ChainInputs(0.0, 0.3), ChainGeometry(3, 4))
    for i in range(1, 4):
        assert d.stages[i].sum() == 0.0


def test_normalization_grid():
    for m, w0 in GRID_GEOMETRIES:
        g = ChainGeometry(m, w0)
        for p_c in GRID_PROBS:
            for p_b in GRID_PROBS:
                d = stationary_distribution(ChainInputs(p_c, p_b), g)
                assert d.total() == pytest.approx(1.0, abs=1e-12)
                assert all((s >= 0).all() for s in d.stages)


def test_closed_form_matches_matrix_oracle():
    for m, w0 in [(1, 2), (2, 4), (3, 8)]:
        g = ChainGeometry(m, w0)
        for p_c in GRID_PROBS:
            for p_b in GRID_PROBS:
                inputs = ChainInputs(p_c, p_b)
                closed = stationary_distribution(inputs, g).flat()
                oracle = oracle_stationary(build_transition_matrix(inputs, g), g).flat()
                assert np.abs(closed - oracle).max() <= 1e-9


def test_closed_form_matches_oracle_single_stage():
    # the degenerate one-stage chain loops back regardless of outcome
    g = ChainGeometry(0, 8)
    for p_c in (0.0, 0.5):
        inputs = ChainInputs(p_c, 0.3)
        closed = stationary_distribution(inputs, g).flat()
        oracle = oracle_stationary(build_transition_matrix(inputs, g), g).flat()
        assert np.abs(closed - oracle).max() <= 1e-9


def test_reference_point_against_oracle():
    g = ChainGeometry(2, 4)
    inputs = ChainInputs(0.3, 0.2)
    d = stationary_distribution(inputs, g)
    o = oracle_stationary(build_transition_matrix(inputs, g), g)
    assert abs(d.probability(0, 0) - o.probability(0, 0)) <= 1e-9
    assert abs(tau_from_distribution(d) - tau_from_distribution(o)) <= 1e-9
    # b00 = 1 / sum_i c_i (1 + (W_i - 1) / 2 / (1 - p_b / W_i)), W = 4, 8, 16,
    # c = 1, p_c, p_c^2 / (1 - p_c)
    stage_masses = [1 + 1.5 / 0.95, 0.3 * (1 + 3.5 / 0.975),
                    0.09 / 0.7 * (1 + 7.5 / 0.9875)]
    assert d.probability(0, 0) == pytest.approx(1 / sum(stage_masses), rel=1e-14)


def test_matrix_is_row_stochastic():
    for m, w0 in GRID_GEOMETRIES:
        g = ChainGeometry(m, w0)
        p = build_transition_matrix(ChainInputs(0.4, 0.6), g)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_matrix_no_self_loops_when_never_busy():
    g = ChainGeometry(2, 4)
    p = build_transition_matrix(ChainInputs(0.2, 0.0), g)
    from dangermac.markov import state_index
    for i in range(3):
        for k in range(1, g.window(i)):
            assert p[state_index(g, i, k), state_index(g, i, k)] == 0.0


def test_oracle_uniform_on_symmetric_two_state_chain():
    g = ChainGeometry(0, 2)
    matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
    d = oracle_stationary(matrix, g)
    assert d.stages[0] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_oracle_fixed_point_residual():
    g = ChainGeometry(2, 4)
    matrix = build_transition_matrix(ChainInputs(0.3, 0.2), g)
    v = oracle_stationary(matrix, g).flat()
    assert np.abs(v @ matrix - v).max() <= 1e-12


def test_tau_zero_coupling_reduction():
    for w0 in (2, 4, 8, 16):
        d = stationary_distribution(ChainInputs(0.0, 0.0), ChainGeometry(5, w0))
        assert tau_from_distribution(d) == pytest.approx(2 / (w0 + 1), abs=1e-14)


def test_tau_single_stage():
    d = stationary_distribution(ChainInputs(0.4, 0.1), ChainGeometry(0, 8))
    assert tau_from_distribution(d) == pytest.approx(d.probability(0, 0), abs=1e-15)


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
    assert (a.tau, a.p_c, a.p_b, a.b00, a.iterations, a.residual) == \
           (b.tau, b.p_c, b.p_b, b.b00, b.iterations, b.residual)


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
    assert busy.b00 == 0.0


def test_fixed_point_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        solve_fixed_point(5, ChainGeometry(5, 8), "bogus")


def _bisection_root(n, g, mode):
    """tau = T(tau) by plain bisection on [0, 2 / (w0 + 1)], run until the
    midpoint stops moving; the end with the smaller |tau - T(tau)|."""
    def f(tau):
        return tau - _coupled_map(tau, n, g, mode)[0]

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
        for n in (0.4, 1, 1.5, 2, 50, 149, 150, 1e4, 1e6):
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


def test_fixed_point_matches_stationary_distribution():
    # p_c = 1 - (1 - tau)^(n-1), p_b = p_c busy-aware and 0 classic, and
    # b00 and tau are those of the closed-form chain at (p_c, p_b)
    g = ChainGeometry(5, 8)
    for n in (2, 50, 149):
        for mode in ("busy_aware", "classic"):
            solution = solve_fixed_point(n, g, mode)
            assert solution.p_c == pytest.approx(1 - (1 - solution.tau) ** (n - 1), rel=1e-12)
            assert solution.p_b == (solution.p_c if mode == "busy_aware" else 0.0)
            d = stationary_distribution(ChainInputs(solution.p_c, solution.p_b), g)
            assert solution.b00 == pytest.approx(d.probability(0, 0), rel=1e-12)
            assert solution.tau == pytest.approx(tau_from_distribution(d), rel=1e-12)
