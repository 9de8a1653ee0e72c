import math
import re

import numpy as np
import pytest

from dangermac.config import MODEL_MODES, MacTimings
from dangermac.markov import ChainGeometry, solve_fixed_point
from dangermac.metrics import (
    access_probabilities,
    delay_state_probabilities,
    frame_times,
    pdr,
    throughput,
    total_delay,
)
from dangermac.pipeline import evaluate_points


def test_access_single_station():
    ap = access_probabilities(0.1, 1)
    assert ap.p_tr == pytest.approx(0.1, abs=1e-15)
    assert ap.p_su == 1.0


def test_access_two_stations():
    ap = access_probabilities(0.5, 2)
    assert ap.p_tr == pytest.approx(0.75, abs=1e-15)
    assert ap.p_su == pytest.approx(2 / 3, abs=1e-15)


def test_access_silent_network():
    ap = access_probabilities(0.0, 10)
    assert ap.p_tr == 0.0
    assert ap.p_su == 1.0


def test_access_saturated_tau():
    assert access_probabilities(1.0, 1).p_su == 1.0
    ap = access_probabilities(1.0, 3)
    assert ap.p_tr == 1.0
    assert ap.p_su == 0.0


def test_access_bounds_random():
    rng = np.random.default_rng(3)
    for _ in range(500):
        ap = access_probabilities(rng.uniform(0, 1), int(rng.integers(1, 80)))
        assert 0.0 <= ap.p_tr <= 1.0
        assert 0.0 <= ap.p_su <= 1.0


def test_success_decreasing_in_population_at_fixed_tau():
    values = [access_probabilities(0.2, n).p_su for n in range(2, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pdr_is_success_probability():
    ap = access_probabilities(0.5, 2)
    assert pdr(ap) == ap.p_su
    assert pdr(access_probabilities(0.3, 1)) == 1.0


def test_frame_times_reference_values():
    t = MacTimings()
    t_s, t_c = frame_times(t)
    header_us = 50 * 8 / 6
    assert t_s == pytest.approx(header_us + 1364 + 32 + 1 + 44 + 64 + 1, abs=1e-9)
    assert t_c == pytest.approx(header_us + 1364 + 64 + 1, abs=1e-9)
    assert t_s == pytest.approx(1572.6667, abs=2e-4)
    assert t_c == pytest.approx(1495.6667, abs=2e-4)


def test_frame_times_gap_is_sifs_when_ack_free():
    t = MacTimings(header_bytes=0, ack_us=0.0, prop_delay_us=0.0)
    t_s, t_c = frame_times(t)
    assert t_s - t_c == pytest.approx(t.sifs_us, abs=1e-12)


def test_throughput_limits():
    t = MacTimings()
    t_s, _ = frame_times(t)
    silent = throughput(access_probabilities(0.0, 5), t)
    assert silent == 0.0
    lone = throughput(access_probabilities(1.0, 1), t)
    assert lone == pytest.approx(t.payload_us / t_s, abs=1e-12)


def test_throughput_bounded_by_payload_share():
    t = MacTimings()
    t_s, _ = frame_times(t)
    rng = np.random.default_rng(11)
    for _ in range(300):
        ap = access_probabilities(rng.uniform(0, 1), int(rng.integers(1, 60)))
        s = throughput(ap, t)
        assert 0.0 <= s <= t.payload_us / t_s + 1e-12


def test_delay_states_two_station_split():
    states = delay_state_probabilities(0.5, 2)
    assert states.p_emp == pytest.approx(0.25, abs=1e-15)
    assert states.p_suc == pytest.approx(0.25, abs=1e-15)
    assert states.p_own == pytest.approx(0.25, abs=1e-15)
    assert states.p_col == pytest.approx(0.25, abs=1e-15)
    assert states.p_bus == 0.0


def test_delay_states_silent_network():
    states = delay_state_probabilities(0.0, 7)
    assert tuple(states) == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_delay_states_single_station():
    states = delay_state_probabilities(0.3, 1)
    assert states.p_suc == 0.0
    assert states.p_col == 0.0
    assert states.p_own == pytest.approx(0.3, abs=1e-15)
    assert states.p_bus == pytest.approx(0.0, abs=1e-15)


def test_delay_states_close_exactly():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        states = delay_state_probabilities(rng.uniform(0, 1),
                                           int(rng.integers(1, 101)))
        assert sum(states) == 1.0
        assert min(states) >= -1e-15


def test_total_delay_reference_values():
    t = MacTimings()
    states = delay_state_probabilities(0.1, 10)
    breakdown = total_delay(states, p_tr=0.6, n_transmitter=10, t=t)
    assert breakdown.cw_star_us == 7 * 13 / 2 == 45.5
    assert breakdown.n_transmission == pytest.approx(6.0, abs=1e-12)
    assert breakdown.n_collision == pytest.approx(states.p_col * 10, abs=1e-12)
    # basic access keeps the handshake legs out of the exchange time
    assert breakdown.t_tt_us == pytest.approx((3 * 32 + 1364 + 44 + 64) * 6.0, abs=1e-9)
    assert breakdown.t_tc_us == pytest.approx(64 * states.p_col * 10, abs=1e-9)
    assert breakdown.t_emp_us == pytest.approx(13 * states.p_emp * 10, abs=1e-9)


def test_total_delay_collision_leg_is_difs_without_handshake():
    t = MacTimings(rts_us=0.0)
    states = delay_state_probabilities(0.2, 5)
    breakdown = total_delay(states, p_tr=0.5, n_transmitter=1, t=t)
    assert breakdown.t_tc_us == pytest.approx(64.0 * states.p_col, abs=1e-12)


def test_total_delay_additivity_exact():
    t = MacTimings(rts_us=30.0, cts_us=24.0)
    rng = np.random.default_rng(9)
    for _ in range(200):
        states = delay_state_probabilities(rng.uniform(0, 0.9),
                                           int(rng.integers(1, 60)))
        n = float(rng.integers(1, 60))
        b = total_delay(states, rng.uniform(0, 1), n, t)
        assert b.t_td_us == b.t_tt_us + b.t_tc_us + b.cw_star_us + b.t_emp_us
        assert b.t_tt_us >= 0 and b.t_tc_us >= 0 and b.t_emp_us >= 0


def test_metrics_track_solved_chain_monotonically():
    t = MacTimings()
    g = ChainGeometry(5, 8)
    pdrs, rates = [], []
    for n in range(1, 101, 3):
        tau = solve_fixed_point(n, g, "busy_aware").tau
        ap = access_probabilities(tau, n)
        pdrs.append(pdr(ap))
        rates.append(throughput(ap, t))
    assert all(a >= b for a, b in zip(pdrs, pdrs[1:]))
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_formula_layer_rejects_bad_tau_and_population():
    def rejects(message, call, *args):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(*args)

    for states in (access_probabilities, delay_state_probabilities):
        for tau in (-0.1, 1.5, math.nan):
            rejects(f"tau must be in [0, 1] (got {tau})", states, tau, 5)
        for n in (-1, math.nan):
            rejects(f"n must be >= 0 (got {n})", states, 0.1, n)
    states = delay_state_probabilities(0.1, 5)
    for n in (-1, math.nan):
        rejects(f"n_transmitter must be >= 0 (got {n})", total_delay, states, 0.5, n,
                MacTimings())
    for mode in MODEL_MODES:
        rejects("n must be >= 0 (got -1.0)", evaluate_points, MacTimings(), [5.0, -1.0], mode)
        rejects("n must be >= 0 (got nan)", evaluate_points, MacTimings(), [math.nan], mode)
