"""Required-SNR search, downlink adaptation and uplink source selection."""

import numpy as np
import pytest

from lifisim import (admissible_group_starts, asm_select_downlink,
                     build_constellation, led_selection_uplink,
                     required_snr, strongest_columns, union_bound_ber)
from lifisim.util import db_to_linear

TARGET = 3.8e-3


def _good_channel(seed=0, shape=(4, 4)):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 1.0, size=shape) + 0.5 * np.eye(*shape)


def test_required_snr_against_grid_scan():
    c = build_constellation(8, 4)
    H = _good_channel(1)
    res = required_snr(c, H, TARGET)
    assert res.feasible
    # independent fine scan: the bound must cross the target within
    # 0.02 dB of the bisection answer
    assert union_bound_ber(c, H, db_to_linear(res.gamma_tx_db - 0.5)) > TARGET
    assert union_bound_ber(c, H, db_to_linear(res.gamma_tx_db + 0.5)) <= TARGET
    grid = np.arange(res.gamma_tx_db - 0.5, res.gamma_tx_db + 0.5, 0.001)
    crossing = grid[np.argmax(
        [union_bound_ber(c, H, db_to_linear(g)) <= TARGET for g in grid])]
    assert abs(crossing - res.gamma_tx_db) <= 0.02


def test_required_snr_meets_target_tightly():
    c = build_constellation(4, 2)
    H = _good_channel(2, (4, 2))
    res = required_snr(c, H, 1e-4)
    assert union_bound_ber(c, H, db_to_linear(res.gamma_tx_db)) <= 1e-4
    # 0.05 dB below the answer the bound must exceed the target
    assert union_bound_ber(c, H, db_to_linear(res.gamma_tx_db - 0.05)) > 1e-4


def test_required_snr_reports_received_snr():
    from lifisim import received_snr as rx_snr
    c = build_constellation(8, 4)
    H = _good_channel(3)
    res = required_snr(c, H, TARGET)
    expected = 10 * np.log10(rx_snr(H, 4, db_to_linear(res.gamma_tx_db)))
    assert res.gamma_rx_db == pytest.approx(expected, abs=1e-9)


def test_required_snr_duplicate_columns_infeasible():
    c = build_constellation(4, 2)
    H = np.array([[0.5, 0.5], [0.2, 0.2]])      # indistinguishable sources
    res = required_snr(c, H, TARGET)
    assert not res.feasible
    assert res.gamma_tx_db == np.inf


def test_required_snr_zero_channel_infeasible():
    c = build_constellation(4, 2)
    assert not required_snr(c, np.zeros((2, 2)), TARGET).feasible


def test_required_snr_scale_shift():
    # scaling H by 10 shifts the required transmit SNR by -20 dB
    c = build_constellation(8, 4)
    H = _good_channel(4)
    base = required_snr(c, H, TARGET)
    scaled = required_snr(c, 10.0 * H, TARGET)
    assert scaled.gamma_tx_db == pytest.approx(base.gamma_tx_db - 20.0,
                                               abs=0.03)
    assert scaled.gamma_rx_db == pytest.approx(base.gamma_rx_db, abs=0.03)


def test_required_snr_validation():
    c = build_constellation(4, 2)
    with pytest.raises(ValueError):
        required_snr(c, np.eye(2), 0.6)


def test_strongest_columns():
    H = np.array([[1.0, 3.0, 2.0, 0.5]])
    np.testing.assert_array_equal(strongest_columns(H, 2), [1, 2])
    np.testing.assert_array_equal(strongest_columns(H, 4), [0, 1, 2, 3])
    # ties resolve to the smaller original index
    H_tie = np.array([[1.0, 1.0, 1.0]])
    np.testing.assert_array_equal(strongest_columns(H_tie, 2), [0, 1])


def test_asm_minimizes_over_candidates():
    H = _good_channel(5)
    decision = asm_select_downlink(H, TARGET, 5)
    assert decision.feasible
    assert decision.M * decision.n_active == 32
    # exhaustive oracle over the admissible (N_a, M) pairs
    best_db = np.inf
    best_na = None
    for n_a, M in [(1, 32), (2, 16), (4, 8)]:
        idx = strongest_columns(H, n_a)
        res = required_snr(build_constellation(M, n_a), H[:, idx], TARGET)
        if res.feasible and res.gamma_rx_db < best_db:
            best_db, best_na = res.gamma_rx_db, n_a
    assert decision.gamma_rx_db == pytest.approx(best_db, abs=1e-9)
    assert decision.n_active == best_na


def test_asm_single_strong_column():
    # only one usable source: every multi-source candidate is infeasible
    H = np.zeros((4, 4))
    H[0, 2] = 1.0
    decision = asm_select_downlink(H, TARGET, 5)
    assert decision.feasible
    assert decision.n_active == 1
    assert decision.M == 32
    assert decision.active_set == (2,)


def test_asm_infeasible_channel():
    decision = asm_select_downlink(np.zeros((4, 4)), TARGET, 5)
    assert not decision.feasible
    assert decision.n_active == 0


def test_asm_skips_sub_binary_pam():
    # R = 2 with 4 sources would need M = 1; only N_a in {1, 2} qualify
    H = _good_channel(6)
    decision = asm_select_downlink(H, TARGET, 2)
    assert decision.feasible
    assert decision.n_active in (1, 2)
    assert decision.M * decision.n_active == 4
    assert decision.M >= 2


def test_asm_respects_candidate_limit():
    H = _good_channel(7, (4, 2))     # only two physical sources
    decision = asm_select_downlink(H, TARGET, 3)
    assert decision.feasible
    assert decision.n_active <= 2


def test_admissible_group_starts():
    assert admissible_group_starts(4) == [1, 3, 4]
    assert admissible_group_starts(8) == [1, 5, 7, 8]
    assert admissible_group_starts(1) == [1]
    assert admissible_group_starts(16) == [1, 9, 13, 15, 16]


def test_led_selection_all_pass():
    H = np.eye(4) * 5.0
    sel = led_selection_uplink(H, 4, db_to_linear(40.0), TARGET)
    assert sel.n_active == 4
    assert sel.active_set == (0, 1, 2, 3)
    assert not sel.failed


def test_led_selection_prunes_weak_sources():
    # two strong sources, two hopeless ones: the power-of-two group
    # containing only strong columns wins
    H = np.zeros((4, 4))
    H[:, 1] = 1e-6
    H[:, 3] = 2e-6
    H[0, 0] = 1.0
    H[1, 2] = 1.1
    gamma = db_to_linear(30.0)
    single = build_constellation(4, 1)
    assert union_bound_ber(single, H[:, [1]], gamma) > TARGET
    assert union_bound_ber(single, H[:, [0]], gamma) <= TARGET
    sel = led_selection_uplink(H, 4, gamma, TARGET)
    assert sel.n_active == 2
    assert sel.active_set == (0, 2)


def test_led_selection_failure():
    sel = led_selection_uplink(np.zeros((4, 4)), 4, 100.0, TARGET)
    assert sel.failed
    assert sel.active_set == ()


def test_led_selection_weakest_gate_is_exact():
    # the returned group's weakest member must satisfy the target; the
    # next larger admissible group must not
    rng = np.random.default_rng(11)
    gamma = db_to_linear(18.0)
    single = build_constellation(4, 1)
    for _ in range(50):
        H = np.diag(rng.uniform(0.0, 2.0, size=4))
        sel = led_selection_uplink(H, 4, gamma, TARGET)
        starts = admissible_group_starts(4)
        norms = np.linalg.norm(H, axis=0)
        order = np.argsort(norms, kind="stable")
        if sel.failed:
            for start in starts:
                weakest = H[:, order[start - 1]][:, None]
                assert union_bound_ber(single, weakest, gamma) > TARGET
        else:
            start = 4 - sel.n_active + 1
            weakest = H[:, order[start - 1]][:, None]
            assert union_bound_ber(single, weakest, gamma) <= TARGET
            for earlier in [s for s in starts if s < start]:
                weaker = H[:, order[earlier - 1]][:, None]
                assert union_bound_ber(single, weaker, gamma) > TARGET
