"""Required-SNR search, downlink adaptation and uplink source selection."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import lifisim.adaptive as adaptive
from lifisim import (AsmDecision, admissible_group_starts,
                     asm_select_downlink, build_constellation,
                     build_mimo_constellation, hamming_matrix,
                     led_selection_uplink, pairwise_sq_distances,
                     received_snr, required_snr, strongest_columns,
                     union_bound_ber)
from lifisim.util import db_to_linear, linear_to_db, qfunc

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
    with pytest.raises(ValueError):
        required_snr(c, np.eye(2), TARGET, tol_db=0.0)
    with pytest.raises(ValueError):
        required_snr(c, np.array([[1.0, np.nan], [0.0, 1.0]]), TARGET)
    with pytest.raises(ValueError):
        asm_select_downlink(np.eye(4), 0.0, 4)


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


# -- the search against the bisection it replaced -------------------------

def _k2_union_bound(c, H, gamma_tx):
    """Union bound summed over all K^2 ordered pairs, as it used to be."""
    d2 = pairwise_sq_distances(H @ c.S)
    args = np.sqrt(gamma_tx / (4.0 * c.mean_power ** 2) * d2)
    return float(np.sum(hamming_matrix(c.labels) * qfunc(args))
                 / (c.K * c.bits_per_symbol))


def _bisection_required_snr(c, H, target, tol_db=0.01):
    """Transmit SNR (dB) from the bisection required_snr used to run, or
    None when infeasible."""
    d2 = pairwise_sq_distances(H @ c.S)
    d_ham = hamming_matrix(c.labels)
    floor = 0.5 * float(d_ham[d2 <= 0.0].sum()) / (c.K * c.bits_per_symbol)
    if floor > target:
        return None

    def bound(db):
        return _k2_union_bound(c, H, db_to_linear(db))

    lo, hi = -20.0, 80.0
    while bound(hi) > target:
        hi += 20.0
        if hi > 200.0:
            return None
    while bound(lo) <= target:
        lo -= 20.0
        if lo < -200.0:
            break
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


_SIGNAL_SETS = st.one_of(
    st.tuples(st.just(build_constellation), st.sampled_from([2, 4, 8, 16]),
              st.sampled_from([1, 2, 4])),
    st.tuples(st.just(build_mimo_constellation), st.sampled_from([2, 4]),
              st.sampled_from([1, 2, 3])))


@st.composite
def _channels(draw, n_tx, n_rx=None):
    """Nonnegative (n_rx, n_tx) channels, some with a zero column, a
    duplicate column or a column scaled onto another."""
    if n_rx is None:
        n_rx = draw(st.integers(1, 4))
    H = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n_rx * n_tx,
                               max_size=n_rx * n_tx))).reshape(n_rx, n_tx)
    if n_tx > 1:
        a, b = draw(st.lists(st.integers(0, n_tx - 1), min_size=2,
                             max_size=2, unique=True))
        edit = draw(st.sampled_from(["none", "zero", "copy", "scaled"]))
        if edit == "zero":
            H[:, a] = 0.0
        elif edit == "copy":
            H[:, a] = H[:, b]
        elif edit == "scaled":
            H[:, a] = 2.0 * H[:, b]
    return H


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), signal_set=_SIGNAL_SETS,
       target=st.sampled_from([1e-6, 1e-4, TARGET, 0.047, 0.19]),
       root_db=st.one_of(st.floats(-40.0, 60.0), st.floats(-215.0, -185.0),
                         st.floats(185.0, 215.0)))
def test_required_snr_matches_bisection(data, signal_set, target, root_db):
    # no target equals a floor S / (K log2 K): at such a floor both
    # searches stop where rounding absorbs the separable pairs (see the
    # next test)
    build, M, n = signal_set
    c = build(M, n)
    H = data.draw(_channels(n))
    root0 = _bisection_required_snr(c, H, target)
    if root0 is not None:
        # scaling H by s moves the crossing by -20 log10(s) dB
        H = H * 10.0 ** ((root0 - root_db) / 20.0)
    ref = _bisection_required_snr(c, H, target)
    res = required_snr(c, H, target)
    assert res.feasible == (ref is not None)
    if ref is None:
        assert res.gamma_tx_db == np.inf
        return
    hi = res.gamma_tx_db
    assert abs(hi - ref) <= 0.01
    assert union_bound_ber(c, H, db_to_linear(hi)) <= target
    assert union_bound_ber(c, H, db_to_linear(hi - 0.01)) > target
    rx = received_snr(H, c.n_active, db_to_linear(hi))
    assert res.gamma_rx_db == pytest.approx(float(linear_to_db(rx)),
                                            abs=1e-9)


def test_required_snr_infeasible_exactly_above_200_db():
    c = build_constellation(4, 2)
    H = np.array([[0.9, 0.2], [0.1, 0.7]])
    root = required_snr(c, H, TARGET).gamma_tx_db
    for shift_db, feasible in [(199.9, True), (200.1, False)]:
        scaled = H * 10.0 ** ((root - shift_db) / 20.0)
        res = required_snr(c, scaled, TARGET)
        assert res.feasible == feasible
        assert (_bisection_required_snr(c, scaled, TARGET) is not None) \
            == feasible


def test_required_snr_with_floor_equal_to_target():
    # columns 0 and 1 coincide, and the pairs they merge put a floor of
    # exactly 8 / (32 * 5) = 0.05 under the bound: it meets a 0.05 target
    # only where rounding absorbs the rest, as the bisection also found
    c = build_constellation(8, 4)
    H = np.array([[1.0, 1.0, 0.6875, 0.9375]])
    res = required_snr(c, H, 0.05)
    assert res.feasible
    assert _bisection_required_snr(c, H, 0.05) is not None
    assert union_bound_ber(c, H, db_to_linear(res.gamma_tx_db)) <= 0.05
    assert union_bound_ber(c, H, db_to_linear(res.gamma_tx_db - 0.01)) > 0.05


@settings(max_examples=150, deadline=None)
@given(signal_set=_SIGNAL_SETS, data=st.data(),
       gamma_db=st.floats(-20.0, 60.0))
def test_union_bound_equals_ordered_pair_sum(signal_set, data, gamma_db):
    build, M, n = signal_set
    c = build(M, n)
    H = data.draw(_channels(n))
    gamma = db_to_linear(gamma_db)
    expected = _k2_union_bound(c, H, gamma)
    assume(expected > 1e-200)
    assert union_bound_ber(c, H, gamma) == pytest.approx(expected, rel=1e-12)


# -- pruned ASM against the exhaustive loop it replaced ---------------------

def _exhaustive_asm(H_full, target, R, candidates=(1, 2, 4, 8, 16)):
    """Every admissible candidate searched, ascending N_a, strict <."""
    best = AsmDecision(feasible=False)
    for n_active in sorted(candidates):
        if n_active > H_full.shape[1]:
            continue
        M = 2 ** int(round(R - np.log2(n_active)))
        if M < 2 or M * n_active != 2 ** R:
            continue
        idx = strongest_columns(H_full, n_active)
        res = required_snr(build_constellation(M, n_active),
                           H_full[:, idx], target)
        if res.feasible and res.gamma_rx_db < best.gamma_rx_db:
            best = AsmDecision(feasible=True, n_active=n_active, M=M,
                               active_set=tuple(int(i) for i in idx),
                               gamma_tx_db=res.gamma_tx_db,
                               gamma_rx_db=res.gamma_rx_db)
    return best


def _assert_same_decision(got, want):
    assert (got.feasible, got.n_active, got.M, got.active_set) == \
        (want.feasible, want.n_active, want.M, want.active_set)
    if want.feasible:
        assert got.gamma_rx_db == pytest.approx(want.gamma_rx_db, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), R=st.integers(1, 6),
       n_tx=st.sampled_from([2, 4, 8, 16]),
       target=st.sampled_from([1e-4, TARGET, 0.05]))
def test_pruned_asm_matches_exhaustive_loop(data, R, n_tx, target):
    H = data.draw(_channels(n_tx))
    _assert_same_decision(asm_select_downlink(H, target, R),
                          _exhaustive_asm(H, target, R))


def test_pruned_asm_matches_exhaustive_loop_on_near_ties():
    # columns of nearly equal strength give candidates within a hair of
    # each other
    rng = np.random.default_rng(21)
    for _ in range(40):
        H = 0.5 + 1e-6 * rng.standard_normal((4, 8))
        for R in (3, 5):
            _assert_same_decision(asm_select_downlink(H, TARGET, R),
                                  _exhaustive_asm(H, TARGET, R))


def test_asm_tie_goes_to_smaller_count(monkeypatch):
    # every candidate is made to need exactly 100 dB, far above what it
    # really needs, so the bound test at the best SNR prunes none of them;
    # the fake stands in for the batched search every candidate goes
    # through, and tells the candidates apart by their gains
    H = _good_channel(9, (4, 8))
    count_of = {received_snr(H[:, strongest_columns(H, n)], n, 1.0): n
                for n in (1, 2, 4, 8)}
    assert len(count_of) == 4

    def constant(t, target, tol_db):
        n = len(t.floor)
        calls.extend(count_of[g] for g in t.gain.tolist())
        return np.full(n, 90.0), np.full(n, 100.0)

    calls = []
    monkeypatch.setattr(adaptive, "_search", constant)
    decision = asm_select_downlink(H, TARGET, 5)
    assert sorted(calls) == [1, 2, 4, 8]
    assert calls[0] != 1            # the smallest count was not searched first
    assert (decision.n_active, decision.M) == (1, 32)
    assert decision.active_set == tuple(strongest_columns(H, 1))


# -- a stack of channels against each channel alone ------------------------

@st.composite
def _stacks(draw, n_tx):
    """(B, n_rx, n_tx) stacks of _channels, each scaled by its own factor
    and some all-zero or too weak to reach any target below 200 dB."""
    n_rx = draw(st.integers(1, 4))
    stack = []
    for _ in range(draw(st.integers(1, 9))):
        H = draw(_channels(n_tx, n_rx))
        kind = draw(st.sampled_from(["scaled", "scaled", "zero", "weak"]))
        if kind == "scaled":
            H = H * 10.0 ** draw(st.floats(-4.0, 4.0))
        elif kind == "zero":
            H = np.zeros_like(H)
        else:
            H = H * 1e-12
        stack.append(H)
    return np.stack(stack)


def _pieces(data, Hs):
    """Permutation of the stack's channels and the stack cut into
    consecutive pieces of that order."""
    perm = np.array(data.draw(st.permutations(range(len(Hs)))))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(Hs)), max_size=3)))
    bounds = [0, *cuts, len(Hs)]
    return perm, [Hs[perm[a:b]] for a, b in zip(bounds, bounds[1:]) if b > a]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), signal_set=_SIGNAL_SETS,
       target=st.sampled_from([1e-6, TARGET, 0.047]),
       budget=st.sampled_from([1, 2, None]))
def test_stacked_required_snrs_equal_single_channel_calls(data, signal_set,
                                                          target, budget):
    build, M, n = signal_set
    c = build(M, n)
    Hs = data.draw(_stacks(n))
    alone = [required_snr(c, H, target) for H in Hs]
    perm, pieces = _pieces(data, Hs)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:      # stacks searched in parts of budget
            mp.setattr(adaptive, "_TABLE_ENTRIES", budget * c.K ** 2)
        stacked = [r for piece in pieces
                   for r in adaptive.required_snrs(c, piece, target)]
    assert stacked == [alone[i] for i in perm]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), R=st.integers(1, 6),
       n_tx=st.sampled_from([2, 4, 8, 16]),
       target=st.sampled_from([1e-4, TARGET, 0.05]),
       budget=st.sampled_from([1, 2, None]))
def test_stacked_asm_equals_single_channel_calls(data, R, n_tx, target,
                                                 budget):
    Hs = data.draw(_stacks(n_tx))
    alone = [asm_select_downlink(H, target, R) for H in Hs]
    assert all(isinstance(d, AsmDecision) for d in alone)
    perm, pieces = _pieces(data, Hs)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:      # stacks searched in parts of budget
            mp.setattr(adaptive, "_TABLE_ENTRIES", budget * 4 ** R)
        stacked = [d for piece in pieces
                   for d in asm_select_downlink(piece, target, R)]
    assert stacked == [alone[i] for i in perm]
