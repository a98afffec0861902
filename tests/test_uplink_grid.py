"""The uplink evaluated over a whole transmit-SNR grid at once.

harness._uplink_record evaluates a realization over its grid with one
LED selection and one union-bound, rate-bound and MI call per active
set. It must give the rows that one call per grid point gives: the
references below are the per-point code it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lifisim.sm as sm
from lifisim import (admissible_group_starts, build_constellation,
                     energy_efficiency, led_selection_uplink, lower_bound_l1,
                     lower_bound_l2, mi_monte_carlo, rate_bounds,
                     received_snr, scenario_from_dict, strongest_columns,
                     union_bound_ber)
from lifisim import harness
from lifisim.util import db_to_linear, linear_to_db

TARGET = 3.8e-3


def _reference_led_selection(H, M, gamma_tx, target_ber):
    """led_selection_uplink at one SNR as it was: one union bound per
    admissible group, largest group first."""
    H = np.atleast_2d(H)
    order = np.argsort(np.linalg.norm(H, axis=0), kind="stable")
    single = build_constellation(M, 1)
    for start in admissible_group_starts(H.shape[1]):
        weakest = H[:, order[start - 1]][:, None]
        if union_bound_ber(single, weakest, gamma_tx) <= target_ber:
            return tuple(int(i) for i in np.sort(order[start - 1:]))
    return ()


def _reference_uplink_record(sc, idx, H):
    """_uplink_record as it was, one grid point at a time, except that
    sm takes the n_active strongest columns instead of all of them."""
    M = sc.uplink_pam_order()
    grid = sc.uplink_snr_grid_db()
    out = np.full((grid.size, 9), np.nan)
    for g, gtx_db in enumerate(grid):
        gtx = db_to_linear(gtx_db)
        if sc.scheme == "asm":
            active = list(_reference_led_selection(H, M, gtx, sc.target_ber))
            if not active:
                continue
        else:
            active = list(strongest_columns(H, sc.n_active))
        H_sub = H[:, active]
        n_a = len(active)
        c = build_constellation(M, n_a)
        grx = received_snr(H_sub, n_a, gtx)
        if grx <= 0:
            continue
        sigma2 = 1.0 / gtx
        l1 = float(lower_bound_l1(c, H_sub, sigma2))
        l2 = float(lower_bound_l2(c, H_sub, sigma2))
        rate = max(max(l1, 0.0), max(l2, 0.0))
        mi = se = np.nan
        if sc.mi_samples > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence([sc.seed, 2, idx, g]))
            mi, se = mi_monte_carlo(c, H_sub, sigma2, sc.mi_samples, rng)
        ee = energy_efficiency(rate, sc.noise_power * gtx, sc.symbol_rate)
        out[g] = (n_a, linear_to_db(grx), union_bound_ber(c, H_sub, gtx),
                  rate, ee, l1, l2, mi, se)
    return out


def _assert_record_matches_reference(H, scheme, n_active=4, tse=2,
                                     start=120.0, step=5.0, n_points=11,
                                     mi_samples=0, seed=0, idx=3):
    sc = scenario_from_dict(dict(
        direction="uplink", scheme=scheme, n_active=n_active,
        uplink_tse=tse, uplink_snr_start_db=start,
        uplink_snr_stop_db=start + step * (n_points - 1),
        uplink_snr_step_db=step, mi_samples=mi_samples, seed=seed))
    try:
        theirs = _reference_uplink_record(sc, idx, H)
    except np.linalg.LinAlgError:
        # far above the channel's useful range 2cQ + I stops being
        # numerically positive definite, and L2 fails either way
        with pytest.raises(np.linalg.LinAlgError):
            harness._uplink_record(sc, idx, H)
        return None
    ours = harness._uplink_record(sc, idx, H)
    assert ours.shape == (n_points, len(harness._UPLINK_FIELDS))
    assert np.array_equal(ours, theirs, equal_nan=True)
    return ours


@st.composite
def _channels(draw):
    """(H, n_active): uplink-scale gains with zero and equal columns."""
    n_tx = draw(st.integers(1, 6))
    n_rx = draw(st.sampled_from([1, 4, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    H = rng.uniform(0.0, 1.0, size=(n_rx, n_tx)) * 10.0 ** -draw(
        st.integers(5, 7))
    for j in range(n_tx):
        kind = draw(st.sampled_from(["random", "zero", "copy"]))
        if kind == "zero":
            H[:, j] = 0.0
        elif kind == "copy":                  # equal norms, equal outputs
            H[:, j] = H[:, 0]
    n_active = draw(st.sampled_from([n for n in (1, 2, 4) if n <= n_tx]))
    return H, n_active


@settings(max_examples=60, deadline=None)
@given(channel=_channels(),
       scheme=st.sampled_from(["asm", "sm"]),
       tse=st.integers(1, 3),
       start=st.integers(60, 200).map(float),
       step=st.integers(1, 10).map(float),
       n_points=st.integers(1, 12),
       mi_samples=st.sampled_from([0, 1000]),
       seed=st.integers(0, 1000))
def test_grid_record_matches_per_point_reference(channel, scheme, tse, start,
                                                 step, n_points, mi_samples,
                                                 seed):
    H, n_active = channel
    _assert_record_matches_reference(H, scheme, n_active, tse, start, step,
                                     n_points, mi_samples, seed)


@pytest.mark.parametrize("scheme", ["asm", "sm"])
@pytest.mark.parametrize("mi_samples", [0, 1000])
def test_all_outage_grids_match_reference(scheme, mi_samples):
    # no power at all: every point of both schemes is in outage
    rows = _assert_record_matches_reference(np.zeros((16, 4)), scheme,
                                            mi_samples=mi_samples)
    assert np.isnan(rows).all()
    # far too little SNR: ASM selects nothing anywhere
    H = np.random.default_rng(1).uniform(0.0, 1e-6, size=(16, 4))
    rows = _assert_record_matches_reference(H, scheme, start=60.0, step=1.0,
                                            n_points=12,
                                            mi_samples=mi_samples)
    assert np.isnan(rows).all() == (scheme == "asm")


@pytest.mark.parametrize("scheme", ["asm", "sm"])
def test_equal_columns_and_a_zero_column_match_reference(scheme):
    H = np.random.default_rng(2).uniform(0.0, 1e-6, size=(16, 4))
    H[:, 1] = H[:, 0]
    H[:, 3] = H[:, 2]
    H[:, 2] = 0.0
    rows = _assert_record_matches_reference(H, scheme, start=100.0,
                                            step=5.0, n_points=12,
                                            mi_samples=1000)
    # the grid must hold more than one active set for this to mean much
    if scheme == "asm":
        assert len(set(rows[:, 0][~np.isnan(rows[:, 0])])) > 1


def test_led_selection_grid_equals_one_point_calls():
    rng = np.random.default_rng(5)
    gammas = db_to_linear(np.arange(0.0, 60.0, 2.0))
    for _ in range(20):
        H = rng.uniform(0.0, 1.0, size=(4, 4))
        H[:, rng.integers(0, 4)] *= rng.uniform(0.0, 0.01)
        grid = led_selection_uplink(H, 4, gammas, TARGET)
        assert grid == [led_selection_uplink(H, 4, g, TARGET)
                        for g in gammas]
        assert grid == [_reference_led_selection(H, 4, g, TARGET)
                        for g in gammas]


@pytest.mark.parametrize("M,n_a", [(4, 1), (4, 4), (8, 2), (2, 16)])
def test_union_bound_grid_equals_one_point_calls(monkeypatch, M, n_a):
    c = build_constellation(M, n_a)
    H = np.random.default_rng(3).uniform(0.0, 1.0, size=(6, n_a))
    gammas = db_to_linear(np.arange(-10.0, 40.0, 3.0))
    one_point = [union_bound_ber(c, H, g) for g in gammas]
    assert union_bound_ber(c, H, gammas).tolist() == one_point
    # a grid bounded in many parts gives the same values
    monkeypatch.setattr(sm, "BOUND_TERMS", 3 * len(c.pairs.flat) - 1)
    assert union_bound_ber(c, H, gammas).tolist() == one_point
    with pytest.raises(ValueError, match="gamma_tx"):
        union_bound_ber(c, H, np.array([1.0, np.nan]))


@pytest.mark.parametrize("M,n_a,n_rx", [(4, 1, 1), (4, 4, 16), (8, 2, 4)])
def test_rate_bounds_grid_equals_one_point_calls(M, n_a, n_rx):
    c = build_constellation(M, n_a)
    H = np.random.default_rng(4).uniform(0.0, 1.0, size=(n_rx, n_a))
    sigma2 = 10.0 ** -np.arange(-3.0, 9.0, 1.5)
    grid = rate_bounds(c, H, sigma2)
    points = [rate_bounds(c, H, s) for s in sigma2]
    assert grid.l1.tolist() == [p.l1 for p in points]
    assert grid.l2.tolist() == [p.l2 for p in points]
    assert grid.rate.tolist() == [p.rate for p in points]
    with pytest.raises(ValueError, match="sigma2"):
        rate_bounds(c, H, np.array([1.0, 0.0]))


@pytest.mark.parametrize("n_samples", [1000, 20_001])
def test_mi_grid_equals_one_point_calls(n_samples):
    c = build_constellation(4, 4)
    H = np.random.default_rng(6).uniform(0.0, 1.0, size=(16, 4))
    H[:, 3] = 0.0
    sigma2 = np.array([1e-4, 1e-2, 1.0, 1e2])

    def gens():
        return [np.random.default_rng(seed) for seed in (11, 12, 13, 14)]

    mi, se = mi_monte_carlo(c, H, sigma2, n_samples, gens())
    points = [mi_monte_carlo(c, H, s, n_samples, g)
              for s, g in zip(sigma2, gens())]
    assert list(zip(mi.tolist(), se.tolist())) == points
    with pytest.raises(ValueError):
        mi_monte_carlo(c, H, sigma2, n_samples, gens()[:3])


def _mi_grid_case():
    c = build_constellation(4, 4)
    H = np.random.default_rng(6).uniform(0.0, 1.0, size=(16, 4))
    H[:, 3] = 0.0
    return c, H, np.array([1e-4, 1e-2, 1.0, 1e2])


def test_mi_grid_on_two_point_threads_equals_one_point_calls(
        two_point_threads):
    c, H, sigma2 = _mi_grid_case()

    def gens():
        return [np.random.default_rng(seed) for seed in (11, 12, 13, 14)]

    mi, se = mi_monte_carlo(c, H, sigma2, 20_001, gens())
    points = [mi_monte_carlo(c, H, s, 20_001, g)
              for s, g in zip(sigma2, gens())]
    assert list(zip(mi.tolist(), se.tolist())) == points
    # the grid went through the pool, the one-point calls did not
    assert two_point_threads == [sigma2.size]


def test_mi_one_generator_for_several_points_draws_them_in_turn(
        two_point_threads):
    c, H, sigma2 = _mi_grid_case()
    shared = np.random.default_rng(7)
    mi, se = mi_monte_carlo(c, H, sigma2, 1000, [shared] * sigma2.size)
    gen = np.random.default_rng(7)
    points = [mi_monte_carlo(c, H, s, 1000, gen) for s in sigma2]
    assert list(zip(mi.tolist(), se.tolist())) == points
    assert shared.bit_generator.state == gen.bit_generator.state
    assert two_point_threads == []


@pytest.mark.parametrize("extra", [-1, 1])
def test_mi_lengths_mismatch_is_raised_before_any_draw(two_point_threads,
                                                       extra):
    c, H, sigma2 = _mi_grid_case()
    gens = [np.random.default_rng(g) for g in range(sigma2.size + extra)]
    before = [g.bit_generator.state for g in gens]
    with pytest.raises(ValueError, match="generators"):
        mi_monte_carlo(c, H, sigma2, 1000, gens)
    assert [g.bit_generator.state for g in gens] == before
    assert two_point_threads == []
