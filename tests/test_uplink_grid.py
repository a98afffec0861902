"""The uplink evaluated over a whole block of channels and SNR grid at once.

harness._uplink_block evaluates a block of realizations over the grid
with one LED selection call and one union-bound, rate-bound and MI call
per active-set size. Each realization must get the rows that one call
per grid point gives: the references below are the per-point code it
replaced.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lifisim.rates as rates
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
    """The uplink record of realization idx as it was, one grid point
    at a time, except that sm takes the n_active strongest columns
    instead of all of them."""
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


def _block_records(sc, ids, Hs):
    """harness._uplink_block on the tasks of realizations ids, channels
    Hs."""
    return harness._uplink_block(sc, [(i, 0.0, 0.0, 0.0, None) for i in ids],
                                 None, Hs)


def _uplink_scenario(scheme, n_active=4, tse=2, start=120.0, step=5.0,
                     n_points=11, mi_samples=0, seed=0):
    return scenario_from_dict(dict(
        direction="uplink", scheme=scheme, n_active=n_active,
        uplink_tse=tse, uplink_snr_start_db=start,
        uplink_snr_stop_db=start + step * (n_points - 1),
        uplink_snr_step_db=step, mi_samples=mi_samples, seed=seed))


def _assert_record_matches_reference(H, scheme, n_active=4, tse=2,
                                     start=120.0, step=5.0, n_points=11,
                                     mi_samples=0, seed=0, idx=3):
    sc = _uplink_scenario(scheme, n_active, tse, start, step, n_points,
                          mi_samples, seed)
    theirs = _reference_uplink_record(sc, idx, H)
    ours = _block_records(sc, [idx], H[None])[0]
    assert ours.shape == (n_points, len(harness._UPLINK_FIELDS))
    assert np.array_equal(ours, theirs, equal_nan=True)
    return ours


def _gains(draw, rng, n_rx, n_tx):
    """Uplink-scale gains with zero and equal columns."""
    H = rng.uniform(0.0, 1.0, size=(n_rx, n_tx)) * 10.0 ** -draw(
        st.integers(5, 7))
    for j in range(n_tx):
        kind = draw(st.sampled_from(["random", "zero", "copy"]))
        if kind == "zero":
            H[:, j] = 0.0
        elif kind == "copy":                  # equal norms, equal outputs
            H[:, j] = H[:, 0]
    return H


@st.composite
def _channels(draw):
    """(H, n_active): uplink-scale gains with zero and equal columns."""
    n_tx = draw(st.integers(1, 6))
    n_rx = draw(st.sampled_from([1, 4, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    H = _gains(draw, rng, n_rx, n_tx)
    n_active = draw(st.sampled_from([n for n in (1, 2, 4) if n <= n_tx]))
    return H, n_active


@st.composite
def _channel_stacks(draw):
    """(Hs, n_active): a stack of channels like _channels', some of them
    all-outage (no power at all) and some repeated."""
    n_tx = draw(st.integers(1, 6))
    n_rx = draw(st.sampled_from([1, 4, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Hs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["gains", "gains", "outage", "repeat"]))
        if kind == "outage":
            Hs.append(np.zeros((n_rx, n_tx)))
        elif kind == "repeat" and Hs:
            Hs.append(Hs[-1].copy())
        else:
            Hs.append(_gains(draw, rng, n_rx, n_tx))
    n_active = draw(st.sampled_from([n for n in (1, 2, 4) if n <= n_tx]))
    return np.stack(Hs), n_active


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


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stack=_channel_stacks(),
       scheme=st.sampled_from(["asm", "sm"]),
       tse=st.integers(1, 3),
       start=st.integers(60, 200).map(float),
       step=st.integers(1, 10).map(float),
       n_points=st.integers(1, 12),
       mi_samples=st.sampled_from([0, 1000]),
       seed=st.integers(0, 1000))
def test_block_matches_per_realization_reference(two_point_threads, stack,
                                                 scheme, tse, start, step,
                                                 n_points, mi_samples, seed):
    Hs, n_active = stack
    sc = _uplink_scenario(scheme, n_active, tse, start, step, n_points,
                          mi_samples, seed)
    ids = [3 + 2 * b for b in range(len(Hs))]
    theirs = [_reference_uplink_record(sc, i, H) for i, H in zip(ids, Hs)]
    before = len(two_point_threads)
    ours = _block_records(sc, ids, Hs)
    maps = two_point_threads[before:]
    assert ours.shape == (len(Hs), n_points, len(harness._UPLINK_FIELDS))
    for mine, ref in zip(ours, theirs):
        assert np.array_equal(mine, ref, equal_nan=True)
    # one map per active-set size at most: all of a size's MI points,
    # across the block, go to one mi_monte_carlo call
    n_a = ours[..., 0][~np.isnan(ours[..., 0])]
    _, points = np.unique(n_a, return_counts=True)
    assert len(maps) <= len(points)
    assert sorted(maps) == (sorted(int(n) for n in points if n > 1)
                            if mi_samples else [])


def _traced_peak(fn, *args):
    """fn(*args) and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme,tse,start,mi_samples", [
    # K = 1,024 symbols: each rate-bound point and MI channel holds a
    # K x K table of 8 MiB
    ("sm", 8, 120.0, 1000),
    # 1,024-PAM per source: each selection group's table is 1,024^2
    # terms; at these SNRs no group meets the target, so only the
    # selection runs
    ("asm", 10, 60.0, 0),
])
def test_large_alphabet_block_stays_in_one_realizations_memory(
        two_point_threads, scheme, tse, start, mi_samples):
    sc = _uplink_scenario(scheme, tse=tse, start=start, n_points=5,
                          mi_samples=mi_samples)
    rng = np.random.default_rng(5)
    Hs = rng.uniform(0.2, 1.0, size=(8, 4, 4)) * 1e-6
    ids = list(range(len(Hs)))
    build_constellation(sc.uplink_pam_order(), 4 if scheme == "sm" else 1)
    one, one_peak = _traced_peak(_block_records, sc, ids[:1], Hs[:1])
    block, block_peak = _traced_peak(_block_records, sc, ids, Hs)
    assert np.array_equal(block[:1], one, equal_nan=True)
    assert np.isfinite(block).any() == (scheme == "sm")
    # each call of the block holds about BOUND_TERMS K x K table terms
    # of a kind, here four realizations' or four points'; eight
    # realizations in one call would hold about eight times one's
    assert block_peak <= 2.0 * one_peak


@pytest.mark.parametrize("scheme", ["asm", "sm"])
def test_block_cut_by_the_term_budget_matches_reference(
        monkeypatch, two_point_threads, scheme):
    # a budget of one term: one channel per selection call, one
    # realization per call of each set size and one point per L1 part
    monkeypatch.setattr(harness, "BOUND_TERMS", 1)
    monkeypatch.setattr(rates, "BOUND_TERMS", 1)
    sc = _uplink_scenario(scheme, n_active=2, start=110.0, step=8.0,
                          n_points=8, mi_samples=1000, seed=4)
    rng = np.random.default_rng(12)
    Hs = rng.uniform(0.0, 1.0, size=(5, 4, 4)) * 1e-6
    Hs[1] = 0.0                                   # all outage
    Hs[3] = Hs[2]
    Hs[4, :, 2] = 0.0
    ids = [2, 5, 6, 9, 11]
    ours = _block_records(sc, ids, Hs)
    for i, H, mine in zip(ids, Hs, ours):
        assert np.array_equal(mine, _reference_uplink_record(sc, i, H),
                              equal_nan=True)
    assert np.isfinite(ours).any()
    # realizations 0, 2, 3 and 4 have power: at least one map each
    assert len(two_point_threads) >= 4


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


# -- one channel per point --------------------------------------------------

def _point_stack(M=4, n_a=2, n_rx=16, seed=8):
    """(c, Hs, channels, points): three channels, one of them with a zero
    column and one repeated, laid out one per point of a seven-point
    grid; points[p] is the index of point p's channel."""
    rng = np.random.default_rng(seed)
    channels = rng.uniform(0.0, 1.0, size=(3, n_rx, n_a))
    channels[1, :, 0] = 0.0
    points = np.array([0, 0, 1, 2, 2, 0, 1])
    return build_constellation(M, n_a), channels[points], channels, points


def test_union_bound_stack_equals_one_channel_calls(monkeypatch):
    c, Hs, channels, points = _point_stack()
    gammas = db_to_linear(np.linspace(-10.0, 30.0, len(points)))
    one = [union_bound_ber(c, channels[k], g) for k, g in zip(points, gammas)]
    assert union_bound_ber(c, Hs, gammas).tolist() == one
    # bounded a few pair terms at a time, the values stay the same
    monkeypatch.setattr(sm, "BOUND_TERMS", 2 * len(c.pairs.flat) + 1)
    assert union_bound_ber(c, Hs, gammas).tolist() == one
    with pytest.raises(ValueError, match="channels"):
        union_bound_ber(c, Hs, gammas[:-1])


def test_received_snr_stack_takes_one_snr_per_channel():
    _, Hs, channels, points = _point_stack()
    gammas = db_to_linear(np.linspace(100.0, 160.0, len(points)))
    assert received_snr(Hs, 2, gammas).tolist() == [
        received_snr(channels[k], 2, g) for k, g in zip(points, gammas)]


@pytest.mark.parametrize("M,n_a,n_rx", [(4, 1, 1), (4, 2, 16), (8, 4, 4)])
def test_rate_bounds_stack_equal_one_channel_calls(monkeypatch, M, n_a,
                                                   n_rx):
    c, Hs, channels, points = _point_stack(M, n_a, n_rx)
    sigma2 = 10.0 ** -np.linspace(-3.0, 8.0, len(points))
    stack = rate_bounds(c, Hs, sigma2)
    one = [rate_bounds(c, channels[k], s) for k, s in zip(points, sigma2)]
    assert stack.l1.tolist() == [float(p.l1) for p in one]
    assert stack.l2.tolist() == [float(p.l2) for p in one]
    assert lower_bound_l1(c, Hs, sigma2).tolist() == stack.l1.tolist()
    assert lower_bound_l2(c, Hs, sigma2).tolist() == stack.l2.tolist()
    # reduced two points at a time, L1 stays the same
    monkeypatch.setattr(rates, "BOUND_TERMS", 2 * c.K ** 2 + 1)
    assert lower_bound_l1(c, Hs, sigma2).tolist() == stack.l1.tolist()
    assert lower_bound_l1(c, channels[0], sigma2).tolist() == [
        float(lower_bound_l1(c, channels[0], s)) for s in sigma2]
    for bound in (lower_bound_l1, lower_bound_l2):
        with pytest.raises(ValueError, match="channels"):
            bound(c, Hs[:-1], sigma2)


def test_mi_stack_on_two_point_threads_equals_one_point_calls(
        two_point_threads):
    c, Hs, channels, points = _point_stack()
    sigma2 = 10.0 ** -np.linspace(-2.0, 4.0, len(points))

    def gens():
        return [np.random.default_rng(s) for s in range(20, 20 + len(points))]

    mi, se = mi_monte_carlo(c, Hs, sigma2, 1000, gens())
    one = [mi_monte_carlo(c, channels[k], s, 1000, g)
           for k, s, g in zip(points, sigma2, gens())]
    assert list(zip(mi.tolist(), se.tolist())) == one
    # every point of the stack in one map
    assert two_point_threads == [len(points)]


@pytest.mark.parametrize("channels,generators", [(0, -1), (0, 1), (-1, 0)])
def test_mi_stack_lengths_mismatch_is_raised_before_any_draw(
        two_point_threads, channels, generators):
    c, Hs, _, points = _point_stack()
    sigma2 = np.full(len(points), 0.1)
    gens = [np.random.default_rng(g)
            for g in range(len(points) + generators)]
    before = [g.bit_generator.state for g in gens]
    with pytest.raises(ValueError, match="generators|channels"):
        mi_monte_carlo(c, Hs[:len(Hs) + channels], sigma2, 1000, gens)
    assert [g.bit_generator.state for g in gens] == before
    assert two_point_threads == []


def test_led_selection_and_strongest_columns_stacks_equal_one_channel_calls():
    rng = np.random.default_rng(9)
    Hs = rng.uniform(0.0, 1.0, size=(12, 4, 4))
    Hs[3] = 0.0                                   # no power at all
    Hs[4, :, 1] = Hs[4, :, 0]                     # equal norms
    Hs[5, :, 2] = 0.0
    for k in range(6, 12):
        Hs[k, :, rng.integers(0, 4)] *= rng.uniform(0.0, 0.01)
    gammas = db_to_linear(np.arange(0.0, 60.0, 2.0))
    assert led_selection_uplink(Hs, 4, gammas, TARGET) == [
        led_selection_uplink(H, 4, gammas, TARGET) for H in Hs]
    assert led_selection_uplink(Hs, 4, gammas[7], TARGET) == [
        led_selection_uplink(H, 4, gammas[7], TARGET) for H in Hs]
    for n in (1, 2, 4):
        assert strongest_columns(Hs, n).tolist() == [
            strongest_columns(H, n).tolist() for H in Hs]
