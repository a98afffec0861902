"""Achievable-rate lower bounds, their high-SNR gaps and the MC estimate."""

import numpy as np
import pytest

from lifisim import (achievable_rate, build_constellation, energy_efficiency,
                     high_snr_gaps, input_power_variance, lower_bound_l1,
                     lower_bound_l2, mi_monte_carlo, pam_levels, rate_bounds)

LOG2E = 1.0 / np.log(2.0)


def _channel(seed=0, shape=(4, 4), diag=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 1.0, size=shape) + diag * np.eye(*shape)


def test_high_snr_gap_worked_examples():
    d1, d2 = high_snr_gaps(4, 4, 16)
    assert d1 == pytest.approx(3.5416, abs=5e-4)
    assert d2 == pytest.approx(0.0319, abs=5e-4)
    d1, d2 = high_snr_gaps(4, 16, 4)
    assert d1 == pytest.approx(0.8854, abs=5e-4)
    assert d2 == pytest.approx(4.4850, abs=5e-4)


def test_high_snr_gap_formulas():
    # delta1 = (N_r / 2)(log2 e - 1); delta2 via the finite sum over levels
    for M, n_tx, n_rx in [(2, 4, 4), (4, 8, 2), (8, 4, 16)]:
        d1, d2 = high_snr_gaps(M, n_tx, n_rx)
        assert d1 == pytest.approx(0.5 * n_rx * (LOG2E - 1.0), rel=1e-12)
        i = np.arange(1, M + 1)
        s = np.exp(3.0 * n_tx * (2 * i - M - 1) / (2.0 * (M * M - 1)))
        expected = np.log2(s.sum()) - np.log2(M) - 0.5
        assert d2 == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        high_snr_gaps(1, 4, 4)


def test_input_power_variance_matches_level_statistics():
    # finite-alphabet identity: per-source variance of the emitted level
    for M, n_tx, power in [(2, 1, 1.0), (4, 4, 1.0), (8, 2, 2.5)]:
        c = build_constellation(M, n_tx, power)
        levels = pam_levels(M, power)
        empirical = np.mean((levels - power) ** 2) / n_tx
        assert input_power_variance(c) == pytest.approx(empirical, rel=1e-12)
    c44 = build_constellation(4, 4, 1.0)
    assert input_power_variance(c44) == pytest.approx(0.05, rel=1e-12)


def test_l1_zero_channel():
    # all pairwise output distances vanish: L1 = -(N_r/2)(log2 e - 1)
    c = build_constellation(4, 4)
    for n_rx in (2, 4):
        l1 = lower_bound_l1(c, np.zeros((n_rx, 4)), 1.0)
        assert l1 == pytest.approx(-0.5 * n_rx * (LOG2E - 1.0), abs=1e-12)


def test_l1_high_snr_limit():
    # only the K zero-distance diagonal pairs survive: log2 K - delta1
    c = build_constellation(4, 4)
    H = _channel(1)
    l1 = lower_bound_l1(c, H, 1e-15)
    assert l1 == pytest.approx(4.0 - 0.5 * 4 * (LOG2E - 1.0), abs=1e-9)


def test_l2_zero_channel():
    c = build_constellation(4, 4)
    assert lower_bound_l2(c, np.zeros((4, 4)), 1.0) == pytest.approx(0.0,
                                                                     abs=1e-9)


def test_bounds_scale_invariance():
    # (H, sigma2) -> (cH, c^2 sigma2) leaves both bounds unchanged
    c = build_constellation(4, 4)
    H = _channel(3)
    for scale in (0.1, 3.0, 40.0):
        for sigma2 in (1e-4, 1e-2):
            l1 = lower_bound_l1(c, H, sigma2)
            l2 = lower_bound_l2(c, H, sigma2)
            assert lower_bound_l1(c, scale * H, scale ** 2 * sigma2) == \
                pytest.approx(l1, abs=1e-9)
            assert lower_bound_l2(c, scale * H, scale ** 2 * sigma2) == \
                pytest.approx(l2, abs=1e-9)


def test_bounds_below_monte_carlo_information():
    c = build_constellation(4, 4)
    for seed in range(4):
        H = _channel(seed)
        for snr_db in (0.0, 10.0, 20.0):
            sigma2 = 10 ** (-snr_db / 10)
            mi, se = mi_monte_carlo(c, H, sigma2, 30_000,
                                    np.random.default_rng(seed + 100))
            assert max(lower_bound_l1(c, H, sigma2), 0.0) <= mi + 3 * se
            assert max(lower_bound_l2(c, H, sigma2), 0.0) <= mi + 3 * se


def test_achievable_rate_clamps():
    assert achievable_rate(-1.0, -2.0) == 0.0
    assert achievable_rate(1.5, 0.7) == 1.5
    assert achievable_rate(0.3, 2.0) == 2.0
    c = build_constellation(4, 4)
    H = _channel(5)
    rb = rate_bounds(c, H, 1e-3)
    assert rb.rate == achievable_rate(rb.l1, rb.l2)
    assert rb.rate <= np.log2(c.K) + 1e-9


def test_rate_never_exceeds_entropy():
    c = build_constellation(4, 4)
    rng = np.random.default_rng(7)
    for _ in range(20):
        H = rng.uniform(0, 1, size=(4, 4))
        sigma2 = 10 ** rng.uniform(-6, 1)
        rb = rate_bounds(c, H, sigma2)
        assert rb.l1 <= np.log2(c.K) + 1e-9
        assert rb.rate <= np.log2(c.K) + 1e-9


def test_mi_monte_carlo_limits():
    c = build_constellation(4, 4)
    H = _channel(6)
    mi_lo, _ = mi_monte_carlo(c, np.zeros((4, 4)), 1.0, 5_000,
                              np.random.default_rng(0))
    assert mi_lo == pytest.approx(0.0, abs=1e-9)
    mi_hi, se = mi_monte_carlo(c, H, 1e-12, 5_000, np.random.default_rng(1))
    assert mi_hi == pytest.approx(4.0, abs=1e-6)
    a = mi_monte_carlo(c, H, 0.01, 5_000, np.random.default_rng(9))
    b = mi_monte_carlo(c, H, 0.01, 5_000, np.random.default_rng(9))
    assert a == b
    with pytest.raises(ValueError):
        mi_monte_carlo(c, H, 0.01, 100, np.random.default_rng(0))


def test_mi_monotone_in_snr():
    c = build_constellation(4, 4)
    H = _channel(8)
    rng_seed = 33
    values = [mi_monte_carlo(c, H, 10 ** (-s / 10), 20_000,
                             np.random.default_rng(rng_seed))[0]
              for s in (-5.0, 5.0, 15.0, 30.0)]
    assert all(b > a - 0.02 for a, b in zip(values, values[1:]))


def test_energy_efficiency():
    assert energy_efficiency(4.0, 2.0) == pytest.approx(2.0)
    assert energy_efficiency(4.0, 2.0, symbol_rate=4.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        energy_efficiency(1.0, 0.0)
