"""Achievable-rate lower bounds, their high-SNR gaps and the MC estimate."""

import inspect

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import lifisim.rates as rates
from lifisim import (achievable_rate, build_constellation, energy_efficiency,
                     high_snr_gaps, input_power_variance, lower_bound_l1,
                     lower_bound_l2, mi_monte_carlo, pairwise_sq_distances,
                     pam_levels, rate_bounds)

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
    for M, n_tx in [(2, 1), (4, 4), (8, 2)]:
        c = build_constellation(M, n_tx)
        levels = pam_levels(M, 1.0)
        empirical = np.mean((levels - 1.0) ** 2) / n_tx
        assert input_power_variance(c) == pytest.approx(empirical, rel=1e-12)
    c44 = build_constellation(4, 4)
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


def _reference_l2(constellation, H, sigma2):
    """L2 as its docstring writes it, in 50-digit arithmetic: Q = HH',
    the determinants of 2cQ + I and cQ + I, and (2cQ + I)^{-1}."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        n_rx, K = H.shape[0], constellation.K
        s2 = mp.mpf(float(sigma2))
        sigma_x2 = mp.mpf(input_power_variance(constellation))
        c = sigma_x2 / s2
        Hm = mp.matrix(H.tolist())
        Q = Hm * Hm.T
        A, B = 2 * c * Q + mp.eye(n_rx), c * Q + mp.eye(n_rx)
        A_inv = mp.inverse(A)
        X = Hm * mp.matrix(constellation.S.tolist())
        x = [X[:, k] for k in range(K)]
        a_inv_x = [A_inv * xk for xk in x]
        QA_inv = Q * A_inv
        d = []
        for i in range(K):
            for j in range(K):
                u = x[i] - x[j]
                d.append((x[i].T * a_inv_x[j])[0] / s2
                         - sigma_x2 / (2 * s2 ** 2) * (u.T * (QA_inv * u))[0])
        top = max(d)
        lse = top + mp.log(mp.fsum(mp.exp(t - top) for t in d))
        return float(2 * mp.log(K, 2) + mp.log(mp.det(A) / mp.det(B), 2) / 2
                     - lse / mp.log(2))


def test_l2_matches_50_digit_reference_up_to_160_db():
    # c||Q|| from 0 to 160 dB on 20 small channels, among them zero and
    # duplicate columns (rank-deficient Q) and single receivers
    rng = np.random.default_rng(5)
    shapes = [(2, 1), (4, 1), (2, 2), (4, 2), (2, 4), (8, 2), (4, 4), (16, 1),
              (2, 8)]
    for k in range(20):
        M, n_a = shapes[k % len(shapes)]
        c = build_constellation(M, n_a)
        H = rng.uniform(0.0, 1.0, size=(1 + k % 4, n_a)) * 10.0 ** -(k % 7)
        if n_a > 1 and k % 5 == 1:
            H[:, -1] = 0.0
        if n_a > 1 and k % 5 == 2:
            H[:, 1] = H[:, 0]
        norm_q = np.linalg.norm(H, 2) ** 2
        for db in (0, 40, 80, 120, 160):
            sigma2 = input_power_variance(c) * norm_q / 10.0 ** (db / 10)
            assert lower_bound_l2(c, H, sigma2) == pytest.approx(
                _reference_l2(c, H, sigma2), rel=0, abs=1e-12), (k, db)


def test_l2_finite_far_above_the_useful_snr():
    # c||Q|| passes 1e16 here, where 2cQ + I is no longer numerically
    # positive definite, and sigma^4 underflows at 3000 dB; L2 has long
    # reached its limit and stays there
    c = build_constellation(2, 1)
    H = np.random.default_rng(0).uniform(0.0, 1e-5, size=(16, 1))
    l2 = [float(lower_bound_l2(c, H, 10.0 ** (-db / 10)))
          for db in (250.0, 263.0, 300.0, 3000.0)]
    assert np.isfinite(l2).all()
    assert l2[1:] == pytest.approx([l2[0]] * 3, rel=0, abs=1e-12)


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


def _reference_mi_monte_carlo(constellation, H, sigma2, n_samples, rng,
                              chunk=20_000):
    """mi_monte_carlo as it was before its in-place rewrite: fancy-indexed
    temporaries and scipy's logsumexp."""
    H = np.atleast_2d(H)
    X = H @ constellation.S
    K = constellation.K
    n_rx = H.shape[0]
    sigma = np.sqrt(sigma2)
    dist_sq = pairwise_sq_distances(X)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        idx = rng.integers(0, K, size=n)
        noise = rng.normal(0.0, sigma, size=(n, n_rx))
        nx = noise @ X
        expo = nx[np.arange(n), idx][:, None] - nx
        expo *= 2.0
        expo += dist_sq[idx, :]
        expo /= -(2.0 * sigma2)
        terms = scipy.special.logsumexp(expo, axis=1) / np.log(2.0)
        total += float(terms.sum())
        total_sq += float((terms * terms).sum())
        done += n
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return float(np.log2(K) - mean), float(np.sqrt(var / n_samples))


@settings(max_examples=100, deadline=None)
@given(M_na=st.sampled_from([(4, 1), (2, 2), (8, 1), (4, 2), (2, 4), (16, 1),
                             (4, 4), (8, 2)]),
       n_rx=st.integers(1, 16),
       n_samples=st.one_of(st.integers(1000, 45_000),
                           st.sampled_from([20_000, 20_001, 40_000])),
       snr_db=st.floats(-20.0, 60.0),
       zero_column=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mi_monte_carlo_matches_reference_bit_for_bit(M_na, n_rx, n_samples,
                                                      snr_db, zero_column,
                                                      seed):
    # K in {4, 8, 16}; above 20,000 samples the draws span two or three
    # blocks; a zero column puts two symbols on one output point (ties)
    c = build_constellation(*M_na)
    rng = np.random.default_rng(seed)
    H = rng.uniform(0.0, 1.0, size=(n_rx, M_na[1]))
    if zero_column:
        H[:, 0] = 0.0
    sigma2 = 10 ** (-snr_db / 10)
    ours = mi_monte_carlo(c, H, sigma2, n_samples, np.random.default_rng(seed))
    theirs = _reference_mi_monte_carlo(c, H, sigma2, n_samples,
                                       np.random.default_rng(seed))
    assert ours == theirs


def test_bounds_match_scipy_logsumexp(monkeypatch):
    rng = np.random.default_rng(11)
    cases = []
    for M, n_tx, n_rx in [(4, 1, 1), (2, 4, 16), (4, 4, 4), (8, 2, 16)]:
        c = build_constellation(M, n_tx)
        H = rng.uniform(0.0, 1.0, size=(n_rx, n_tx))
        for sigma2 in (1e-8, 1e-3, 1.0, 1e3):
            cases.append((c, H, sigma2))
    cases.append((build_constellation(4, 4), np.zeros((4, 4)), 1.0))
    ours = [(lower_bound_l1(*case), lower_bound_l2(*case)) for case in cases]
    gaps = [high_snr_gaps(M, 4, 16) for M in (2, 4, 8, 16)]
    monkeypatch.setattr(rates, "logsumexp", scipy.special.logsumexp)
    assert ours == [(lower_bound_l1(*case), lower_bound_l2(*case))
                    for case in cases]
    assert gaps == [high_snr_gaps(M, 4, 16) for M in (2, 4, 8, 16)]


@pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan])
def test_mi_monte_carlo_rejects_nonpositive_noise(sigma2):
    c = build_constellation(4, 4)
    with pytest.raises(ValueError, match="sigma2"):
        mi_monte_carlo(c, _channel(6), sigma2, 1000, np.random.default_rng(0))


@pytest.mark.parametrize("bound", [lower_bound_l1, lower_bound_l2])
@pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan])
def test_lower_bounds_reject_nonpositive_noise(bound, sigma2):
    with pytest.raises(ValueError, match="sigma2"):
        bound(build_constellation(4, 4), _channel(6), sigma2)


def test_mi_monte_carlo_block_size_is_fixed():
    # a chunk argument of 0 used to loop forever; the block size is now
    # the constant MI_CHUNK
    assert "chunk" not in inspect.signature(mi_monte_carlo).parameters
    assert rates.MI_CHUNK == 20_000
