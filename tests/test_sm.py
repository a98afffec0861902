"""Signal sets, ML detection, union bound and Monte Carlo cross-checks."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lifisim.sm as sm
from lifisim import (build_constellation, build_mimo_constellation,
                     hamming_matrix, ml_detect, monte_carlo_ber,
                     pairwise_sq_distances, pam_levels, pep, received_snr,
                     union_bound_ber)
from lifisim.util import qfunc, wilson_interval


def test_pam_levels_and_mean():
    np.testing.assert_allclose(pam_levels(2, 1.0), [2 / 3, 4 / 3])
    levels = pam_levels(4, 2.5)
    np.testing.assert_allclose(levels, [1.0, 2.0, 3.0, 4.0])
    assert levels.mean() == pytest.approx(2.5)


@pytest.mark.parametrize("M,n_active", [(2, 1), (2, 2), (4, 4), (8, 4), (16, 1)])
def test_constellation_shape_and_mean_power(M, n_active):
    c = build_constellation(M, n_active)
    assert c.K == M * n_active
    assert c.bits_per_symbol == int(np.log2(M * n_active))
    # every symbol activates exactly one source
    assert (np.count_nonzero(c.S, axis=0) == 1).all()
    # average emitted optical power over the signal set equals I = 1
    assert c.S.sum(axis=0).mean() == pytest.approx(1.0, rel=1e-14)


def test_constellation_column_order():
    c = build_constellation(4, 2)
    levels = pam_levels(4, 1.0)
    # column k = (m - 1) n_active + a holds level m on source a
    for m in range(4):
        for a in range(2):
            col = c.S[:, m * 2 + a]
            assert col[a] == pytest.approx(levels[m])
            assert np.count_nonzero(col) == 1


def test_labels_bijective():
    for M, n_active in [(2, 2), (4, 4), (8, 2)]:
        c = build_constellation(M, n_active)
        weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
        ints = c.labels @ weights
        assert sorted(ints.tolist()) == list(range(c.K))


def test_labels_spatial_prefix_and_gray_levels():
    c = build_constellation(4, 4)
    spatial = c.labels[:, :2]
    for k in range(c.K):
        a = k % 4
        np.testing.assert_array_equal(spatial[k], [(a >> 1) & 1, a & 1])
    # adjacent PAM levels on the same source differ in exactly one bit
    for m in range(3):
        for a in range(4):
            k1, k2 = m * 4 + a, (m + 1) * 4 + a
            assert int(np.count_nonzero(c.labels[k1] != c.labels[k2])) == 1


def test_constellation_validation():
    with pytest.raises(ValueError):
        build_constellation(3, 2)
    with pytest.raises(ValueError):
        build_constellation(1, 2)
    with pytest.raises(ValueError):
        build_constellation(2, 3)
    # the size check comes before anything K-sized is allocated
    assert build_constellation(1024, 4).K == 4096
    with pytest.raises(ValueError, match="too large"):
        build_constellation(2 ** 40, 2)


def test_mimo_constellation():
    c = build_mimo_constellation(2, 4)
    assert c.K == 16
    assert c.bits_per_symbol == 4
    # every stream always on; total emitted power averages to I, the
    # same illumination constraint the one-active-source sets satisfy
    assert (c.S > 0).all()
    assert c.S.sum(axis=0).mean() == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(c.S.mean(axis=1), 0.25)
    weights = 1 << np.arange(3, -1, -1)
    assert sorted((c.labels @ weights).tolist()) == list(range(16))
    with pytest.raises(ValueError):
        build_mimo_constellation(4, 8)     # 65536 joint symbols


def test_mimo_single_stream_reduces_to_sm():
    H = np.array([[0.8], [0.3]])
    sm = build_constellation(4, 1)
    mimo = build_mimo_constellation(4, 1)
    for g_db in (10.0, 20.0):
        g = 10 ** (g_db / 10)
        assert union_bound_ber(mimo, H, g) == pytest.approx(
            union_bound_ber(sm, H, g), rel=1e-12)


@pytest.mark.parametrize("build,args", [(build_constellation, (8, 4)),
                                        (build_mimo_constellation, (2, 3))])
def test_signal_sets_are_memoized_and_read_only(build, args):
    c = build(*args)
    assert build(*args) is c
    assert build(*args).pairs is c.pairs
    assert build(*args).hamming is c.hamming
    for a in (c.S, c.labels, *c.pairs, c.hamming):
        assert not a.flags.writeable
    np.testing.assert_array_equal(c.hamming, hamming_matrix(c.labels))
    with pytest.raises(ValueError):
        c.S[0, 0] = 1.0
    # every pair i < j once (labels are distinct), with its label distance
    i, j = np.triu_indices(c.K, 1)
    np.testing.assert_array_equal(c.pairs.flat, i * c.K + j)
    np.testing.assert_array_equal(
        c.pairs.d_ham, np.count_nonzero(c.labels[i] != c.labels[j], axis=1))
    np.testing.assert_allclose(
        c.pairs.weight, 2.0 * c.pairs.d_ham / (c.K * c.bits_per_symbol))


def test_hamming_matrix():
    labels = np.array([[0, 0], [0, 1], [1, 1]])
    expected = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    np.testing.assert_array_equal(hamming_matrix(labels), expected)


def _reference_hamming_matrix(labels):
    """The (K, K, bits) difference sum hamming_matrix used to compute."""
    l = np.asarray(labels, dtype=np.int16)
    return np.abs(l[:, None, :] - l[None, :, :]).sum(axis=2)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 1024), bits=st.integers(0, 24),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hamming_matrix_matches_reference(K, bits, seed):
    labels = np.random.default_rng(seed).integers(0, 2, size=(K, bits),
                                                  dtype=np.uint8)
    got = hamming_matrix(labels)
    assert got.shape == (K, K) and got.dtype == np.uint8
    np.testing.assert_array_equal(got, _reference_hamming_matrix(labels))


@pytest.mark.parametrize("build,args", [(build_constellation, (256, 4)),
                                        (build_mimo_constellation, (4, 5))])
def test_hamming_matrix_of_signal_sets(build, args):
    labels = build(*args).labels
    np.testing.assert_array_equal(hamming_matrix(labels),
                                  _reference_hamming_matrix(labels))


def test_hamming_matrix_memory_at_the_largest_alphabet():
    # the (K, K, bits) int16 difference array peaked at 768 MiB here
    labels = build_constellation(1024, 4).labels
    assert labels.shape == (sm.MAX_SYMBOLS, 12)
    tracemalloc.start()
    try:
        d = hamming_matrix(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * d.nbytes            # 64 MiB
    assert d[0, 1] == 1 and d.max() == 12


def test_pairwise_sq_distances_columns():
    pts = np.array([[0.0, 3.0], [0.0, 4.0]])      # two column vectors
    d2 = pairwise_sq_distances(pts)
    np.testing.assert_allclose(d2, [[0.0, 25.0], [25.0, 0.0]])
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 7))
    d2 = pairwise_sq_distances(x)
    brute = np.array([[np.sum((x[:, i] - x[:, j]) ** 2) for j in range(7)]
                      for i in range(7)])
    np.testing.assert_allclose(d2, brute, atol=1e-12)


def test_ml_detect_noiseless_and_ties():
    c = build_constellation(4, 4)
    rng = np.random.default_rng(1)
    H = rng.uniform(0.1, 1.0, size=(4, 4))
    for k in range(c.K):
        assert ml_detect(H @ c.S[:, k], H, c) == k
    assert ml_detect(np.zeros(4), np.zeros((4, 4)), c) == 0   # tie rule


def test_ml_detect_brute_force_oracle():
    c = build_constellation(4, 4)
    rng = np.random.default_rng(2)
    for _ in range(300):
        H = rng.uniform(0.0, 1.0, size=(4, 4))
        y = rng.normal(size=4)
        d = [np.sum((y - H @ c.S[:, k]) ** 2) for k in range(c.K)]
        assert ml_detect(y, H, c) == int(np.argmin(d))


def test_ml_detect_scale_invariant():
    c = build_constellation(2, 2)
    rng = np.random.default_rng(3)
    H = rng.uniform(0.1, 1.0, size=(2, 2))
    y = rng.normal(size=2)
    assert ml_detect(y, H, c) == ml_detect(3.7 * y, 3.7 * H, c)


def test_pep_values():
    c = build_constellation(2, 2)
    s = c.S
    H = np.eye(2)
    assert pep(s[:, 0], s[:, 0], H, 10.0) == pytest.approx(0.5)
    assert pep(s[:, 0], s[:, 1], H, 1e9) == pytest.approx(0.0, abs=1e-12)
    # direct transcription of the Q-function argument
    diff = H @ (s[:, 0] - s[:, 2])
    gamma = 4.0
    expected = qfunc(np.sqrt(gamma / 4.0 * diff @ diff))
    assert pep(s[:, 0], s[:, 2], H, gamma) == pytest.approx(expected)
    # scaling the channel scales the argument linearly
    expected2 = qfunc(2.0 * np.sqrt(gamma / 4.0 * diff @ diff))
    assert pep(s[:, 0], s[:, 2], 2 * H, gamma) == pytest.approx(expected2)
    for gamma in (0.0, np.nan):
        with pytest.raises(ValueError, match="gamma_tx"):
            pep(s[:, 0], s[:, 1], H, gamma)


def test_union_bound_zero_channel_pin():
    c = build_constellation(2, 2)
    d_ham = hamming_matrix(c.labels)
    expected = 0.5 * d_ham.sum() / (c.K * c.bits_per_symbol)
    assert union_bound_ber(c, np.zeros((2, 2)), 5.0) == pytest.approx(expected)
    assert expected == pytest.approx(1.0)    # balanced labels


def test_union_bound_monotone_in_snr():
    c = build_constellation(8, 4)
    rng = np.random.default_rng(5)
    H = rng.uniform(0.1, 1.0, size=(4, 4))
    grid = 10 ** (np.linspace(-1, 6, 30))
    values = [union_bound_ber(c, H, g) for g in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_union_bound_dominates_monte_carlo():
    rng = np.random.default_rng(6)
    c = build_constellation(4, 4)
    for trial in range(3):
        H = rng.uniform(0.1, 1.0, size=(4, 4)) + np.eye(4)
        for g_db in (12.0, 18.0, 24.0):
            g = 10 ** (g_db / 10)
            bound = union_bound_ber(c, H, g)
            ber, (lo, hi) = monte_carlo_ber(c, H, g, 100_000,
                                            np.random.default_rng(trial))
            assert bound >= lo   # dominance within MC confidence


def test_monte_carlo_limits_and_determinism():
    c = build_constellation(4, 2)
    rng = np.random.default_rng(7)
    H = rng.uniform(0.5, 1.0, size=(3, 2)) + 1.0
    ber_hi, _ = monte_carlo_ber(c, H, 1e12, 20_000, np.random.default_rng(0))
    assert ber_hi == 0.0
    ber_zero, (lo, hi) = monte_carlo_ber(c, np.zeros((3, 2)), 10.0, 50_000,
                                         np.random.default_rng(1))
    assert ber_zero == pytest.approx(0.5, abs=0.02)
    assert lo <= ber_zero <= hi
    a = monte_carlo_ber(c, H, 30.0, 40_000, np.random.default_rng(42))
    b = monte_carlo_ber(c, H, 30.0, 40_000, np.random.default_rng(42))
    assert a == b
    with pytest.raises(ValueError):
        monte_carlo_ber(c, H, 10.0, 0, rng)


def test_received_snr():
    assert received_snr(np.array([[1.0]]), 1, 7.0) == pytest.approx(7.0)
    # two sources with unit gains at one detector: gamma_rx = gamma_tx
    assert received_snr(np.array([[1.0, 1.0]]), 2, 5.0) == pytest.approx(5.0)
    rng = np.random.default_rng(9)
    H = rng.uniform(0, 1, size=(4, 2))
    assert received_snr(2 * H, 2, 1.0) == pytest.approx(
        4 * received_snr(H, 2, 1.0))
    manual = np.sum(H.sum(axis=1) ** 2) / 4
    assert received_snr(H, 2, 1.0) == pytest.approx(manual)
    with pytest.raises(ValueError):
        received_snr(H, 4, 1.0)


def test_received_snr_of_a_stack_is_each_channels_own():
    rng = np.random.default_rng(10)
    for n_rx, n_a in [(1, 1), (4, 2), (16, 8), (9, 16)]:
        Hs = rng.uniform(0, 1, size=(37, n_rx, n_a))
        stacked = received_snr(Hs, n_a, 3.0)
        assert stacked.shape == (37,)
        # every channel, in any layout, gives the bits np.dot gives
        for b, H in enumerate(Hs):
            rows = H.sum(axis=1)
            assert stacked[b] == 3.0 / n_a ** 2 * float(np.dot(rows, rows))
            assert stacked[b] == received_snr(np.asfortranarray(H), n_a, 3.0)
        assert np.array_equal(received_snr(Hs[5:9], n_a, 3.0), stacked[5:9])


def _reference_monte_carlo_ber(constellation, H, gamma_tx, n_symbols, rng,
                               chunk=100_000):
    """monte_carlo_ber as it was before the (n, K) score layout and the
    Hamming-table error count: (K, n) scores, label comparison."""
    x = H @ constellation.S
    sigma = 1.0 / np.sqrt(gamma_tx)
    half_sq = 0.5 * np.sum(x * x, axis=0)
    labels = constellation.labels
    n_bit_errors = 0
    remaining = n_symbols
    while remaining > 0:
        n = min(chunk, remaining)
        remaining -= n
        ks = rng.integers(0, constellation.K, size=n)
        y = x[:, ks] + sigma * rng.standard_normal((x.shape[0], n))
        scores = x.T @ y - half_sq[:, None]
        khat = np.argmax(scores, axis=0)
        n_bit_errors += int(np.count_nonzero(labels[ks] != labels[khat]))
    n_bits = n_symbols * constellation.bits_per_symbol
    ber = n_bit_errors / n_bits
    return ber, wilson_interval(n_bit_errors, n_bits)


@pytest.mark.parametrize("build,args,n_rx", [
    (build_constellation, (8, 4), 4), (build_constellation, (4, 2), 16),
    (build_constellation, (16, 1), 1), (build_mimo_constellation, (2, 3), 4),
    (build_mimo_constellation, (4, 2), 2), (build_constellation, (256, 4), 4)])
def test_monte_carlo_ber_matches_reference(build, args, n_rx):
    c = build(*args)
    # The first SNRs make many errors, the last few; 250,001 symbols take
    # three blocks, the last of one symbol. K = 1024 is detected 64
    # symbols at a time, and 4,099 = 64 x 64 + 3 keeps the reference's
    # (K, n) scores small.
    points = ([(15.0, 4_099), (35.0, 4_099)] if c.K >= 1024 else
              [(0.0, 3_000), (12.0, 100_000), (20.0, 250_001),
               (35.0, 40_000)])
    for seed in range(4):
        rng = np.random.default_rng(seed)
        H = rng.uniform(0.2, 1.0, size=(n_rx, c.S.shape[0]))
        if seed == 3:
            H[:, 0] = 0.0                   # a source out of view: ties
        for g_db, n_symbols in points:
            g = 10 ** (g_db / 10)
            ours = monte_carlo_ber(c, H, g, n_symbols,
                                   np.random.default_rng([seed, n_symbols]))
            theirs = _reference_monte_carlo_ber(
                c, H, g, n_symbols, np.random.default_rng([seed, n_symbols]))
            assert ours == theirs


def test_monte_carlo_ber_rejects_nan_snr():
    c = build_constellation(4, 2)
    with pytest.raises(ValueError, match="gamma_tx"):
        monte_carlo_ber(c, np.ones((3, 2)), np.nan, 1000,
                        np.random.default_rng(0))


def test_union_bound_rejects_nan_snr():
    c = build_constellation(4, 2)
    with pytest.raises(ValueError, match="gamma_tx"):
        union_bound_ber(c, np.ones((3, 2)), np.nan)


def test_monte_carlo_block_size_is_fixed():
    assert "chunk" not in inspect.signature(monte_carlo_ber).parameters
    assert sm.MC_CHUNK == 100_000
