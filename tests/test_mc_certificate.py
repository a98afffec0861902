"""monte_carlo_ber's certificate: samples that are not scored.

Every count is compared with a frozen copy of the function that scores
every sample. Scripted noise places samples just inside and just outside
the certificate's half-space and ball, around its guard, for K = 2, and
for zero and duplicated channel columns (exact ties); columns a few
ulps apart give near-ties, which must be scored in the same kind of
BLAS call as before.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifisim import sm, util
from lifisim.sm import (build_constellation, build_mimo_constellation,
                        monte_carlo_ber)
from lifisim.util import wilson_interval


def _frozen_monte_carlo_ber(constellation, H, gamma_tx, n_symbols, rng):
    """monte_carlo_ber as it was before the certificate: every sample is
    scored, MC_SCORES scores at a time, into a fresh array each time."""
    x = H @ constellation.S
    K = constellation.K
    sigma = 1.0 / np.sqrt(gamma_tx)
    half_sq = 0.5 * np.sum(x * x, axis=0)
    bit_errors = constellation.hamming.ravel()
    step = max(1, sm.MC_SCORES // K)
    n_bit_errors = 0
    remaining = n_symbols
    while remaining > 0:
        n = min(sm.MC_CHUNK, remaining)
        remaining -= n
        ks = rng.integers(0, K, size=n)
        y = x[:, ks] + sigma * rng.standard_normal((x.shape[0], n))
        khat = np.empty(n, dtype=np.intp)
        for i in range(0, n, step):
            scores = y.T[i:i + step] @ x
            scores -= half_sq
            np.argmax(scores, axis=1, out=khat[i:i + step])
        ks *= K
        ks += khat
        n_bit_errors += int(bit_errors.take(ks).sum())
    n_bits = n_symbols * constellation.bits_per_symbol
    ber = n_bit_errors / n_bits
    return ber, wilson_interval(n_bit_errors, n_bits)


class ScriptedRng:
    """A Generator stand-in whose draws are chosen: integers returns the
    sent symbols ks and standard_normal the (n_r, n) unit noise z."""

    def __init__(self, ks, z):
        self.ks = np.asarray(ks)
        self.z = np.asarray(z, dtype=float)

    def integers(self, low, high, size):
        assert (low, size) == (0, len(self.ks)) and self.ks.max() < high
        return self.ks.copy()

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z.copy()


#: sigma = 2^-8 exactly, so that sigma z is the chosen noise v = z / 256.
GAMMA = 65536.0


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _scripted(monkeypatch, c, H, ks, v):
    """(monte_carlo_ber's result, the indices its certificate left to
    scoring) for the chosen sent symbols and noise vectors, after
    checking the result against the frozen copy."""
    z = np.asarray(v, dtype=float).T * 256.0
    left = []
    real = sm._unsure

    def spy(*args):
        out = real(*args)
        left.append(out)
        return out

    monkeypatch.setattr(sm, "_unsure", spy)
    ours = monte_carlo_ber(c, H, GAMMA, len(ks), ScriptedRng(ks, z))
    theirs = _frozen_monte_carlo_ber(c, H, GAMMA, len(ks), ScriptedRng(ks, z))
    assert ours[0] == theirs[0] and ours[1] == tuple(map(float, theirs[1]))
    return ours, (list(np.concatenate(left)) if left else None)


def test_edges_of_the_half_space_and_the_ball(monkeypatch):
    # x = diag(1, 2) S of the 2 x 2-PAM set: a 1/3 x 2/3 rectangle. From
    # symbol 0 the nearest symbol (2) lies 1/3 away along e1, the
    # second-nearest (1) 2/3 away along e2.
    c = build_mimo_constellation(2, 2)
    H = np.diag([1.0, 2.0])
    d1, d2 = 1.0 / 3.0, 2.0 / 3.0
    v = [(0.99 * d1 / 2 * (1 - 1e-6), 0.0),   # inside the half-space
         (0.99 * d1 / 2 * (1 + 1e-6), 0.0),   # just outside, decided 0
         (0.5 * d1 * 1.005, 0.0),             # past half-way: decided 2
         (0.0, 0.49 * d2 * (1 - 1e-6)),       # inside the ball
         (0.0, 0.49 * d2 * (1 + 1e-6)),       # just outside, decided 0
         (0.0, 0.5 * d2 * 1.01),              # past half-way: decided 1
         (-0.3, 0.0),                         # away from every symbol
         (0.15, 0.3)]                         # outside the ball, decided 0
    (ber, _), left = _scripted(monkeypatch, c, H, [0] * len(v), v)
    assert left == [1, 2, 4, 5, 7]
    # the two samples past half-way are decided wrong, one bit each
    assert ber == 2 / (len(v) * c.bits_per_symbol)


def test_two_symbols_take_the_nearest_distance_as_the_ball():
    c = build_constellation(2, 1)
    H = np.array([[1.0], [0.5]])
    x = H @ c.S
    delta = x[:, 1] - x[:, 0]
    d1 = float(np.linalg.norm(delta))
    tables = sm._certificate(x, np.sum(x * x, axis=0), np.empty((2, 2)))
    np.testing.assert_allclose(tables[2], [0.49 ** 2 * d1 ** 2] * 2)
    np.testing.assert_allclose(tables[0], np.stack([delta, -delta], axis=1))


def test_two_symbols_edges(monkeypatch):
    # with d2 = d1 the ball, 0.49 d1, lies inside the half-space,
    # 0.495 d1 along the nearest symbol, so the ball decides
    c = build_constellation(2, 1)
    H = np.array([[1.0], [0.5]])
    x = H @ c.S
    along = _unit(x[:, 1] - x[:, 0])
    across = np.array([-along[1], along[0]])
    d1 = float(np.linalg.norm(x[:, 1] - x[:, 0]))
    v = [0.49 * d1 * (1 - 1e-6) * along,          # certain
         0.49 * d1 * (1 + 1e-6) * along,          # left, decided 0
         0.5 * d1 * 1.005 * along,                # left, decided 1
         0.49 * d1 * (1 - 1e-6) * across,         # certain
         0.49 * d1 * (1 + 1e-6) * across,         # left, decided 0
         -0.49 * d1 * (1 - 1e-6) * along,         # certain
         -0.6 * d1 * along]                       # left, decided 0
    (ber, _), left = _scripted(monkeypatch, c, H, [0] * len(v), v)
    assert left == [1, 2, 4, 6]
    assert ber == 1 / len(v)


@pytest.mark.parametrize("e,certain", [(4e-5 * (1 + 1e-3), True),
                                       (4e-5 * (1 - 1e-3), False)])
def test_the_guard_on_near_duplicates(monkeypatch, e, certain):
    # H = [1, 1 + e] puts symbols 1 and 2 of the 2 x 2-PAM set e/3
    # apart; the guard 1e-10 max ||x||^2 = 1.78e-10 sits at e = 4e-5
    c = build_mimo_constellation(2, 2)
    H = np.array([[1.0, 1.0 + e]])
    x = H @ c.S
    sq = np.sum(x * x, axis=0)
    assert abs((e / 3) ** 2 / (1e-10 * sq.max()) - 1) < 3e-3
    ball = sm._certificate(x, sq, np.empty((4, 4)))[2]
    assert np.isfinite(ball[[0, 3]]).all()
    assert np.isfinite(ball[[1, 2]]).all() == certain
    # noise a quarter of the way towards the near-duplicate
    near = x[0, 1] - x[0, 2]
    v = [[0.25 * near], [-0.25 * near], [0.01], [-0.01]]
    _, left = _scripted(monkeypatch, c, H, [2, 1, 1, 2], v)
    assert left == ([] if certain else [0, 1, 2, 3])


def test_no_certificate_below_the_guard(monkeypatch):
    # Symbols 3e-7 / 3 apart: ||x_1 - x_2||^2 = 1e-14, which the Gram
    # form resolves, far below the guard. Samples just inside their
    # half-space are ML-correct in exact arithmetic by a margin below the
    # rounding of the scores, so the frozen copy decides some of them
    # wrong; the guard leaves every one to the same scoring.
    c = build_mimo_constellation(2, 2)
    H = np.array([[1.0, 1.0 + 3e-7]])
    x = H @ c.S
    near = x[0, 1] - x[0, 2]
    v = (np.linspace(0.45, 0.4949, 200) * near)[:, None]
    _, left = _scripted(monkeypatch, c, H, [2] * len(v), v)
    assert left == list(range(len(v)))


@pytest.mark.parametrize("H", [
    np.array([[0.0, 1.0], [0.0, 0.5]]),         # source 0 out of view
    np.array([[1.0, 1.0], [0.5, 0.5]]),         # both sources alike
])
def test_ties_get_no_certificate(monkeypatch, H):
    c = build_constellation(4, 2)
    x = H @ c.S
    ball = sm._certificate(x, np.sum(x * x, axis=0), np.empty((8, 8)))[2]
    tied = [k for k in range(c.K)
            if any(np.array_equal(x[:, k], x[:, j])
                   for j in range(c.K) if j != k)]
    assert tied and np.all(ball[tied] == -np.inf)
    assert np.all(np.isfinite(np.delete(ball, tied)))
    ks = np.arange(c.K).repeat(3)
    rng = np.random.default_rng(5)
    v = 1e-3 * rng.standard_normal((len(ks), 2))
    (ber, _), left = _scripted(monkeypatch, c, H, ks, v)
    if len(tied) == c.K:
        assert left is None                    # no test: all are scored
    else:
        assert set(left) == {i for i, k in enumerate(ks) if k in tied}
    assert ber > 0.0                           # ties go to the lowest index


_SETS = [(build_constellation, (2, 1)), (build_constellation, (4, 2)),
         (build_constellation, (8, 4)), (build_constellation, (16, 1)),
         (build_constellation, (64, 4)), (build_mimo_constellation, (2, 2)),
         (build_mimo_constellation, (4, 2)), (build_mimo_constellation, (2, 3))]


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(_SETS), n_rx=st.integers(1, 4),
       columns=st.sampled_from(["plain", "zero", "duplicate", "near"]),
       near=st.integers(1, 16), snr_db=st.floats(-20.0, 80.0),
       n_symbols=st.sampled_from([1, 7, 300, 2049, 5000,
                                  sm.MC_CHUNK + 7]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_monte_carlo_ber_equals_the_frozen_copy(which, n_rx, columns, near,
                                               snr_db, n_symbols, seed):
    build, args = which
    c = build(*args)
    rng = np.random.default_rng(seed)
    H = rng.uniform(0.0, 1.0, size=(n_rx, c.S.shape[0]))
    if H.shape[1] > 1:
        if columns == "zero":
            H[:, 0] = 0.0
        elif columns == "duplicate":
            H[:, 1] = H[:, 0]
        elif columns == "near":
            H[:, 1] = H[:, 0] * (1.0 + 10.0 ** -near)
    g = 10 ** (snr_db / 10)
    ours = monte_carlo_ber(c, H, g, n_symbols, np.random.default_rng(seed))
    theirs = _frozen_monte_carlo_ber(c, H, g, n_symbols,
                                     np.random.default_rng(seed))
    assert ours[0] == theirs[0]
    assert ours[1] == tuple(map(float, theirs[1]))


@pytest.mark.parametrize("near,n_symbols,n_seeds", [
    (1e-15, 7, 400), (1e-15, 2049, 60), (1e-13, 2049, 60)])
def test_near_ties_are_scored_in_the_same_kind_of_block(near, n_symbols,
                                                        n_seeds):
    # Columns 0 and 1 a few ulps apart: their symbols get no certificate
    # and their scores tie to within rounding. BLAS rounds a one-row
    # product unlike a block of rows, so a sample left alone where full
    # scoring had it in a block (7 symbols, one uncertain), or in a block
    # where full scoring had it alone (2,049 = 2,048 + 1), could be
    # decided the other way.
    c = build_constellation(8, 4)
    differ = 0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        H = rng.uniform(0.0, 1.0, size=(4, 4))
        H[:, 1] = H[:, 0] * (1.0 + near)
        g = 10 ** (rng.uniform(40.0, 80.0) / 10)
        ours = monte_carlo_ber(c, H, g, n_symbols,
                               np.random.default_rng(seed))
        theirs = _frozen_monte_carlo_ber(c, H, g, n_symbols,
                                         np.random.default_rng(seed))
        differ += ours[0] != theirs[0]
    assert differ == 0


def test_grid_form_equals_one_call_per_point():
    c = build_constellation(8, 4)
    rng = np.random.default_rng(3)
    H = rng.uniform(0.1, 1.0, size=(4, 4))
    grid = 10 ** (np.arange(0.0, 61.0, 6.0) / 10)

    def rngs():
        return [np.random.default_rng([3, g]) for g in range(grid.size)]

    ber, (low, high) = monte_carlo_ber(c, H, grid, 30_000, rngs())
    assert ber.shape == low.shape == high.shape == grid.shape
    for g, (gamma, gen) in enumerate(zip(grid, rngs())):
        one = monte_carlo_ber(c, H, gamma, 30_000, gen)
        assert one == (ber[g], (low[g], high[g]))
    # the grid spans full scoring, the certificate and error-free points
    assert ber[0] > 0.1 and ber[-1] == 0.0
    frozen = _frozen_monte_carlo_ber(c, H, grid[4], 30_000, rngs()[4])
    assert frozen[0] == ber[4]
    single = monte_carlo_ber(c, H, grid[:1], 500, rngs()[:1])
    assert single[0].shape == (1,)
    with pytest.raises(ValueError):
        monte_carlo_ber(c, H, grid, 500, rngs()[:-1])


def _grid_case():
    """A signal set, a channel, an SNR grid from full scoring to no
    errors, and a maker of the grid's per-point Generators."""
    c = build_constellation(8, 4)
    H = np.random.default_rng(3).uniform(0.1, 1.0, size=(4, 4))
    grid = 10 ** (np.arange(0.0, 61.0, 6.0) / 10)
    return c, H, grid, lambda: [np.random.default_rng([3, g])
                                for g in range(grid.size)]


def test_grid_on_two_point_threads_equals_one_call_per_point(
        two_point_threads):
    c, H, grid, rngs = _grid_case()
    ber, (low, high) = monte_carlo_ber(c, H, grid, 30_000, rngs())
    for g, (gamma, gen) in enumerate(zip(grid, rngs())):
        one = monte_carlo_ber(c, H, gamma, 30_000, gen)
        assert one == (ber[g], (low[g], high[g]))
    # the grid went through the pool, the one-point calls did not
    assert two_point_threads == [grid.size]
    assert ber[0] > 0.1 and ber[-1] == 0.0


def test_one_generator_for_several_points_draws_them_in_turn(
        two_point_threads):
    c, H, grid, _ = _grid_case()
    shared = np.random.default_rng(5)
    ber, (low, high) = monte_carlo_ber(c, H, grid, 3_000,
                                       [shared] * grid.size)
    gen = np.random.default_rng(5)
    for g, gamma in enumerate(grid):
        one = monte_carlo_ber(c, H, gamma, 3_000, gen)
        assert one == (ber[g], (low[g], high[g]))
    assert shared.bit_generator.state == gen.bit_generator.state
    assert two_point_threads == []


@pytest.mark.parametrize("extra", [-1, 1])
def test_lengths_mismatch_is_raised_before_any_draw(two_point_threads,
                                                    extra):
    c, H, grid, _ = _grid_case()
    gens = [np.random.default_rng(g) for g in range(grid.size + extra)]
    before = [g.bit_generator.state for g in gens]
    with pytest.raises(ValueError, match="generators"):
        monte_carlo_ber(c, H, grid, 500, gens)
    assert [g.bit_generator.state for g in gens] == before
    assert two_point_threads == []


def test_grid_memory_is_at_most_one_point_per_thread(two_point_threads,
                                                     monkeypatch):
    # K = 4,096, so the score buffers dominate what a point holds
    c = build_constellation(1024, 4)
    c.hamming                                   # cached; not counted
    H = np.random.default_rng(0).uniform(0.2, 1.0, size=(4, 4))
    grid = 10 ** (np.array([40.0, 50.0, 60.0, 80.0]) / 10)

    def peak(gamma, rngs):
        tracemalloc.start()
        monte_carlo_ber(c, H, gamma, 2000, rngs)
        out = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return out

    one = max(peak(g, np.random.default_rng(1)) for g in grid)
    for threads in (2, 1):
        monkeypatch.setattr(util, "_point_threads", threads)
        rngs = [np.random.default_rng([1, g]) for g in range(grid.size)]
        assert peak(grid, rngs) <= threads * one * 1.1
    assert two_point_threads == [grid.size]


@pytest.mark.parametrize("snr_db", [40.0, 80.0])
def test_largest_set_stays_in_todays_memory(snr_db):
    # K = 4,096: a K x K float table alone would be 128 MiB
    c = build_constellation(1024, 4)
    c.hamming                                   # cached; not counted
    H = np.random.default_rng(0).uniform(0.2, 1.0, size=(4, 4))
    g = 10 ** (snr_db / 10)
    peaks = []
    for f in (_frozen_monte_carlo_ber, monte_carlo_ber):
        tracemalloc.start()
        f(c, H, g, 2000, np.random.default_rng(1))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
