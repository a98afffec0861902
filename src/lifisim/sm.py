"""Spatial modulation signal sets, detection and error-rate analysis.

One of N_a light sources is active per channel use and emits one of M
unipolar PAM levels I_m = 2 I m / (M + 1), m = 1..M, whose mean is the
average optical power I. The K = M N_a symbol vectors carry
log2(N_a) + log2(M) bits: the source index in natural binary followed
by the Gray-coded level index.

The transmit SNR convention ties the noise to the signal through the
mean optical power: gamma_tx = I^2 / sigma_n^2. Every symbol scales
with I, so I cancels from every error rate, bound and rate at a given
gamma_tx, and every signal set here has I = 1. The pairwise error
probability of maximum-likelihood detection is then

    PEP = Q( sqrt( gamma_tx / 4 * ||H (s1 - s2)||^2 ) )

and the Hamming-weighted union bound over all ordered symbol pairs an
upper estimate of the bit error rate. The bound is symmetric in the
pair, so it is summed over the upper triangle i < j with twice the
weight; signal sets are memoized per argument tuple, with read-only
arrays, so that this pair table is built once per set. bound_tables
lays the bound of one set out over a stack of channels, one row per
channel, and bound_tails sums it row by row; grid_bounds evaluates such
tables at every point of an SNR grid, and union_bound_ber is their
one-channel case, at one SNR or over a grid, so the bound a caller
evaluates is the one the batched required-SNR search evaluated. Monte
Carlo detection counts bit errors through the set's cached K x K table
of label Hamming distances.

Monte Carlo detection scores only the samples whose ML decision is not
certain. With x_k = H s_k, let the nearest other symbol to x_s be x_n
at distance d1 and d2 the second-smallest distance from x_s (d1 when
K = 2). A sample y = x_s + v is certain when

    v . (x_n - x_s) < CERT_PLANE d1^2 / 2   and   ||v||^2 < (CERT_BALL d2)^2.

Then 1/2 ||x_k - x_s||^2 - v . (x_k - x_s) >= d1^2 / 200 for every
k != s: s is the unique ML decision and the sample adds no bit error.
A symbol with d1^2 <= CERT_GUARD max_k ||x_k||^2 (a zero column, a
tie, a near-duplicate) gets no certificate. For every other one the
margin d1^2 / 200 is at least 5e-13 max_k ||x_k||^2, dozens of times a
worst-case bound on the rounding of the scores and of the certificate
tables (about 6e-15 max_k ||x_k||^2 with four receivers), so the
floating-point argmax of the scores is s as well. The other samples
are scored as before, in other row blocks. numpy scores a single row
through BLAS's matrix-vector product, which rounds unlike a block of
rows, so a sample goes alone only where full scoring took it alone
(the last of a chunk of n = 1 mod step samples), and any other single
row is scored as two. With a BLAS that rounds a row alike in any block
of two or more rows, as OpenBLAS does, every count is then the one
full scoring gives, even where two of a sample's scores tie to within
rounding (columns of H a few ulps apart). The tables (x_n - x_s, the
half-space and ball thresholds) are built once per call, for a whole
SNR grid. The grid's points then run on util.map_points' thread pool: a
thread draws one point from that point's own Generator, scores it in
that point's own buffer and only reads x, the tables and the Hamming
table, so every count is the one a one-point call gives, whatever the
thread count.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .util import map_points, positive, qfunc, wilson_interval

#: Largest alphabet any signal set may have: the union bound and the
#: detectors keep several K x K tables.
MAX_SYMBOLS = 4096

#: Distinct signal sets kept by the memoized builders.
_CACHED_SETS = 32

#: Symbols per block of monte_carlo_ber. Fixed, because the block size
#: sets the order of the draws and so the result.
MC_CHUNK = 100_000

#: Most symbol x candidate scores monte_carlo_ber holds at once. It
#: bounds the detection memory at any alphabet size and, unlike
#: MC_CHUNK, does not change the result.
MC_SCORES = 1 << 16

#: Margins of the Monte Carlo certificate (module docstring): the share
#: of the way to the half-way plane towards the nearest symbol, the ball
#: radius over the second-nearest distance, and the least squared
#: nearest distance, over the largest squared symbol norm, certified.
CERT_PLANE, CERT_BALL, CERT_GUARD = 0.99, 0.49, 1e-10

#: Most pair terms grid_bounds evaluates at once: a long grid or a large
#: set is bounded in parts of this many terms, with the same results.
BOUND_TERMS = 1 << 22

#: Symbol pairs i < j whose labels differ: flat index i K + j into a
#: K x K table, Hamming distance d_H, and union-bound weight
#: 2 d_H / (K log2 K) (each unordered pair stands for two ordered ones).
PairTable = namedtuple("PairTable", "flat d_ham weight")


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def gray_code(n):
    """Gray code of a nonnegative integer (or array)."""
    n = np.asarray(n)
    return n ^ (n >> 1)


def _bits(values, width):
    """(len(values), width) array of bits, most significant first."""
    values = np.asarray(values, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8)


@dataclass(frozen=True)
class Constellation:
    """Symbol matrix and bit labels of one signal set.

    Attributes:
        S: (n_active, K) matrix whose columns are the symbol vectors.
        labels: (K, bits_per_symbol) bit labels.
        M: PAM order.
        n_active: number of usable light sources.
    """

    S: np.ndarray
    labels: np.ndarray
    M: int
    n_active: int

    @property
    def K(self):
        return self.S.shape[1]

    @property
    def bits_per_symbol(self):
        return self.labels.shape[1]

    @cached_property
    def hamming(self):
        """(K, K) uint8 Hamming distances between the labels, built on
        first use."""
        return _read_only(hamming_matrix(self.labels))

    @cached_property
    def pairs(self):
        """PairTable of this set, built on first use."""
        K = self.K
        i, j = np.triu_indices(K, 1)
        d = self.hamming[i, j]
        keep = d > 0
        d = d[keep]
        weight = 2.0 * d / (K * self.bits_per_symbol)
        return PairTable(flat=_read_only(i[keep] * K + j[keep]),
                         d_ham=_read_only(d), weight=_read_only(weight))


def _read_only(a):
    a.flags.writeable = False
    return a


def pam_levels(M, mean):
    """Unipolar PAM levels 2 I m / (M + 1); their mean equals I = mean."""
    m = np.arange(1, M + 1)
    return 2.0 * mean * m / (M + 1)


@lru_cache(maxsize=_CACHED_SETS)
def build_constellation(M, n_active):
    """Spatial-modulation signal set for n_active sources and M-PAM of
    unit mean.

    Column k = (m - 1) n_active + a activates source a (0-based) at
    level I_m. Spatial bits are the natural binary source index; level
    bits are Gray coded so adjacent amplitudes differ in one bit.
    Memoized: equal arguments return the same read-only set.
    """
    if not _is_pow2(M) or M < 2:
        raise ValueError("M must be a power of two >= 2")
    if not _is_pow2(n_active):
        raise ValueError("n_active must be a power of two")
    K = M * n_active
    if K > MAX_SYMBOLS:
        raise ValueError(f"symbol set too large ({K} > {MAX_SYMBOLS})")

    levels = pam_levels(M, 1.0)
    S = np.zeros((n_active, K))
    led = np.tile(np.arange(n_active), M)
    lvl = np.repeat(np.arange(M), n_active)
    S[led, np.arange(K)] = levels[lvl]

    spatial_bits = int(np.log2(n_active))
    level_bits = int(np.log2(M))
    parts = []
    if spatial_bits:
        parts.append(_bits(led, spatial_bits))
    parts.append(_bits(gray_code(lvl), level_bits))
    labels = np.concatenate(parts, axis=1)
    return Constellation(S=_read_only(S), labels=_read_only(labels), M=M,
                         n_active=n_active)


@lru_cache(maxsize=_CACHED_SETS)
def build_mimo_constellation(M, n_streams):
    """Joint signal set of n_streams parallel M-PAM streams.

    Every stream is always on, carrying Gray-coded M-PAM. The levels
    are scaled so the total mean optical power summed over the streams
    equals I = 1, the same illumination constraint the one-active-source
    sets satisfy; the joint alphabet has M**n_streams vectors and
    labels are the streams' labels concatenated. Memoized like
    build_constellation.
    """
    if not _is_pow2(M) or M < 2:
        raise ValueError("M must be a power of two >= 2")
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    K = M ** n_streams
    if K > MAX_SYMBOLS:
        raise ValueError(f"joint symbol set too large ({K} > {MAX_SYMBOLS})")

    levels = pam_levels(M, 1.0 / n_streams)
    level_bits = int(np.log2(M))
    grids = np.meshgrid(*[np.arange(M)] * n_streams, indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=0)    # (n_streams, K)
    S = levels[idx]
    labels = np.concatenate(
        [_bits(gray_code(idx[j]), level_bits) for j in range(n_streams)], axis=1)
    return Constellation(S=_read_only(S), labels=_read_only(labels), M=M,
                         n_active=n_streams)


#: Number of set bits of every byte value.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def hamming_matrix(labels):
    """(K, K) pairwise Hamming distances between 0/1 bit labels.

    The labels are packed into bytes and compared one byte column at a
    time, XOR then a bit-count table, so that no K x K x bits array is
    formed: a few K x K byte arrays at most. uint8 for labels of up to
    255 bits.
    """
    bits = np.asarray(labels)
    K, width = bits.shape
    packed = np.packbits(bits != 0, axis=1)
    d = np.zeros((K, K), dtype=np.min_scalar_type(width))
    for col in packed.T:
        d += _POPCOUNT[col[:, None] ^ col[None, :]]
    return d


def pairwise_sq_distances(points):
    """(K, K) squared Euclidean distances between the columns of points."""
    g = points.T @ points
    sq = np.diag(g)
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    return np.maximum(d2, 0.0)


def ml_detect(y, H, constellation):
    """Index of the maximum-likelihood symbol, ties to the lowest index."""
    x = H @ constellation.S
    d2 = np.sum((x - np.asarray(y, dtype=float)[:, None]) ** 2, axis=0)
    return int(np.argmin(d2))


def pep(s1, s2, H, gamma_tx):
    """Pairwise error probability of mistaking symbol s1 for s2."""
    gamma_tx = positive(gamma_tx, "gamma_tx")
    diff = H @ (np.asarray(s1, dtype=float) - np.asarray(s2, dtype=float))
    arg = np.sqrt(gamma_tx / 4.0 * np.dot(diff, diff))
    return float(qfunc(arg))


def union_bound_ber(constellation, H, gamma_tx):
    """Union-bound estimate of the ML bit error rate.

    (1 / (K log2 K)) * sum over all ordered pairs of
    d_H(b1, b2) Q(sqrt(gamma_tx / 4 ||H (s1 - s2)||^2)): the
    floor of bound_tables plus the tail of bound_tails, on the stack of
    H alone. Monotone decreasing in gamma_tx; may exceed 1 at low SNR.
    gamma_tx is one SNR, which gives a float, or a 1-D grid, which gives
    the bound at each point from the one table (grid_bounds); each value
    is the one-point call's.
    """
    gamma_tx = positive(gamma_tx, "gamma_tx")
    bound = grid_bounds(bound_tables(constellation, np.atleast_2d(H)[None]),
                        gamma_tx.ravel())[:, 0]
    return float(bound[0]) if gamma_tx.ndim == 0 else bound


def bound_tables(constellation, Hs):
    """Union-bound tables of one signal set on a stack of channels.

    Hs is (B, n_rx, n_active). Returns (floor, weight, root_a): floor
    has shape (B,), weight and root_a (B, n_pairs) over the set's
    PairTable, with root_a = ||H (s_i - s_j)|| / 2. The squared
    distances are those of pairwise_sq_distances (the Gram form), so a
    pair counts as inseparable exactly when that K x K table holds 0
    for it; such a pair keeps Q(0) = 1/2 at every SNR, its d_H goes into
    floor, and its weight and root_a are 0. Every row is computed on its
    own, from a C-contiguous copy of the stack where it is not one, so a
    channel's tables do not depend on the rest of the stack or on its
    memory layout.
    """
    c = constellation
    pairs = c.pairs
    K = c.K
    Hs = np.ascontiguousarray(Hs, dtype=float)
    X = np.matmul(Hs, c.S)                               # (B, n_rx, K)
    g = np.matmul(X.transpose(0, 2, 1), X).reshape(len(X), K * K)
    sq = g[:, ::K + 1]
    i, j = np.divmod(pairs.flat, K)
    # take keeps the rows C-contiguous, so that each row sum over the
    # pairs is reduced alike in any stack
    d2 = sq.take(i, axis=1) + sq.take(j, axis=1) - 2.0 * g.take(pairs.flat,
                                                                 axis=1)
    zero = d2 <= 0.0
    floor = (np.where(zero, pairs.d_ham, 0).sum(axis=1)
             / (c.K * c.bits_per_symbol))
    weight = np.where(zero, 0.0, pairs.weight)
    root_a = np.sqrt(np.maximum(d2, 0.0)) / 2.0
    return floor, weight, root_a


def grid_bounds(tables, gamma_tx):
    """(n_points, B) union bounds of the B channels of bound_tables'
    tables at each transmit SNR of the 1-D grid gamma_tx, summed by
    bound_tails BOUND_TERMS pair terms at a time, so that each bound is
    the one its channel alone gives at that SNR alone."""
    floor, weight, root_a = tables
    u = np.sqrt(gamma_tx)[:, None, None]
    step = max(1, BOUND_TERMS // weight.size)
    tails = [bound_tails(np.tile(weight, (len(part), 1)),
                         (part * root_a).reshape(-1, weight.shape[1]))
             for part in np.split(u, range(step, len(u), step))]
    return floor + np.concatenate(tails).reshape(len(u), -1)


def bound_tails(weight, z):
    """(B,) row sums of weight * Q(z): the separable pairs' part of each
    bound, for z = sqrt(gamma_tx) * root_a of each row's channel."""
    return np.sum(weight * qfunc(z), axis=1)


def received_snr(H, n_active, gamma_tx):
    """Received SNR aggregated over all detectors.

    gamma_rx = gamma_tx / N_a^2 * sum_i (sum_j h_ij)^2 for the active
    columns of H. H is (n_rx, n_active), which gives a float, or a
    (B, n_rx, n_active) stack, which gives B values; every channel is
    reduced on its own, so its value does not depend on the stack. A
    2-D H also takes a grid of gamma_tx, which gives an array.
    """
    H = np.ascontiguousarray(np.atleast_2d(H), dtype=float)
    if H.shape[-1] != n_active:
        raise ValueError("H must hold exactly the active columns")
    row_sums = H.sum(axis=-1)[..., None, :]
    # one dot product per channel, as np.dot sums it
    power = (row_sums @ row_sums.swapaxes(-1, -2))[..., 0, 0]
    snr = gamma_tx / n_active ** 2 * power
    return float(snr) if np.ndim(snr) == 0 else snr


def _certificate(x, sq, buf):
    """(delta, plane, ball) certificate tables of the received symbols x.

    sq holds the squared norms of x's columns. For each symbol s with
    nearest other symbol n(s) at squared distance d1 and next-nearest
    at d2 (d2 = d1 when K = 2): delta[:, s] = x_n(s) - x_s,
    plane[s] = CERT_PLANE d1 / 2 and ball[s] = CERT_BALL^2 d2. A symbol
    with d1 <= CERT_GUARD max(sq) gets ball -inf: no certificate. The
    distances are taken in Gram form, len(buf) symbols at a time in the
    (rows, K) buffer buf, so no K x K table is held.
    """
    K = x.shape[1]
    nearest, d1, d2 = np.empty(K, np.intp), np.empty(K), np.empty(K)
    for i in range(0, K, len(buf)):
        r = np.arange(i, min(i + len(buf), K))
        j = np.arange(len(r))
        d = np.matmul(x[:, r].T, x, out=buf[:len(r)])
        d *= -2.0
        d += sq
        d += sq[r, None]
        d[j, r] = np.inf                          # not itself
        n = d.argmin(axis=1)
        nearest[r], d1[r] = n, d[j, n]
        d[j, n] = np.inf
        d2[r] = d.min(axis=1)
    if K == 2:
        d2 = d1
    ball = np.where(d1 > CERT_GUARD * sq.max(), CERT_BALL ** 2 * d2, -np.inf)
    return x[:, nearest] - x, CERT_PLANE * 0.5 * d1, ball


def _unsure(z, ks, delta, plane, ball):
    """Indices of the samples (sent ks, unit noise z) that the
    certificate, with plane and ball scaled to unit noise, leaves to
    full scoring: those outside their symbol's ball or half-space."""
    out = np.einsum("ij,ij->j", z, z) >= ball.take(ks)
    out |= np.einsum("ij,ij->j", z, delta.take(ks, axis=1)) >= plane.take(ks)
    return np.flatnonzero(out)


def monte_carlo_ber(constellation, H, gamma_tx, n_symbols, rng):
    """Simulated ML bit error rate with a Wilson confidence interval.

    Symbols are drawn uniformly; the noise standard deviation is
    calibrated to the transmit SNR as sigma = 1 / sqrt(gamma_tx). The
    interval treats bit errors as independent Bernoulli trials. Symbols
    are drawn in blocks of MC_CHUNK, the indices of a block before its
    noise, so the result depends only on rng's state and the inputs.

    Only the samples whose decision is not certain are scored (see the
    module docstring): y = x_s + sigma z against every x_k = H s_k as
    y.T @ x - ||x_k||^2 / 2, MC_SCORES symbol x candidate scores at a
    time, argmax with ties to the lowest index. A certain sample adds no
    bit error. A point whose mean noise energy n_r sigma^2 reaches every
    symbol's ball scores every sample without the test. The counts are
    the ones scoring every sample gives (module docstring).

    gamma_tx is one transmit SNR, drawn from the Generator rng, or a
    1-D grid of them with rng a sequence of one Generator per point
    (ValueError when the lengths differ, before any draw); ber, ci_low
    and ci_high then come back as arrays over the grid, each the one a
    one-point call with its Generator gives. x and the certificate
    tables are made once per call and only read by the points, which
    run on util.map_points' threads: each point counts its bit errors
    with its own score buffer, allocated once per point and reused by
    every block of it (a one-point call scores in the buffer that built
    the tables), so the counts do not depend on the thread count. The
    rates and intervals are formed on the calling thread.

    Returns:
        (ber, (ci_low, ci_high))
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    gamma_tx = positive(gamma_tx, "gamma_tx")
    rngs = [rng] if gamma_tx.ndim == 0 else rng
    x = H @ constellation.S                       # (n_r, K)
    n_r, K = x.shape
    sq = np.sum(x * x, axis=0)
    half_sq = 0.5 * sq                            # (K,)
    # symbols detected at once; the buffer also serves the tables
    step = max(1, MC_SCORES // K)
    buf = np.empty((min(step, max(K, n_symbols)), K))
    delta, plane, ball = _certificate(x, sq, buf)
    shape = buf.shape
    if gamma_tx.size > 1:
        buf = None                                # one buffer per point
    bit_errors = constellation.hamming.ravel()    # (K * K,)

    def point(gamma, gen):
        """Bit errors of n_symbols samples at transmit SNR gamma."""
        scores_buf = np.empty(shape) if buf is None else buf
        sigma = 1.0 / np.sqrt(gamma)
        certify = n_r * sigma * sigma < ball.max()
        plane_z, ball_z = plane / sigma, ball / (sigma * sigma)
        n_bit_errors = 0
        remaining = n_symbols
        while remaining > 0:
            n = min(MC_CHUNK, remaining)
            remaining -= n
            ks = gen.integers(0, K, size=n)
            z = gen.standard_normal((n_r, n))
            # full scoring takes the last sample alone when n % step == 1
            lone = n % step == 1
            if certify:
                u = _unsure(z, ks, delta, plane_z, ball_z)
                lone = lone and bool(u.size) and bool(u[-1] == n - 1)
                ks, z = ks.take(u), z.take(u, axis=1)
            z *= sigma
            y = x.take(ks, axis=1)
            y += z                                # x_s + sigma z
            del z
            # numpy scores one row through BLAS's matrix-vector product,
            # which rounds unlike a block of rows: only the lone sample
            # goes alone, and any other single row is scored as two
            khat = np.empty(len(ks), dtype=np.intp)
            body = len(ks) - lone
            starts = list(range(0, body, step)) + [body] * lone
            for i, j in zip(starts, starts[1:] + [len(ks)]):
                rows = y[:, [i, i]].T if j - i == 1 and i < body else y.T[i:j]
                scores = np.matmul(rows, x, out=scores_buf[:len(rows)])
                scores -= half_sq
                np.argmax(scores[:j - i], axis=1, out=khat[i:j])
            ks *= K                               # flat index sent K + decided
            ks += khat
            n_bit_errors += int(bit_errors.take(ks).sum())
        return n_bit_errors

    errors = map_points(point, gamma_tx.ravel(), rngs)
    n_bits = n_symbols * constellation.bits_per_symbol
    ber, low, high = (np.empty(gamma_tx.shape) for _ in range(3))
    for p, n_bit_errors in zip(np.ndindex(gamma_tx.shape), errors):
        ber[p] = n_bit_errors / n_bits
        low[p], high[p] = wilson_interval(n_bit_errors, n_bits)
    if gamma_tx.ndim == 0:
        return float(ber), (float(low), float(high))
    return ber, (low, high)
