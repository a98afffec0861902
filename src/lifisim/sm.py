"""Spatial modulation signal sets, detection and error-rate analysis.

One of N_a light sources is active per channel use and emits one of M
unipolar PAM levels I_m = 2 I m / (M + 1), m = 1..M, whose mean is the
average optical power I. The K = M N_a symbol vectors carry
log2(N_a) + log2(M) bits: the source index in natural binary followed
by the Gray-coded level index.

The transmit SNR convention ties the noise to the signal through the
mean optical power: gamma_tx = I^2 / sigma_n^2, which makes the
pairwise error probability of maximum-likelihood detection

    PEP = Q( sqrt( gamma_tx / (4 I^2) * ||H (s1 - s2)||^2 ) )

and the Hamming-weighted union bound over all ordered symbol pairs an
upper estimate of the bit error rate. The bound is symmetric in the
pair, so it is summed over the upper triangle i < j with twice the
weight; signal sets are memoized per argument tuple, with read-only
arrays, so that this pair table is built once per set. bound_tables
lays the bound of one set out over a stack of channels, one row per
channel, and bound_tails sums it row by row; UnionBound is their
one-channel case, so the bound a caller evaluates is the one the
batched required-SNR search evaluated. Monte Carlo
detection counts bit errors through the set's cached K x K table of
label Hamming distances.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .util import qfunc, wilson_interval

#: Largest alphabet any signal set may have: the union bound and the
#: detectors keep several K x K tables.
MAX_SYMBOLS = 4096

#: Distinct signal sets kept by the memoized builders.
_CACHED_SETS = 32

#: Symbols per block of monte_carlo_ber. Fixed, because the block size
#: sets the order of the draws and so the result.
MC_CHUNK = 100_000

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
        mean_power: average emitted optical power I.
    """

    S: np.ndarray
    labels: np.ndarray
    M: int
    n_active: int
    mean_power: float

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


def pam_levels(M, mean_power):
    """Unipolar PAM levels 2 I m / (M + 1); their mean equals I."""
    m = np.arange(1, M + 1)
    return 2.0 * mean_power * m / (M + 1)


@lru_cache(maxsize=_CACHED_SETS)
def build_constellation(M, n_active, mean_power=1.0):
    """Spatial-modulation signal set for n_active sources and M-PAM.

    Column k = (m - 1) n_active + a activates source a (0-based) at
    level I_m. Spatial bits are the natural binary source index; level
    bits are Gray coded so adjacent amplitudes differ in one bit.
    Memoized: equal arguments return the same read-only set.
    """
    if not _is_pow2(M) or M < 2:
        raise ValueError("M must be a power of two >= 2")
    if not _is_pow2(n_active):
        raise ValueError("n_active must be a power of two")
    if not mean_power > 0:
        raise ValueError("mean_power must be positive")
    K = M * n_active
    if K > MAX_SYMBOLS:
        raise ValueError(f"symbol set too large ({K} > {MAX_SYMBOLS})")

    levels = pam_levels(M, mean_power)
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
                         n_active=n_active, mean_power=mean_power)


@lru_cache(maxsize=_CACHED_SETS)
def build_mimo_constellation(M, n_streams, mean_power=1.0):
    """Joint signal set of n_streams parallel M-PAM streams.

    Every stream is always on, carrying Gray-coded M-PAM. The levels
    are scaled so the total mean optical power summed over the streams
    equals I, the same illumination constraint the one-active-source
    sets satisfy; the joint alphabet has M**n_streams vectors and
    labels are the streams' labels concatenated. Memoized like
    build_constellation.
    """
    if not _is_pow2(M) or M < 2:
        raise ValueError("M must be a power of two >= 2")
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    if not mean_power > 0:
        raise ValueError("mean_power must be positive")
    K = M ** n_streams
    if K > MAX_SYMBOLS:
        raise ValueError(f"joint symbol set too large ({K} > {MAX_SYMBOLS})")

    levels = pam_levels(M, mean_power / n_streams)
    level_bits = int(np.log2(M))
    grids = np.meshgrid(*[np.arange(M)] * n_streams, indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=0)    # (n_streams, K)
    S = levels[idx]
    labels = np.concatenate(
        [_bits(gray_code(idx[j]), level_bits) for j in range(n_streams)], axis=1)
    return Constellation(S=_read_only(S), labels=_read_only(labels), M=M,
                         n_active=n_streams, mean_power=mean_power)


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


def pep(s1, s2, H, gamma_tx, mean_power):
    """Pairwise error probability of mistaking symbol s1 for s2."""
    if not gamma_tx > 0:
        raise ValueError("gamma_tx must be positive")
    diff = H @ (np.asarray(s1, dtype=float) - np.asarray(s2, dtype=float))
    arg = np.sqrt(gamma_tx / (4.0 * mean_power ** 2) * np.dot(diff, diff))
    return float(qfunc(arg))


def union_bound_ber(constellation, H, gamma_tx):
    """Union-bound estimate of the ML bit error rate.

    (1 / (K log2 K)) * sum over all ordered pairs of
    d_H(b1, b2) Q(sqrt(gamma_tx / (4 I^2) ||H (s1 - s2)||^2)), summed
    as UnionBound does. Monotone decreasing in gamma_tx; may exceed 1
    at low SNR.
    """
    if not gamma_tx > 0:
        raise ValueError("gamma_tx must be positive")
    return UnionBound(constellation, H)(gamma_tx)


def bound_tables(constellation, Hs):
    """Union-bound tables of one signal set on a stack of channels.

    Hs is (B, n_rx, n_active). Returns (floor, weight, root_a): floor
    has shape (B,), weight and root_a (B, n_pairs) over the set's
    PairTable, with root_a = ||H (s_i - s_j)|| / (2 I). The squared
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
    root_a = np.sqrt(np.maximum(d2, 0.0)) / (2.0 * c.mean_power)
    return floor, weight, root_a


def bound_tails(weight, z):
    """(B,) row sums of weight * Q(z): the separable pairs' part of each
    bound, for z = sqrt(gamma_tx) * root_a of each row's channel."""
    return np.sum(weight * qfunc(z), axis=1)


class UnionBound:
    """The union bound of one signal set on one channel, against SNR.

    bound(gamma_tx) = floor + tail(gamma_tx): the one-channel case of
    bound_tables and bound_tails, so that it evaluates to the very
    values the batched required-SNR search sees.
    """

    def __init__(self, constellation, H):
        floor, self.weight, self.root_a = bound_tables(
            constellation, np.atleast_2d(H)[None])
        self.floor = float(floor[0])

    def tail(self, gamma_tx):
        """The separable pairs' part of the bound at gamma_tx."""
        z = math.sqrt(gamma_tx) * self.root_a
        return float(bound_tails(self.weight, z)[0])

    def __call__(self, gamma_tx):
        return self.floor + self.tail(gamma_tx)


def received_snr(H, n_active, gamma_tx):
    """Received SNR aggregated over all detectors.

    gamma_rx = gamma_tx / N_a^2 * sum_i (sum_j h_ij)^2 for the active
    columns of H. H is (n_rx, n_active), which gives a float, or a
    (B, n_rx, n_active) stack, which gives B values; every channel is
    reduced on its own, so its value does not depend on the stack.
    """
    H = np.ascontiguousarray(np.atleast_2d(H), dtype=float)
    if H.shape[-1] != n_active:
        raise ValueError("H must hold exactly the active columns")
    row_sums = H.sum(axis=-1)[..., None, :]
    # one dot product per channel, as np.dot sums it
    power = (row_sums @ row_sums.swapaxes(-1, -2))[..., 0, 0]
    snr = gamma_tx / n_active ** 2 * power
    return float(snr) if H.ndim == 2 else snr


def monte_carlo_ber(constellation, H, gamma_tx, n_symbols, rng):
    """Simulated ML bit error rate with a Wilson confidence interval.

    Symbols are drawn uniformly; the noise standard deviation is
    calibrated to the transmit SNR as sigma = I / sqrt(gamma_tx). The
    interval treats bit errors as independent Bernoulli trials. Symbols
    are drawn in blocks of MC_CHUNK, the indices of a block before its
    noise, so the result depends only on rng's state and the inputs.

    Returns:
        (ber, (ci_low, ci_high))
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if not gamma_tx > 0:
        raise ValueError("gamma_tx must be positive")
    x = H @ constellation.S                       # (n_r, K)
    K = constellation.K
    sigma = constellation.mean_power / np.sqrt(gamma_tx)
    half_sq = 0.5 * np.sum(x * x, axis=0)         # (K,)
    bit_errors = constellation.hamming.ravel()    # (K * K,)

    n_bit_errors = 0
    remaining = n_symbols
    while remaining > 0:
        n = min(MC_CHUNK, remaining)
        remaining -= n
        ks = rng.integers(0, K, size=n)
        y = x[:, ks] + sigma * rng.standard_normal((x.shape[0], n))
        scores = y.T @ x                          # (n, K)
        scores -= half_sq
        khat = np.argmax(scores, axis=1)
        ks *= K                                   # flat index sent K + decided
        ks += khat
        n_bit_errors += int(bit_errors.take(ks).sum())

    n_bits = n_symbols * constellation.bits_per_symbol
    ber = n_bit_errors / n_bits
    return ber, wilson_interval(n_bit_errors, n_bits)
