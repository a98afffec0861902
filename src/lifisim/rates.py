"""Achievable-rate lower bounds and energy efficiency for the uplink.

The uplink mutual information of the discrete-input Gaussian channel
has no closed form, so the achievable rate is taken as the larger of
two analytic lower bounds. L1 comes from bounding the output entropy
through the concavity of the logarithm; L2 keeps the Gaussian input
covariance sigma_x^2 I in play and involves the determinant ratio
|2cHH' + I| / |cHH' + I| with c = sigma_x^2 / sigma^2. A Monte Carlo
mutual-information estimator serves as the validity oracle: both
bounds must sit below it at every SNR.

Both bounds, rate_bounds and the estimator take one noise variance or
an array of them, and return values in that shape. The points are the
transmit-SNR grid of one channel, or carry one channel each, a stack
of as many channels as points (sm.point_channels), as when an uplink
block's points of one active-set size go in one call. Each distinct
channel's tables (X = H S, the d^2 table, the singular modes of H) are
built once, by its own 2-D calls, and each point's value is
bit-identical to a one-point call on its channel. L1 reduces the d^2
rows of the points against the vector of c = 1/(4 sigma^2) in
(points, K^2) blocks of about sm.BOUND_TERMS terms at most; L2
evaluates each point on its own from its channel's modes.

Every sum of exponentials goes through util.logsumexp, whose results
are bit-identical to scipy.special.logsumexp's at a fraction of its
per-call cost. It takes the maximum of a short row, such as a sample's
K exponents, by a running np.maximum over the columns, and calls np.exp
only on the differences whose exponential does not underflow to 0: at
high SNR most of them do, and np.exp is several times slower on those.
The estimator builds its K exponents per sample in place, in one
(samples, K) block per MI_CHUNK samples of one point at a time. All
points of a call run in one util.map_points call, on its thread pool: a
thread draws one point from that point's own Generator into that
point's own block arrays and only reads its channel's tables, so every
estimate is the one a one-point call gives, whatever the thread count.
"""

from collections import namedtuple

import numpy as np

from .sm import BOUND_TERMS, pairwise_sq_distances, point_channels
from .util import LOG2, logsumexp, map_points, positive

#: log2(e) - 1, the per-receiver-dimension entropy loss of L1.
_L1_DIM_LOSS = 1.0 / LOG2 - 1.0

#: Samples per block of mi_monte_carlo. Fixed, because the block size
#: sets the order of the draws and so the estimate.
MI_CHUNK = 20_000


def input_power_variance(constellation):
    """Per-source electrical variance sigma_x^2 of the modulation.

    Closed form I^2 (M - 1) / (3 N_t (M + 1)) for single-active-source
    signaling with M equispaced positive levels of mean I over N_t
    transmitters, at the unit mean power I = 1 of every signal set (see
    sm). This is the average of (active level - I)^2 spread over the N_t
    vector components, not the componentwise variance.
    """
    n_tx = constellation.S.shape[0]
    M = constellation.M
    return (M - 1) / (3.0 * n_tx * (M + 1))


def lower_bound_l1(constellation, H, sigma2):
    """Entropy-based achievable-rate lower bound, bits per channel use.

    L1 = 2 log2 K - (N_r/2)(log2 e - 1)
         - log2 sum_ij exp(-c ||H(s_i - s_j)||^2)

    with c = 1/(4 sigma^2), the coefficient consistent with the bound's
    derivation and validated against the Monte Carlo estimator.

    H is one channel, or a stack with one channel per noise variance
    (sm.point_channels). Each distinct channel's d^2 table is built by
    its own 2-D call. The points are reduced max(1, BOUND_TERMS // K^2)
    at a time: each point's row of -c d^2 is formed in place in a copy
    of its channel's row, and the part's rows go through one
    log-sum-exp, each row on its own, so no grid or stack holds more
    than about BOUND_TERMS terms at once.
    """
    c = 1.0 / (4.0 * positive(sigma2, "sigma2"))
    channels, which = point_channels(H, c.size)
    K = constellation.K
    n_rx = channels[0].shape[0]
    d2 = np.stack([pairwise_sq_distances(h @ constellation.S).ravel()
                   for h in channels])
    neg_c = -c.reshape(-1, 1)
    step = max(1, BOUND_TERMS // K ** 2)
    lse = np.empty(c.size)
    for lo in range(0, c.size, step):
        part = d2[which[lo:lo + step]]
        part *= neg_c[lo:lo + step]
        lse[lo:lo + step] = logsumexp(part, axis=-1)
    lse = lse.reshape(c.shape)
    return 2.0 * np.log2(K) - 0.5 * n_rx * _L1_DIM_LOSS - lse / LOG2


def lower_bound_l2(constellation, H, sigma2):
    """KL-divergence-based achievable-rate lower bound, bits/channel use.

    L2 = 2 log2 K + (1/2) log2(|2cQ + I| / |cQ + I|) - log2 sum_ij exp(d_ij)

    with Q = HH', c = sigma_x^2 / sigma^2 (sigma_x^2 from
    input_power_variance) and

    d_ij = (1/sigma^2) s_i' H' (2cQ+I)^{-1} H s_j
           - (sigma_x^2 / (2 sigma^4)) (s_i-s_j)' H' Q (2cQ+I)^{-1} H (s_i-s_j).

    It is evaluated in the singular-mode basis of H. With the thin SVD
    H = U Sigma V', the r = min(N_r, N_a) modes have lambda = sigma_r^2,
    the noiseless outputs are U Z with Z = Sigma V' S (r x K), and with
    w = 1/(1 + 2c lambda)

    log2(|2cQ + I| / |cQ + I|)
        = sum_r [log1p(2c lambda_r) - log1p(c lambda_r)] / ln 2,
    d_ij = (1/sigma^2) sum_r w_r Z_ri Z_rj
           - (1/(2 sigma^2)) sum_r c lambda_r w_r (Z_ri - Z_rj)^2,

    as sigma_x^2 / (2 sigma^4) = c / (2 sigma^2). Nothing is factorized
    or inverted, and c lambda w < 1/2, so the bound stays finite at
    every noise variance where c lambda is.
    The quadratic term is summed one mode at a time from each mode's
    own differences (_mode_squares): its diagonal is then exactly 0 and
    no large terms cancel. The Gram form g_i + g_j - 2 G_ij would leave
    a rounding residue on the diagonal that grows with c ||Q||, and at
    high SNR the i = j terms dominate the sum.

    H is one channel, or a stack with one channel per noise variance
    (sm.point_channels). Each distinct channel's SVD is taken once, and
    each point is evaluated on its own from its channel's modes, since
    a product over several points would round unlike a one-point call.
    """
    sigma2 = positive(sigma2, "sigma2")
    channels, which = point_channels(H, sigma2.size)
    sigma_x2 = input_power_variance(constellation)
    K = constellation.K
    out = np.empty(sigma2.shape)
    for j, h in enumerate(channels):
        sv, Vt = np.linalg.svd(h, full_matrices=False)[1:]
        lam = sv * sv
        Z = (sv[:, None] * Vt) @ constellation.S       # mode outputs, (r, K)
        for p in np.flatnonzero(which == j):
            s2 = sigma2.flat[p]
            t = sigma_x2 / s2 * lam                     # c lambda per mode
            det_bits = 0.5 * np.sum(np.log1p(2.0 * t) - np.log1p(t)) / LOG2
            w = 1.0 / (1.0 + 2.0 * t)
            d = Z.T @ (Z * (w / s2)[:, None])            # cross term, (K, K)
            d -= _mode_squares(Z, 0.5 * t * w / s2)
            out.flat[p] = 2.0 * np.log2(K) + det_bits - logsumexp(d) / LOG2
    return out[()]


def _mode_squares(Z, weights):
    """sum_r weights_r (Z_ri - Z_rj)^2 over the rows r of Z, a (K, K)
    array built one mode at a time in one buffer."""
    K = Z.shape[1]
    total, diff = np.zeros((K, K)), np.empty((K, K))
    for z, q in zip(Z, weights):
        np.subtract.outer(z, z, out=diff)
        diff *= diff
        diff *= q
        total += diff
    return total


def achievable_rate(l1, l2):
    """max(L1+, L2+): the tighter of the clamped lower bounds, entry by
    entry, with the builtin max's choice on ties and NaN."""
    l1, l2 = (np.where(b < 0.0, 0.0, b) for b in (l1, l2))
    return np.where(l2 > l1, l2, l1)[()]


class RateBounds(namedtuple("RateBounds", "l1 l2")):
    """Both bounds plus the resulting achievable rate, each a float or
    an array over the noise variances."""

    @property
    def rate(self):
        return achievable_rate(self.l1, self.l2)


def rate_bounds(constellation, H, sigma2):
    """Evaluate both lower bounds on the same channel and noise, one
    variance or an array of them; H may carry one channel per point, as
    in each bound."""
    return RateBounds(l1=lower_bound_l1(constellation, H, sigma2),
                      l2=lower_bound_l2(constellation, H, sigma2))


def high_snr_gaps(M, n_tx, n_rx):
    """Asymptotic gaps (delta1, delta2) between log2 K and the bounds.

    delta1 = (N_r / 2)(log2 e - 1)
    delta2 = log2 sum_{i=1}^M exp(3 N_t (2i - M - 1) / (2 (M^2 - 1)))
             - log2 M - 1/2

    M = 1 leaves delta2 undefined (zero denominator) and is rejected.
    """
    if M < 2:
        raise ValueError("PAM order must be at least 2")
    delta1 = 0.5 * n_rx * _L1_DIM_LOSS
    i = np.arange(1, M + 1)
    expo = 3.0 * n_tx * (2 * i - M - 1) / (2.0 * (M * M - 1))
    delta2 = logsumexp(expo) / LOG2 - np.log2(M) - 0.5
    return float(delta1), float(delta2)


def energy_efficiency(rate, symbol_energy, symbol_rate=1.0):
    """Achievable rate per unit transmit power, bits per Joule.

    Power per channel use is symbol_energy * symbol_rate; symbol_rate
    defaults to one channel use per second. Entry by entry for arrays;
    a power that is not positive (NaN included) raises ValueError.
    """
    return rate / positive(symbol_energy * symbol_rate, "transmit power")


def mi_monte_carlo(constellation, H, sigma2, n_samples, rng):
    """Monte Carlo mutual-information estimate for the discrete input.

    Draws symbols uniformly, adds white Gaussian noise of variance
    sigma2 per receiver branch, and averages

        log2 K - log2[sum_k exp(-||y - Hs_k||^2 / (2 sigma^2))
                      / exp(-||n||^2 / (2 sigma^2))]

    over the samples. Returns (estimate, standard error). All
    exponentials are evaluated through log-sum-exp. Samples are drawn
    in blocks of MI_CHUNK, the symbol indices of a block before its
    noise, so the estimate depends only on rng's state and the inputs.

    sigma2 is one noise variance, drawn from the Generator rng, or an
    array of them with rng a sequence of one Generator per entry
    (ValueError when the lengths differ, before any draw); the
    estimates and errors then come back as arrays of sigma2's shape,
    each the one a one-point call with its Generator gives. H is one
    channel for every point, or a stack with one channel per point
    (sm.point_channels). Each distinct channel's X and d^2 table are
    built once per call, on the calling thread, and only read by the
    points, which all run in one util.map_points call, so the estimates
    do not depend on the thread count. The arrays of one block are
    allocated once per point and reused by every block of it, since
    fresh arrays of this size are paged in anew each time. The noise is
    drawn into its block with standard_normal and scaled, which gives
    rng.normal(0, sigma)'s values bit for bit. The estimates and errors
    are formed from each point's sums on the calling thread.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    sigma2 = positive(sigma2, "sigma2")
    rngs = [rng] if sigma2.ndim == 0 else rng
    channels, which = point_channels(H, sigma2.size)
    K = constellation.K
    n_rx = channels[0].shape[0]
    tables = [(X, pairwise_sq_distances(X))
              for X in (h @ constellation.S for h in channels)]
    rows = min(MI_CHUNK, n_samples)

    def point(s2_channel, gen):
        """Sums of the log2 ratio terms and of their squares at sigma2
        s2 on the channel of that index."""
        s2, channel = s2_channel
        X, dist_sq = tables[channel]
        # one block's arrays, reused by every block of the point; the
        # noise is spent once expo holds it, so its buffer takes D's rows
        buf, expo = np.empty(rows * max(n_rx, K)), np.empty((rows, K))
        sigma = np.sqrt(s2)
        total, total_sq, done = 0.0, 0.0, 0
        while done < n_samples:
            n = min(MI_CHUNK, n_samples - done)
            idx = gen.integers(0, K, size=n)
            # gen.normal(0.0, sigma, (n, n_rx)) computes 0.0 + sigma * z
            z = gen.standard_normal(out=buf[:n * n_rx].reshape(n, n_rx))
            z *= sigma
            z += 0.0
            # exponent of the k-th ratio term for y = x_i + n:
            # (||n||^2 - ||y - x_k||^2)/(2 s2)
            #     = -(D_ik + 2 n.(x_i - x_k))/(2 s2).
            # Centering on the sent point keeps the k = i term exactly
            # zero, so the estimate saturates cleanly at log2 K for
            # sigma2 -> 0.
            ex = np.matmul(z, X, out=expo[:n])
            sent = ex[np.arange(n), idx]
            np.subtract(sent[:, None], ex, out=ex)
            ex *= 2.0
            ex += dist_sq.take(idx, axis=0, out=buf[:n * K].reshape(n, K))
            ex /= -(2.0 * s2)
            terms = logsumexp(ex, axis=1)
            terms /= LOG2
            total += float(terms.sum())
            total_sq += float((terms * terms).sum())
            done += n
        return total, total_sq

    sums = map_points(point, zip(sigma2.ravel(), which), rngs)
    mi, se = np.empty(sigma2.shape), np.empty(sigma2.shape)
    for p, (total, total_sq) in zip(np.ndindex(sigma2.shape), sums):
        mean = total / n_samples
        var = max(total_sq / n_samples - mean * mean, 0.0)
        mi[p], se[p] = np.log2(K) - mean, np.sqrt(var / n_samples)
    return (float(mi), float(se)) if sigma2.ndim == 0 else (mi, se)
