"""Achievable-rate lower bounds and energy efficiency for the uplink.

The uplink mutual information of the discrete-input Gaussian channel
has no closed form, so the achievable rate is taken as the larger of
two analytic lower bounds. L1 comes from bounding the output entropy
through the concavity of the logarithm; L2 keeps the Gaussian input
covariance sigma_x^2 I in play and involves the determinant ratio
|2cHH' + I| / |cHH' + I| with c = sigma_x^2 / sigma^2. A Monte Carlo
mutual-information estimator serves as the validity oracle: both
bounds must sit below it at every SNR.

Every sum of exponentials goes through util.logsumexp, whose results
are bit-identical to scipy.special.logsumexp's at a fraction of its
per-call cost. The estimator builds its K exponents per sample in
place, in one (samples, K) block per MI_CHUNK samples.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .sm import pairwise_sq_distances
from .util import LOG2, logsumexp

#: log2(e) - 1, the per-receiver-dimension entropy loss of L1.
_L1_DIM_LOSS = 1.0 / LOG2 - 1.0

#: Samples per block of mi_monte_carlo. Fixed, because the block size
#: sets the order of the draws and so the estimate.
MI_CHUNK = 20_000


def input_power_variance(constellation):
    """Per-source electrical variance sigma_x^2 of the modulation.

    Closed form I^2 (M - 1) / (3 N_t (M + 1)) for single-active-source
    signaling with M equispaced positive levels of mean I over N_t
    transmitters. This is the average of (active level - I)^2 spread
    over the N_t vector components, not the componentwise variance.
    """
    n_tx = constellation.S.shape[0]
    M = constellation.M
    I = constellation.mean_power
    return I * I * (M - 1) / (3.0 * n_tx * (M + 1))


def lower_bound_l1(constellation, H, sigma2):
    """Entropy-based achievable-rate lower bound, bits per channel use.

    L1 = 2 log2 K - (N_r/2)(log2 e - 1)
         - log2 sum_ij exp(-c ||H(s_i - s_j)||^2)

    with c = 1/(4 sigma^2), the coefficient consistent with the bound's
    derivation and validated against the Monte Carlo estimator.
    """
    H = np.atleast_2d(H)
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    c = 1.0 / (4.0 * sigma2)
    K = constellation.K
    n_rx = H.shape[0]
    d2 = pairwise_sq_distances(H @ constellation.S)
    lse = logsumexp(-c * d2)
    return 2.0 * np.log2(K) - 0.5 * n_rx * _L1_DIM_LOSS - lse / LOG2


def lower_bound_l2(constellation, H, sigma2, sigma_x2=None):
    """KL-divergence-based achievable-rate lower bound, bits/channel use.

    L2 = 2 log2 K + (1/2) log2(|2cQ + I| / |cQ + I|) - log2 sum_ij exp(d_ij)

    with Q = HH', c = sigma_x^2 / sigma^2 and

    d_ij = (1/sigma^2) s_i' H' (2cQ+I)^{-1} H s_j
           - (sigma_x^2 / (2 sigma^4)) (s_i-s_j)' H' Q (2cQ+I)^{-1} H (s_i-s_j).

    Q commutes with (2cQ+I)^{-1}, so the quadratic form is symmetric.
    Determinants come from the Cholesky factors already used for the
    solves, and the K^2 exponentials go through log-sum-exp.
    """
    H = np.atleast_2d(H)
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    if sigma_x2 is None:
        sigma_x2 = input_power_variance(constellation)
    K = constellation.K
    n_rx = H.shape[0]
    X = H @ constellation.S                     # noiseless outputs, (n_rx, K)
    Q = H @ H.T
    c = sigma_x2 / sigma2
    eye = np.eye(n_rx)

    cho_a = cho_factor(2.0 * c * Q + eye, lower=True)
    cho_b = cho_factor(c * Q + eye, lower=True)
    logdet_a = 2.0 * np.sum(np.log(np.diag(cho_a[0])))
    logdet_b = 2.0 * np.sum(np.log(np.diag(cho_b[0])))
    det_bits = 0.5 * (logdet_a - logdet_b) / LOG2

    a_inv_x = cho_solve(cho_a, X)               # (2cQ+I)^{-1} X
    cross = (X.T @ a_inv_x) / sigma2            # (K, K), symmetric
    G = X.T @ (Q @ a_inv_x)
    g = np.diag(G)
    quad = g[:, None] + g[None, :] - (G + G.T)  # ||.||-type form, >= 0
    d = cross - 0.5 * sigma_x2 / sigma2 ** 2 * quad
    lse = logsumexp(d)
    return 2.0 * np.log2(K) + det_bits - lse / LOG2


def achievable_rate(l1, l2):
    """max(L1+, L2+): the tighter of the clamped lower bounds."""
    return max(max(l1, 0.0), max(l2, 0.0))


@dataclass(frozen=True)
class RateBounds:
    """Both bounds plus the resulting achievable rate."""

    l1: float
    l2: float

    @property
    def rate(self):
        return achievable_rate(self.l1, self.l2)


def rate_bounds(constellation, H, sigma2):
    """Evaluate both lower bounds on the same channel and noise."""
    return RateBounds(l1=float(lower_bound_l1(constellation, H, sigma2)),
                      l2=float(lower_bound_l2(constellation, H, sigma2)))


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
    defaults to one channel use per second.
    """
    power = symbol_energy * symbol_rate
    if power <= 0:
        raise ValueError("transmit power must be positive")
    return rate / power


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
    """
    H = np.atleast_2d(H)
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    X = H @ constellation.S
    K = constellation.K
    n_rx = H.shape[0]
    sigma = np.sqrt(sigma2)
    dist_sq = pairwise_sq_distances(X)

    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        n = min(MI_CHUNK, n_samples - done)
        idx = rng.integers(0, K, size=n)
        noise = rng.normal(0.0, sigma, size=(n, n_rx))
        # exponent of the k-th ratio term for y = x_i + n:
        # (||n||^2 - ||y - x_k||^2)/(2 s2) = -(D_ik + 2 n.(x_i - x_k))/(2 s2).
        # Centering on the sent point keeps the k = i term exactly zero,
        # so the estimate saturates cleanly at log2 K for sigma2 -> 0.
        expo = noise @ X
        sent = expo[np.arange(n), idx]
        np.subtract(sent[:, None], expo, out=expo)
        expo *= 2.0
        expo += dist_sq.take(idx, axis=0)
        expo /= -(2.0 * sigma2)
        terms = logsumexp(expo, axis=1)
        terms /= LOG2
        total += float(terms.sum())
        total_sq += float((terms * terms).sum())
        done += n

    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    stderr = np.sqrt(var / n_samples)
    return float(np.log2(K) - mean), float(stderr)
