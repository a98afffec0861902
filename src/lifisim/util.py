"""Small numeric helpers shared across the simulator.

dB conversion, the Gaussian Q function, the Wilson interval and a
log-sum-exp for real arrays. The log-sum-exp computes
scipy.special.logsumexp's algorithm with results bit-identical to
scipy's, without the array-API dispatch that costs scipy several times
the arithmetic on the small tables the rate bounds and the mutual
information estimate reduce.
"""

import numpy as np
from scipy.special import erfc

LOG2 = np.log(2.0)


def db_to_linear(x_db):
    """Convert a power ratio from dB to linear scale."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    """Convert a linear power ratio to dB."""
    return 10.0 * np.log10(x)


def qfunc(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x).

    Evaluated through the complementary error function in double
    precision; accurate far into the tail (Q(40) ~ 1e-350 underflows
    cleanly to 0).
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over axis (all entries when None), for real input.

    scipy.special.logsumexp's algorithm: with a_max the maximum and m
    the number of entries equal to it, s sums exp(a - a_max) over the
    other entries and the result is log1p(s / m) + log(m) + a_max. The
    entries equal to a_max enter the sum as +0.0 terms instead of being
    dropped, so numpy sums the same values in the same pairwise order
    as scipy: the results are bit-identical. Infinite input needs no
    second path: the terms equal to an infinite a_max are zeroed after
    the exponential, before they can make the sum NaN, so the result is
    a_max itself, the value scipy's fallback log(sum(exp(a))) gives.
    NaN input gives NaN.
    """
    a = np.asarray(a, dtype=float)
    if axis is None:
        a_max = a.max(keepdims=True)
    else:
        # np.max reduces a short contiguous axis two to three times
        # slower than argmax and a gather, which give the same values
        a_max = np.take_along_axis(a, np.expand_dims(a.argmax(axis), axis),
                                   axis)
    top = a == a_max
    if np.count_nonzero(top) == a_max.size and not np.isnan(a_max).any():
        m = 1       # every reduction holds exactly one entry equal to a_max
    else:
        m = np.count_nonzero(top, axis=axis, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.subtract(a, a_max)
        np.exp(e, out=e)
        np.putmask(e, top, 0.0)
        s = np.sum(e, axis=axis, keepdims=True)
        s /= m
        out = np.log1p(s) + np.log(m) + a_max
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def wilson_interval(n_errors, n_trials, z=1.96):
    """Wilson score confidence interval for a binomial proportion.

    Args:
        n_errors: observed error count.
        n_trials: number of trials (> 0).
        z: normal quantile, 1.96 for a 95% interval.

    Returns:
        (low, high) bounds on the error probability.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    p = n_errors / n_trials
    denom = 1.0 + z * z / n_trials
    center = (p + z * z / (2 * n_trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n_trials + z * z / (4 * n_trials ** 2))
    # rounding must not push the sample proportion outside its interval
    return min(max(center - half, 0.0), p), max(min(center + half, 1.0), p)
