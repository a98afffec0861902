"""Small numeric helpers shared across the simulator.

dB conversion, the Gaussian Q function, the Wilson interval, a check
that every entry of an argument is positive, and a log-sum-exp for real
arrays. The log-sum-exp computes
scipy.special.logsumexp's algorithm with results bit-identical to
scipy's, without the array-API dispatch that costs scipy several times
the arithmetic on the small tables the rate bounds and the mutual
information estimate reduce.
"""

import functools

import numpy as np
from scipy.special import erfc

LOG2 = np.log(2.0)

#: exp rounds every argument at or below this to +0.0 (the halfway point
#: to the smallest subnormal is at -745.13).
_EXP_ZERO = -746.0


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


def positive(x, name):
    """x as a float array; ValueError naming it unless every entry is
    > 0 (NaN is not)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError(f"{name} must be positive")
    return x


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over axis (all entries when None), for real input.

    scipy.special.logsumexp's algorithm: with a_max the maximum and m
    the number of entries equal to it, s sums exp(a - a_max) over the
    other entries and the result is log1p(s / m) + log(m) + a_max. The
    entries equal to a_max enter the sum as +0.0 terms instead of being
    dropped, so numpy sums the same values in the same pairwise order
    as scipy: the results are bit-identical. Infinite input needs no
    second path: the terms equal to an infinite a_max are zeroed, not
    exponentiated, so they cannot make the sum NaN, and the result is
    a_max itself, the value scipy's fallback log(sum(exp(a))) gives.
    NaN input gives NaN.

    np.max reduces a short axis several times slower per entry than a
    long one, so an axis shorter than the number of reductions is
    reduced by a running np.maximum over its slices instead, which gives
    the same maxima. np.exp is several times slower on arguments whose
    result underflows, and every difference at or below _EXP_ZERO
    underflows to +0.0, so only the other entries are exponentiated;
    the rest, like the entries equal to a_max, are set to +0.0.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        if axis is None or a.shape[axis] ** 2 >= a.size:
            a_max = a.max(axis=axis, keepdims=True)
        else:
            a_max = np.expand_dims(
                functools.reduce(np.maximum, np.moveaxis(a, axis, 0)), axis)
        top = a == a_max
        if np.count_nonzero(top) == a_max.size and not np.isnan(a_max).any():
            m = 1   # every reduction holds exactly one entry equal to a_max
        else:
            m = np.count_nonzero(top, axis=axis, keepdims=True)
        e = np.subtract(a, a_max)
        live = ~(top | (e <= _EXP_ZERO))
        np.exp(e, out=e, where=live)
        np.putmask(e, ~live, 0.0)
        s = np.sum(e, axis=axis, keepdims=True)
        s /= m
        out = np.log1p(s) + np.log(m) + a_max
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def wilson_interval(n_errors, n_trials):
    """Wilson score 95% confidence interval for a binomial proportion.

    Args:
        n_errors: observed error count.
        n_trials: number of trials (> 0).

    Returns:
        (low, high) bounds on the error probability.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    z = 1.96                # normal quantile of a 95% interval
    p = n_errors / n_trials
    denom = 1.0 + z * z / n_trials
    center = (p + z * z / (2 * n_trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n_trials + z * z / (4 * n_trials ** 2))
    # rounding must not push the sample proportion outside its interval
    return min(max(center - half, 0.0), p), max(min(center + half, 1.0), p)
