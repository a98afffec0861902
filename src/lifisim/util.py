"""Small numeric helpers shared across the simulator.

dB conversion, the Gaussian Q function, the Wilson interval, a check
that every entry of an argument is positive, a log-sum-exp for real
arrays, and map_points, which runs the SNR points of a Monte Carlo
estimator on a process-wide thread pool. The log-sum-exp computes
scipy.special.logsumexp's algorithm with results bit-identical to
scipy's, without the array-API dispatch that costs scipy several times
the arithmetic on the small tables the rate bounds and the mutual
information estimate reduce.
"""

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import erfc

LOG2 = np.log(2.0)

#: Threads map_points runs points on; None means one per usable CPU.
#: Pool workers set 1, since the pool already fills the CPUs.
_point_threads = None

#: (pid, threads, executor) of the point pool, made on first use.
_point_pool = None

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


def usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def point_threads():
    """Threads map_points runs points on."""
    return _point_threads or usable_cpus()


def set_point_threads(n):
    """Run map_points on n threads (None: one per usable CPU)."""
    global _point_threads
    _point_threads = n


def map_points(fn, points, rngs):
    """[fn(point, rng) for point, rng in zip(points, rngs)], in order.

    The points run on a process-wide pool of point threads, made on
    first use; numpy releases the GIL while it draws and reduces, so
    independent points overlap. The results are those of the plain loop
    bit for bit, since each point draws only from its own Generator and
    fn must write nothing shared. The plain loop runs instead for one
    point, for one thread, and when one Generator object serves several
    points, whose draws must then follow each other. ValueError when the
    lengths differ, before any call. A pool made by another process is
    never used: a forked child has none of its parent's threads.
    """
    global _point_pool
    points, rngs = list(points), list(rngs)
    if len(points) != len(rngs):
        raise ValueError(f"{len(points)} points but {len(rngs)} generators")
    threads = point_threads()
    if min(threads, len(points)) < 2 or len(set(map(id, rngs))) < len(rngs):
        return [fn(p, g) for p, g in zip(points, rngs)]
    key = (os.getpid(), threads)
    if _point_pool is None or _point_pool[:2] != key:
        # the threads of a pool dropped here exit once it is collected
        _point_pool = (*key, ThreadPoolExecutor(
            threads, thread_name_prefix="lifisim-point"))
    return list(_point_pool[2].map(fn, points, rngs))
