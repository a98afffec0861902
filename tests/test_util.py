"""Numeric helpers: dB conversion, Q function, log-sum-exp, Wilson interval."""

import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

from lifisim import db_to_linear, linear_to_db, qfunc, wilson_interval
from lifisim.util import logsumexp


def test_db_pins():
    assert db_to_linear(0.0) == pytest.approx(1.0)
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-30.0) == pytest.approx(1e-3)
    assert linear_to_db(100.0) == pytest.approx(20.0)


@given(st.floats(min_value=-200.0, max_value=200.0))
def test_db_roundtrip(x_db):
    assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-9)


def test_qfunc_values():
    assert qfunc(0.0) == pytest.approx(0.5)
    for x in (0.5, 1.0, 2.5, 6.0):
        assert qfunc(x) == pytest.approx(norm.sf(x), rel=1e-12)
    assert qfunc(40.0) == 0.0  # underflows cleanly
    assert qfunc(-3.0) == pytest.approx(1.0 - norm.sf(3.0), rel=1e-12)


def test_qfunc_vectorized():
    xs = np.linspace(-2, 8, 11)
    assert np.allclose(qfunc(xs), norm.sf(xs), rtol=1e-12)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(10, 100)
    assert 0.0 <= lo < 0.1 < hi <= 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    loa, hia = wilson_interval(100, 100)
    assert hia == 1.0 and loa < 1.0


def test_wilson_interval_shrinks_with_trials():
    w_small = np.diff(wilson_interval(10, 100))[0]
    w_large = np.diff(wilson_interval(1000, 10000))[0]
    assert w_large < w_small


def test_wilson_interval_rejects_zero_trials():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def _assert_same_bits(ours, theirs):
    """Equal type and shape, NaN where theirs is, identical bits elsewhere."""
    assert type(ours) is type(theirs)
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    nan = np.isnan(theirs)
    np.testing.assert_array_equal(np.isnan(ours), nan)
    np.testing.assert_array_equal(ours.view(np.int64)[~nan],
                                  theirs.view(np.int64)[~nan])


_LSE_ELEMENTS = st.one_of(
    st.floats(-800.0, 800.0),                                # exp over/underflows
    st.floats(-30.0, 30.0).map(lambda x: round(x, 1)),        # ties
    st.integers(-2, 2).map(float),                            # many ties
    st.sampled_from([-np.inf, np.inf, np.nan, 0.0, -0.0]))


@st.composite
def _lse_cases(draw):
    """(array, axis): 1-D or 2-D, single elements, equal rows and columns."""
    shape = draw(st.one_of(hnp.array_shapes(min_dims=1, max_dims=1,
                                            max_side=40),
                           hnp.array_shapes(min_dims=2, max_dims=2,
                                            max_side=12)))
    a = draw(hnp.arrays(np.float64, shape, elements=_LSE_ELEMENTS))
    if a.ndim == 2 and draw(st.booleans()):
        a[draw(st.integers(0, shape[0] - 1))] = a[0, 0]       # all-equal row
        a[:, draw(st.integers(0, shape[1] - 1))] = a[-1, -1]  # and column
    if a.ndim == 2 and draw(st.booleans()):
        a = a.T                                               # Fortran order
    return a, draw(st.sampled_from([None, *range(a.ndim)]))


@settings(max_examples=600, deadline=None)
@given(_lse_cases())
def test_logsumexp_bit_identical_to_scipy(case):
    a, axis = case
    with np.errstate(all="ignore"):
        theirs = scipy.special.logsumexp(a, axis=axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # ours stays silent on inf/NaN
        ours = logsumexp(a, axis=axis)
    _assert_same_bits(ours, theirs)


def test_logsumexp_pins():
    assert logsumexp([0.0, 0.0]) == np.log(2.0)
    assert logsumexp([1000.0, 1000.0]) == 1000.0 + np.log(2.0)
    assert logsumexp([-np.inf, -np.inf]) == -np.inf
    assert logsumexp([np.inf, 1.0]) == np.inf
    assert np.isnan(logsumexp([np.inf, -np.inf, np.nan]))
    np.testing.assert_allclose(
        logsumexp(np.log([[1.0, 3.0], [2.0, 2.0]]), axis=1), np.log([4.0, 4.0]),
        rtol=1e-15)
