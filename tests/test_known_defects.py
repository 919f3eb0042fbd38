"""Known defects of the forward and inverse maps, pinned as strict xfails.

Every case is valid interlaced spectral data that the paper's bijection
covers, so each test asserts the correct behavior.  They fail today
because clustering works to an absolute tolerance in s**2 (a zero floor
of 1e-12 s_1**2 and a merge distance of 1e-6 s_1**2), and because the
determinant of a long geometric spectrum loses the precision its root
certificate needs.  A fix turns a test into an unexpected pass, which
fails the suite until its marker is removed.
"""

import warnings

import numpy as np
import pytest

from szego.blaschke import BlaschkeProduct
from szego.errors import HypothesisViolationError, SpectralInconsistencyError
from szego.forward_map import SpectralData, forward
from szego.inverse_map import synthesize

GEOMETRIC = 10.0 * 0.8 ** np.arange(32)


def constant_factors(s, angles) -> SpectralData:
    return SpectralData(np.asarray(s, dtype=float),
                        tuple(BlaschkeProduct.constant(a) for a in angles))


def assert_round_trip(data: SpectralData):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        back = forward(synthesize(data).u)
    assert back.n == data.n
    assert np.max(np.abs(back.s - data.s)) < 1e-6 * data.s[0]


@pytest.mark.xfail(strict=True, raises=SpectralInconsistencyError,
                   reason="small values merge across the two sides")
def test_wide_dynamic_range_round_trips():
    assert_round_trip(constant_factors([1.0, 0.5, 1e-3, 5e-4], [0.0] * 4))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the zero floor hides values below 1e-6 s_1")
def test_value_below_the_zero_floor_is_not_dropped():
    data = constant_factors([1.0, 0.5, 1e-7], [0.0] * 3)
    back = forward(synthesize(data).u)
    assert back.n == 3


@pytest.mark.xfail(strict=True, raises=SpectralInconsistencyError,
                   reason="the tail of a long geometric spectrum merges")
def test_long_geometric_spectrum_round_trips():
    assert_round_trip(constant_factors(GEOMETRIC, 2.4 * np.arange(32)))


@pytest.mark.xfail(strict=True, raises=HypothesisViolationError,
                   reason="the determinant root certificate loses precision")
def test_long_geometric_spectrum_synthesizes():
    assert_round_trip(constant_factors(GEOMETRIC, [0.0] * 32))
