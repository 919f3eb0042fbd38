"""Round trips at the edge of the input range, two of them known defects.

Every case is valid interlaced spectral data that the paper's bijection
covers, or a real symbol the self-adjoint theory covers, so each test
asserts the correct behavior.  Two are strict xfails: clustering works in
s**2, so a value below the zero floor of 1e-12 s_1**2 (s below 1e-6 s_1)
is lost, and the determinant of a long geometric spectrum loses the
precision its root certificate needs.  A fix turns such a test into an
unexpected pass, which fails the suite until its marker is removed.  The
other cases hold small values that a merge distance of 1e-6 s_1**2 would
join across the two sides; the merge distance relative to each value
keeps them apart.
"""

import warnings

import numpy as np
import pytest

from szego.algebra import RationalFunction
from szego.blaschke import BlaschkeProduct
from szego.errors import HypothesisViolationError
from szego.forward_map import SpectralData, forward, real_diagnostics
from szego.hankel import Symbol
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


def test_wide_dynamic_range_round_trips():
    assert_round_trip(constant_factors([1.0, 0.5, 1e-3, 5e-4], [0.0] * 4))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the zero floor hides values below 1e-6 s_1")
def test_value_below_the_zero_floor_is_not_dropped():
    data = constant_factors([1.0, 0.5, 1e-7], [0.0] * 3)
    back = forward(synthesize(data).u)
    assert back.n == 3


def test_long_geometric_spectrum_round_trips():
    assert_round_trip(constant_factors(GEOMETRIC, 2.4 * np.arange(32)))


@pytest.mark.xfail(strict=True, raises=HypothesisViolationError,
                   reason="the determinant root certificate loses precision")
def test_long_geometric_spectrum_synthesizes():
    assert_round_trip(constant_factors(GEOMETRIC, [0.0] * 32))


def test_real_symbol_with_wide_dynamic_range_passes_diagnostics():
    # case #17 of `szego verify --suite real --seed 0`
    u = Symbol.from_rational(RationalFunction.from_coeff_lists(
        [1.14314280285523, -0.34137660257731683],
        [1.0, -0.9004835904443793, 0.17880359836200022], check_coprime=False))
    rep = real_diagnostics(u)
    assert rep.passed, rep.failures
