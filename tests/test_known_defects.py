"""Round trips at the edge of the input range, two of them known defects.

Every case is valid interlaced spectral data that the paper's bijection
covers, or a real symbol the self-adjoint theory covers, so each test
asserts the correct behavior.  Two are strict xfails: on a zero-padded
truncation the zero floor of 1e-12 s_1**2 (s below 1e-6 s_1) loses the
smallest value of the dynamic-range sweep, and the determinant of a long
geometric spectrum loses the precision its root certificate needs.  A
fix turns such a test into an unexpected pass, which fails the suite
until its marker is removed.  The exact rational core has the floor
1e-18 s_1**2 (s down to 1e-9 s_1) and brings the whole sweep back.  The
other cases hold small values that a merge distance of 1e-6 s_1**2 would
join across the two sides; the merge distance relative to each value
keeps them apart.
"""

import warnings

import numpy as np
import pytest

from szego.algebra import RationalFunction
from szego.blaschke import BlaschkeProduct
from szego.errors import HypothesisViolationError, NumericalError
from szego.forward_map import SpectralData, forward, real_diagnostics
from szego.hankel import Symbol
from szego.inverse_map import synthesize

GEOMETRIC = 10.0 * 0.8 ** np.arange(32)
SWEEP_LEVELS = (1e-5, 1e-6, 1e-7, 1e-8)
SWEEP_SETS = 12


def constant_factors(s, angles) -> SpectralData:
    return SpectralData(np.asarray(s, dtype=float),
                        tuple(BlaschkeProduct.constant(a) for a in angles))


def is_whole(data: SpectralData, back: SpectralData) -> bool:
    return back.n == data.n and np.max(np.abs(back.s - data.s)) < 1e-6 * data.s[0]


def assert_round_trip(data: SpectralData):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        back = forward(synthesize(data).u)
    assert is_whole(data, back), back.s


def sweep_data() -> list:
    """SWEEP_SETS seeded data sets per level of SWEEP_LEVELS.

    n = 2-5 and s_1 = 1, s_n at the level and the other values
    log-uniform between, adjacent values 10 % apart or more; constant
    factors at random angles.
    """
    rng = np.random.default_rng(48)
    grid = []
    for level in SWEEP_LEVELS:
        for _ in range(SWEEP_SETS):
            n = int(rng.integers(2, 6))
            while True:
                mid = 10.0 ** rng.uniform(np.log10(level), 0.0, n - 2)
                s = np.concatenate([[1.0], np.sort(mid)[::-1], [level]])
                if np.all(s[1:] <= 0.9 * s[:-1]):
                    break
            grid.append(constant_factors(s, rng.uniform(0.0, 2.0 * np.pi, n)))
    return grid


def test_wide_dynamic_range_round_trips():
    assert_round_trip(constant_factors([1.0, 0.5, 1e-3, 5e-4], [0.0] * 4))


def test_value_below_the_zero_floor_is_not_dropped():
    data = constant_factors([1.0, 0.5, 1e-7], [0.0] * 3)
    back = forward(synthesize(data).u)
    assert back.n == 3


@pytest.mark.parametrize("leg", [
    "rational",
    pytest.param("range", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the truncation floor of 1e-12 s_1**2 hides values below 1e-6 s_1")),
])
def test_dynamic_range_sweep_comes_back_whole(leg):
    # the core analyzes the rational form, the range leg its coefficients alone
    lost = []
    for data in sweep_data():
        u = synthesize(data).u
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                back, details = forward(u if leg == "rational" else Symbol(u.coeffs),
                                        details=True)
        except NumericalError as exc:
            lost.append((data.s[-1], type(exc).__name__))
            continue
        assert details.pair.path == leg
        if not is_whole(data, back):
            lost.append((data.s[-1], back.n))
    assert not lost, lost


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
