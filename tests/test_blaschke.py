import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szego.algebra import Poly
from szego.blaschke import BlaschkeProduct, from_zeros, normalize_angle
from szego.errors import InputError

CIRCLE = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 33)[:-1])


def test_normalize_angle_wraps():
    assert abs(normalize_angle(2.0 * np.pi + 0.3) - 0.3) < 1e-14
    assert abs(normalize_angle(-0.3) - (2.0 * np.pi - 0.3)) < 1e-14
    assert normalize_angle(0.0) == 0.0


def test_constant_product_is_a_phase():
    b = BlaschkeProduct.constant(0.7)
    assert b.degree == 0
    vals = b(CIRCLE)
    assert np.allclose(vals, np.exp(-0.7j))


def test_from_zeros_vanishes_at_zeros_and_is_unimodular():
    zeros = np.array([0.3 + 0.2j, -0.5j])
    b = from_zeros(zeros, angle=1.1)
    assert b.degree == 2
    assert np.max(np.abs(np.abs(b(CIRCLE)) - 1.0)) < 1e-12
    assert np.max(np.abs(b(zeros))) < 1e-12
    # analytic on the closed disc: denominator has no small roots
    assert np.min(np.abs(b.d.roots())) > 1.0


def test_from_zeros_rejects_zeros_on_or_outside_circle():
    with pytest.raises(InputError):
        from_zeros(np.array([1.0 + 0.0j]), angle=0.0)
    with pytest.raises(InputError):
        from_zeros(np.array([1.5]), angle=0.0)


def test_monomial_factor():
    b = from_zeros(np.array([0.0]), angle=0.0)
    z = 0.4 - 0.2j
    assert abs(b(z) - z) < 1e-14
    assert b.degree == 1
    assert np.allclose(b.p.coeffs, [0.0, 1.0])


def test_product_requires_monic_schur_numerator():
    with pytest.raises(InputError):
        BlaschkeProduct(0.0, Poly([0.0, 2.0]))      # not monic
    with pytest.raises(InputError):
        BlaschkeProduct(0.0, Poly([-2.0, 1.0]))     # root outside the disc


def _is_schur_numerator(p: Poly) -> bool:
    """Whether BlaschkeProduct takes the monic p as a numerator (algebra.is_schur)."""
    try:
        BlaschkeProduct(0.0, p)
    except InputError as exc:
        if "not a Schur polynomial" not in str(exc):
            raise
        return False
    return True


def test_is_schur_poly_hand_cases():
    assert _is_schur_numerator(Poly([-0.25, 0.0, 1.0]))       # roots +-0.5
    assert not _is_schur_numerator(Poly([-1.0, 0.0, 1.0]))    # roots on the circle
    assert not _is_schur_numerator(Poly([-4.0, 0.0, 1.0]))    # roots +-2
    assert _is_schur_numerator(Poly.one())


@given(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_is_schur_poly_matches_root_moduli(roots):
    c = np.ones(1, dtype=complex)
    for a in roots:
        c = np.convolve(c, [-a, 1.0])
    top = np.max(np.abs(np.array(roots)))
    if abs(top - 1.0) < 1e-3:
        return  # too close to the boundary for a stable verdict
    assert _is_schur_numerator(Poly(c)) == (top < 1.0)


@given(st.integers(0, 3), st.floats(0.0, 6.2))
@settings(max_examples=40, deadline=None)
def test_unimodular_on_circle_for_random_products(d, angle):
    rng = np.random.default_rng(d * 1000 + int(angle * 100))
    zeros = 0.8 * np.sqrt(rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
    b = from_zeros(zeros, angle) if d else BlaschkeProduct.constant(angle)
    assert np.max(np.abs(np.abs(b(CIRCLE)) - 1.0)) < 1e-10
