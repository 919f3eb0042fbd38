import numpy as np
import pytest

from szego.algebra import Poly
from szego.blaschke import BlaschkeProduct, from_zeros
from szego.errors import InputError
from szego.forward_map import SpectralData, forward
from szego.hankel import Symbol, resize_symbol
from szego.inverse_map import (collapsed_fourvalue, consistency_report,
                               fourvalue_formula, roundtrip, synthesize)
from szego.verify import CONSISTENCY_TOL, random_spectral_data

MONOMIAL_FACTOR = from_zeros(np.array([0.0]), 0.0)
CONSTANT = BlaschkeProduct.constant(0.0)


def test_monomial_reconstruction():
    data = SpectralData(np.array([1.0]), (MONOMIAL_FACTOR,))
    result = synthesize(data)
    target = np.zeros(result.u.n_modes, dtype=complex)
    target[1] = 1.0
    assert np.max(np.abs(result.u.coeffs - target)) < 1e-9
    assert result.q_poly.degree == 0
    assert result.total_degree == 2


def test_rank_two_hand_reconstruction():
    data = SpectralData(np.array([1.0, 0.5]), (MONOMIAL_FACTOR, CONSTANT))
    result = synthesize(data)
    expect = 0.75 * np.where(np.arange(8) % 2 == 1,
                             0.5 ** (np.arange(8) // 2), 0.0)
    assert np.max(np.abs(result.rational.taylor(8) - expect)) < 1e-9
    assert np.allclose(result.q_poly.padded(3), [1.0, 0.0, -0.5], atol=1e-9)
    assert result.total_degree == 2


def test_hand_polynomial_reconstruction(hand_symbol):
    result = synthesize(forward(hand_symbol))
    assert np.max(np.abs(result.rational.taylor(4) - [3.0, 2.0, 0.0, 0.0])) < 1e-9
    assert result.q_poly.degree == 0
    assert abs(result.det_at_zero - 5.0 / 12.0) < 1e-9
    assert result.total_degree == 2


def test_denominator_free_of_roots_near_disc(rng):
    for _ in range(5):
        data, result = random_spectral_data(rng)
        if result.q_poly.degree >= 1:
            assert result.min_root_modulus > 1.0 + 1e-10
        if data.n % 2 == 0:
            assert result.q_poly.degree == result.total_degree


def test_synthesis_does_its_algebra_on_coefficient_arrays(monkeypatch):
    # q = 3 brings nine minors and both adjugate sums; Poly objects are
    # built only as outputs, so no Poly is ever added or subtracted
    def refuse(self, other):
        raise AssertionError("Poly addition inside synthesize")

    monkeypatch.setattr(Poly, "__add__", refuse)
    monkeypatch.setattr(Poly, "__sub__", refuse)
    psi = (BlaschkeProduct.constant(0.4), from_zeros([0.3], 1.0),
           BlaschkeProduct.constant(2.0), from_zeros([-0.2j], 0.0),
           BlaschkeProduct.constant(3.0))
    data = SpectralData(np.array([6.0, 3.0, 1.5, 0.75, 0.3]), psi)
    result = synthesize(data)
    assert data.q == 3
    assert result.total_degree == 5
    assert consistency_report(result).max_residual < CONSISTENCY_TOL


def test_fourvalue_hand_spectrum():
    u = fourvalue_formula(4.0, 2.0, 1.0, 0.3)
    data = forward(u)
    assert np.max(np.abs(data.s - [4.0, 2.0, 1.0, 0.3])) < 1e-8


def test_fourvalue_ordering_is_validated():
    with pytest.raises(InputError):
        fourvalue_formula(1.0, 2.0, 0.5, 0.1)      # |mu1| above |lambda1|
    with pytest.raises(InputError):
        fourvalue_formula(4.0, 2.0, 2.0, 0.1)      # tie
    with pytest.raises(InputError):
        fourvalue_formula(4.0, 2.0, 1.0, 0.0)      # zero not allowed


def test_collapsed_family_is_the_degenerate_limit():
    lam1, lam2, p = 4.0, 1.5, 0.4
    limit = collapsed_fourvalue(lam1, lam2, p)
    eps = 1e-5
    nearby = fourvalue_formula(lam1, lam2 + eps, lam2,
                               -lam2 + eps * (1.0 + p) / (1.0 - p))
    gap = np.max(np.abs(limit.rational.taylor(8) - nearby.rational.taylor(8)))
    assert gap < 1e-4


def test_collapsed_family_spectrum():
    u = collapsed_fourvalue(4.0, 1.5, 0.4)
    data = forward(u)
    assert data.n == 2
    assert np.max(np.abs(data.s - [4.0, 1.5])) < 1e-8
    assert data.psi[0].degree == 0
    assert data.psi[1].degree == 1
    assert np.max(np.abs(data.psi[1].p.padded(2) - [-0.4, 1.0])) < 1e-6


def test_symbol_roundtrip_hand(hand_symbol):
    rep = roundtrip(resize_symbol(hand_symbol, 16))
    assert rep.coeff_relative < 1e-9
    assert rep.spectral_max < 1e-9
