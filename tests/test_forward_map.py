import numpy as np
import pytest

from szego.algebra import Poly, RationalFunction
from szego.blaschke import BlaschkeProduct, from_zeros
from szego.errors import InputError
from szego.forward_map import SpectralData, forward, real_diagnostics
from szego.hankel import DENSE_EIG_MAX, Symbol, resize_symbol
from szego.inverse_map import fourvalue_formula
from szego.verify import random_real_symbol

CIRCLE = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 17)[:-1])


def test_hand_polynomial_spectrum(hand_symbol):
    data = forward(hand_symbol)
    assert np.max(np.abs(data.s - [4.0, 2.0, 1.0])) < 1e-10
    wrapped = np.minimum(data.angles() % (2 * np.pi),
                         2 * np.pi - data.angles() % (2 * np.pi))
    assert np.max(np.abs(wrapped - [0.0, 0.0, np.pi])) < 1e-8
    assert data.degrees == (0, 0, 0, 0)
    assert data.total_degree == 2
    assert abs(data.energy() - 241.0 / 4.0) < 1e-10


def test_rank_one_closed_form(rank_one_symbol):
    data = forward(rank_one_symbol)
    assert data.n == 2
    assert abs(data.s[0] - 1.0) < 1e-9
    assert abs(data.s[1] - 0.5) < 1e-9
    assert all(b.degree == 0 for b in data.psi)


def test_monomial_has_a_multiplicity_two_cluster():
    u = resize_symbol(Symbol(np.array([0.0, 1.0])), 8)
    data, details = forward(u, details=True)
    assert data.n == 1
    assert abs(data.s[0] - 1.0) < 1e-10
    assert data.psi[0].degree == 1
    assert np.max(np.abs(data.psi[0](CIRCLE) - CIRCLE)) < 1e-8
    members_h = [c for c in details.clusters_h if c.member and not c.is_zero]
    assert len(members_h) == 1 and members_h[0].dim == 2
    assert details.zero_in_shifted


def test_zero_on_the_shifted_side_iff_odd_count(hand_symbol, rank_one_symbol):
    _, details_odd = forward(hand_symbol, details=True)
    assert details_odd.zero_in_shifted
    _, details_even = forward(rank_one_symbol, details=True)
    assert not details_even.zero_in_shifted


def test_forward_rejects_zero_symbol():
    with pytest.raises(InputError):
        forward(Symbol(np.zeros(4, dtype=complex)))


def test_spectral_data_validation():
    psi = (BlaschkeProduct.constant(0.0), BlaschkeProduct.constant(0.0))
    with pytest.raises(InputError):
        SpectralData(np.array([1.0, 2.0]), psi)        # increasing
    with pytest.raises(InputError):
        SpectralData(np.array([2.0, -1.0]), psi)       # negative
    with pytest.raises(InputError):
        SpectralData(np.array([2.0]), psi)             # count mismatch


def test_spectral_data_counts():
    data = SpectralData(np.array([3.0, 1.0, 0.5]),
                        (from_zeros(np.array([0.2]), 0.0),
                         BlaschkeProduct.constant(0.0),
                         BlaschkeProduct.constant(1.0)))
    assert data.n == 3
    assert data.q == 2
    assert data.degrees == (1, 0, 0, 0)
    assert data.total_degree == 3
    assert np.allclose(data.interlaced().rho, [3.0, 0.5])
    assert np.allclose(data.interlaced().sigma, [1.0, 0.0])


def test_energy_alternating_sum():
    data = SpectralData(np.array([2.0, 1.0]),
                        (BlaschkeProduct.constant(0.0),
                         BlaschkeProduct.constant(0.0)))
    assert abs(data.energy() - 0.25 * (16.0 - 1.0)) < 1e-14


def test_real_diagnostics_hand_polynomial(hand_symbol):
    rep = real_diagnostics(hand_symbol)
    assert rep.passed, rep.failures
    assert np.allclose(rep.lambdas, [4.0, -1.0], atol=1e-10)
    assert np.allclose(rep.mus, [2.0], atol=1e-10)
    assert np.all(np.isin(np.round(rep.angles / np.pi), [0.0, 1.0, 2.0]))


def test_real_diagnostics_signed_fourvalue():
    u = fourvalue_formula(4.0, -2.0, 1.0, -0.5)
    rep = real_diagnostics(u)
    assert rep.passed, rep.failures
    assert np.allclose(rep.lambdas, [4.0, 1.0], atol=1e-8)
    assert np.allclose(rep.mus, [-2.0, -0.5], atol=1e-8)


def test_real_diagnostics_on_random_draws(rng):
    for _ in range(5):
        rep = real_diagnostics(random_real_symbol(rng))
        assert rep.passed, rep.failures


def test_forward_matches_fourvalue_spectrum():
    u = fourvalue_formula(4.0, 2.0, 1.0, 0.3)
    data = forward(u)
    assert np.max(np.abs(data.s - [4.0, 2.0, 1.0, 0.3])) < 1e-8


def test_matrix_free_path_rank_one_closed_form():
    # 1/(1 - r z) has s = 1/(1 - r**2) on the plain side and r/(1 - r**2)
    # on the shifted side; r = 0.962 resolves at N = 1024, above the cutoff
    r = 0.962
    u = Symbol.from_rational(RationalFunction(Poly([1.0]), Poly([1.0, -r])))
    assert u.n_modes == 1024 > DENSE_EIG_MAX
    data = forward(u)
    expect = np.array([1.0, r]) / (1.0 - r * r)
    assert data.n == 2
    assert np.max(np.abs(data.s - expect)) < 1e-9 * expect[0]
