import numpy as np
import pytest
import scipy.linalg

from szego.algebra import Poly, RationalFunction
from szego.errors import ConsistencyError, InputError
from szego.hankel import (Symbol, apply_H, apply_K, build_pair,
                          check_shifted_square, dense_hankel, dense_square,
                          hankel_matvec, hankel_section, hermitian_eigs,
                          resize_symbol, shift_symbol, shifted_coeffs,
                          square_operator)


def test_dense_hankel_hand_values(hand_symbol):
    m = dense_hankel(hand_symbol.coeffs)
    assert np.allclose(m, [[3.0, 2.0], [2.0, 0.0]])


def test_hankel_section_extends_with_exact_coefficients(rank_one_symbol):
    sec = hankel_section(rank_one_symbol, 3)
    expect = np.array([[0.75 * 0.5 ** (i + j) for j in range(3)]
                       for i in range(3)])
    assert np.allclose(sec, expect, atol=1e-14)


def test_hankel_section_rank_is_the_denominator_degree():
    rf = RationalFunction(Poly([0.0, 1.0]), Poly([1.0, 0.0, 0.0, -0.3]))
    u = Symbol.from_rational(rf)
    sv = scipy.linalg.svdvals(hankel_section(u, 24))
    assert int(np.sum(sv > 1e-10 * sv[0])) == 3


def test_matvec_matches_dense(rng):
    c = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    dense = dense_hankel(c) @ x
    fast = hankel_matvec(c, x)
    assert np.max(np.abs(dense - fast)) < 1e-12 * np.max(np.abs(dense))


def test_apply_h_is_antilinear(rng, hand_symbol):
    u = resize_symbol(hand_symbol, 8)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    a = 0.3 - 1.2j
    lhs = apply_H(u, a * h)
    rhs = np.conj(a) * apply_H(u, h)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_shifted_square_identity(rng):
    c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    u = Symbol(c)
    pair = build_pair(u)
    correction = np.outer(c, np.conj(c))
    assert np.max(np.abs(pair.k2 - (pair.h2 - correction))) < 1e-10


def test_matrix_free_shifted_square_identity(rng):
    c = rng.standard_normal(600) + 1j * rng.standard_normal(600)
    c *= 0.9 ** np.arange(600)
    h2 = square_operator(c)
    k2 = square_operator(shifted_coeffs(Symbol(c)))
    top = hermitian_eigs(h2, k=1).values[0]
    assert check_shifted_square(h2, k2, c, top) <= 1e-10 * top
    # the shift of a different symbol breaks the identity
    other = square_operator(np.concatenate([c[2:], [0.0, 0.0]]))
    with pytest.raises(ConsistencyError):
        check_shifted_square(h2, other, c, top)


def test_apply_k_drops_constant(hand_symbol):
    u = resize_symbol(hand_symbol, 6)
    h = np.zeros(6, dtype=complex)
    h[0] = 1.0
    # K acts through the shifted symbol: first column is (2, 0, 0, ...)
    out = apply_K(u, h)
    assert abs(out[0] - 2.0) < 1e-14
    assert np.max(np.abs(out[1:])) < 1e-14


def test_hermitian_eigs_dense_path(rng):
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    mat = a @ a.conj().T
    sys = hermitian_eigs(mat)
    v = sys.vectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-12
    assert np.all(np.diff(sys.values) <= 0)
    res = mat @ v - v * sys.values
    assert np.max(np.abs(res)) < 1e-9 * sys.values[0]


def test_hermitian_eigs_dense_matrix_takes_no_k(rng):
    a = rng.standard_normal((8, 8))
    with pytest.raises(InputError):
        hermitian_eigs(a @ a.T, k=2)
    with pytest.raises(InputError):
        hermitian_eigs(square_operator(rng.standard_normal(8)))


@pytest.mark.parametrize("coeffs_of", [lambda u: u.coeffs, shifted_coeffs],
                         ids=["plain", "shifted"])
def test_hermitian_eigs_operator_path(rng, coeffs_of):
    c = rng.standard_normal(700) + 1j * rng.standard_normal(700)
    c *= 0.5 ** np.arange(700)
    cc = coeffs_of(Symbol(c))
    top = hermitian_eigs(square_operator(cc), k=4)
    dense = np.linalg.eigvalsh(dense_hankel(cc) @ np.conj(dense_hankel(cc)))[::-1]
    assert np.max(np.abs(top.values - dense[:4])) < 1e-9 * dense[0]


def test_dense_square_is_the_hermitian_square(rng):
    c = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    gamma = dense_hankel(c)
    direct = gamma @ gamma.conj().T
    sq = dense_square(c)
    assert np.max(np.abs(sq - direct)) <= 1e-12 * np.max(np.abs(direct))
    assert np.array_equal(sq, sq.conj().T)


def test_from_rational_resolves_geometric():
    u = Symbol.from_rational(RationalFunction(Poly([1.0]), Poly([1.0, -0.9])))
    assert u.resolved
    assert np.allclose(u.coeffs[:5], 0.9 ** np.arange(5))
    assert abs(u.coeffs[-1]) <= 1e-9


def test_from_rational_handles_sparse_coefficient_support():
    # support 1, 4, 7, ...: a single trailing zero must not stop the expansion
    rf = RationalFunction(Poly([0.0, 1.0]), Poly([1.0, 0.0, 0.0, -0.3]))
    u = Symbol.from_rational(rf)
    j = np.arange(u.n_modes)
    expect = np.where(j % 3 == 1, 0.3 ** (j // 3), 0.0)
    assert np.allclose(u.coeffs, expect, atol=1e-14)
    assert u.n_modes >= 64


def test_resize_symbol_extends_rational(rank_one_symbol):
    big = resize_symbol(rank_one_symbol, 2 * rank_one_symbol.n_modes)
    j = np.arange(big.n_modes)
    assert np.allclose(big.coeffs, 0.75 * 0.5 ** j, atol=1e-14)
    assert big.rational is not None


def test_resize_symbol_truncation_drops_rational(rank_one_symbol):
    small = resize_symbol(rank_one_symbol, 3)
    assert small.n_modes == 3
    assert small.rational is None
    assert np.allclose(small.coeffs, [0.75, 0.375, 0.1875])


def test_shift_symbol(hand_symbol):
    shifted = shift_symbol(resize_symbol(hand_symbol, 4))
    assert np.allclose(shifted.coeffs, [2.0, 0.0, 0.0])
    with pytest.raises(InputError):
        shift_symbol(Symbol(np.array([1.0])))


def test_zero_symbol_is_rejected_by_build():
    with pytest.raises(InputError):
        Symbol(np.array([], dtype=complex))
