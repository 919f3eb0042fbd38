import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from szego import algebra
from szego.algebra import (Poly, RationalFunction, fit_rational_samples,
                           grid_transform, next_pow2, polymatrix_det_minors,
                           reflect_coeffs, root_free_on_closed_disc,
                           series_divide, trim_coeffs)
from szego.errors import InputError, NotAnalyticError


# 1 - 2z + 1e-3 z**65 has a root near 0.5, while 1 - 0.5z + 1e-3 z**65
# has none on the closed disc, where |1 - 0.5z| >= 0.5 (Rouche)
HIGH_DEGREE_ROOT_AT_HALF = np.zeros(66)
HIGH_DEGREE_ROOT_AT_HALF[[0, 1, 65]] = [1.0, -2.0, 1e-3]
HIGH_DEGREE_ROOT_FREE = np.zeros(66)
HIGH_DEGREE_ROOT_FREE[[0, 1, 65]] = [1.0, -0.5, 1e-3]


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(17) == 32


def test_trim_drops_trailing_zeros():
    assert trim_coeffs([1.0, 2.0, 0.0, 0.0]).size == 2
    # the zero polynomial is stored with no coefficients at all
    assert trim_coeffs([0.0]).size == 0
    assert Poly.zero().coeffs.size == 0


def test_poly_arithmetic_and_eval():
    p = Poly([1.0, 2.0])          # 1 + 2z
    q = Poly([3.0, 1.0])          # 3 + z
    prod = p * q
    assert np.allclose(prod.coeffs, [3.0, 7.0, 2.0])
    assert prod.degree == 2
    z = 0.3 + 0.1j
    assert abs(prod(z) - p(z) * q(z)) < 1e-14
    assert np.allclose((p + q).coeffs, [4.0, 3.0])
    assert np.allclose((p - q).coeffs, [-2.0, 1.0])
    assert np.allclose((2.0 * p).coeffs, [2.0, 4.0])


def test_poly_degree_after_cancellation():
    p = Poly([1.0, 1.0]) - Poly([0.0, 1.0])
    assert p.degree == 0
    assert bool(Poly.zero()) is False
    assert bool(Poly.one()) is True


def test_poly_roots_match_construction():
    roots = np.array([0.5, -0.25 + 0.3j, 1.5])
    c = np.ones(1, dtype=complex)
    for a in roots:
        c = np.convolve(c, [-a, 1.0])
    got = np.sort_complex(Poly(c).roots())
    assert np.allclose(got, np.sort_complex(roots), atol=1e-10)


def test_reflect_coeffs_hand_value():
    # reflect(p, d)(z) = z^d * conj(p(1 / conj(z)))
    r = reflect_coeffs(np.array([1.0, -0.5j]), 1)
    assert np.allclose(r, [0.5j, 1.0])
    # degree padding: reflecting a constant at d = 2 gives c* z^2
    r2 = reflect_coeffs(np.array([2.0 + 1.0j]), 2)
    assert np.allclose(r2, [0.0, 0.0, 2.0 - 1.0j])


@given(st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=6))
@example([1e-12 + 1e-12j, 2.0])
@settings(max_examples=50, deadline=None)
def test_reflect_coeffs_is_an_involution(coeffs):
    c = np.array(coeffs, dtype=complex)
    d = c.size - 1
    back = reflect_coeffs(reflect_coeffs(c, d), d)
    assert np.allclose(np.pad(back, (0, d + 1 - back.size)), c, atol=1e-12)


@given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5),
       st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_poly_multiplication_commutes(a, b):
    p, q = Poly(np.array(a)), Poly(np.array(b))
    left, right = p * q, q * p
    n = max(left.coeffs.size, right.coeffs.size)
    assert np.allclose(left.padded(n), right.padded(n), atol=1e-9)


def test_root_free_on_closed_disc():
    assert root_free_on_closed_disc(np.array([1.0, -0.5]))      # root at 2
    assert not root_free_on_closed_disc(np.array([1.0, -2.0]))  # root at 0.5
    assert not root_free_on_closed_disc(np.array([1.0, -1.0]), margin=1e-6)
    assert root_free_on_closed_disc(np.array([2.0]))
    assert not root_free_on_closed_disc(np.zeros(0))
    # above degree 64 the roots inside the disc are counted
    assert root_free_on_closed_disc(HIGH_DEGREE_ROOT_FREE)
    assert not root_free_on_closed_disc(HIGH_DEGREE_ROOT_AT_HALF)


def test_series_divide_runs_the_recurrence_on_every_column():
    rhs = np.zeros((6, 2), dtype=complex, order="F")
    rhs[0] = [1.0, 2.0j]
    out = series_divide(rhs, np.array([1.0, -0.5], dtype=complex))
    geometric = 0.5 ** np.arange(6)
    assert np.allclose(out, np.outer(geometric, [1.0, 2.0j]), atol=1e-15)


def test_rational_taylor_geometric():
    rf = RationalFunction(Poly([1.0]), Poly([1.0, -0.5]))
    assert np.allclose(rf.taylor(8), 0.5 ** np.arange(8))
    z = 0.2 + 0.1j
    assert abs(rf(z) - 1.0 / (1.0 - 0.5 * z)) < 1e-14


def test_rational_taylor_matches_the_recurrence(rng):
    for _ in range(20):
        roots = (1.05 + 2 * rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
        den = np.poly(roots)[::-1]
        num = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        rf = RationalFunction(Poly(num), Poly(den / den[0]), check_coprime=False)
        n = int(rng.integers(1, 300))
        a, b = rf.num.padded(n + 5)[:n], rf.den.padded(n + 5)
        c = np.zeros(n, dtype=complex)
        for k in range(n):
            c[k] = a[k] - np.dot(b[1: k + 1][:3], c[:k][::-1][:3])
        got = rf.taylor(n)
        assert got.shape == (n,)
        assert np.max(np.abs(got - c)) <= 1e-13 * np.max(np.abs(c))


def test_rational_taylor_shorter_than_numerator_or_denominator():
    rf = RationalFunction(Poly([1.0]), Poly([1.0, -0.5]))
    assert np.array_equal(rf.taylor(1), [1.0])
    wide = RationalFunction(Poly([1.0, 2.0, 3.0]), Poly([1.0, -0.5]))
    assert np.allclose(wide.taylor(2), [1.0, 2.5])
    assert rf.taylor(0).size == 0


def test_rational_rejects_pole_inside_disc():
    with pytest.raises(NotAnalyticError):
        RationalFunction(Poly([1.0]), Poly([1.0, -2.0]))
    with pytest.raises(NotAnalyticError):
        RationalFunction(Poly([1.0]), Poly(HIGH_DEGREE_ROOT_AT_HALF))


def test_rational_normalizes_denominator_at_zero():
    rf = RationalFunction(Poly([2.0]), Poly([2.0, -1.0]))
    assert abs(rf.den.coeffs[0] - 1.0) < 1e-14
    assert np.allclose(rf.taylor(4), 0.5 ** np.arange(4))


def test_grid_transform_interpolate_roundtrip(rng):
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = Poly(c)
    grid = grid_transform(p.coeffs, 16)
    back = np.fft.fft(grid) / grid.size
    assert np.allclose(back[:6], c, atol=1e-12)
    assert np.allclose(back[6:], 0.0, atol=1e-12)


def test_polymatrix_det_matches_pointwise(rng, monkeypatch):
    # every (k, j) minor pins the index layout of the batched determinants
    for q in (1, 3, 4):
        coeffs = rng.standard_normal((q, q, 3)) + 1j * rng.standard_normal((q, q, 3))
        entries = [list(row) for row in coeffs]
        det, minors = polymatrix_det_minors(entries, degree_bound=q * 2)
        m = next_pow2(4 * q + 2)
        assert det.shape == (m,) and minors.shape == (m, q, q)
        for i, z in enumerate(np.exp(2j * np.pi * np.arange(m) / m)):
            mat = npoly.polyval(z, coeffs.transpose(2, 0, 1))
            want = np.linalg.det(mat)
            assert abs(det[i] - want) < 1e-9 * max(1.0, abs(want))
            for k in range(q):
                for j in range(q):
                    sub = np.delete(np.delete(mat, k, axis=0), j, axis=1)
                    assert abs(minors[i, k, j] - np.linalg.det(sub)) < 1e-9
        # one row of minors per batched det gives the same samples
        monkeypatch.setattr(algebra, "MINOR_BLOCK_BYTES", 1)
        det_rows, minors_rows = polymatrix_det_minors(entries, degree_bound=q * 2)
        monkeypatch.undo()
        assert np.array_equal(det, det_rows)
        assert np.array_equal(minors, minors_rows)


def test_polymatrix_det_rejects_ragged_input():
    with pytest.raises(InputError):
        polymatrix_det_minors([[np.ones(1)], [np.ones(1), np.ones(1)]], 1)


def _rational_samples(rng, rows, size):
    """Samples at the size-th roots of unity of rows random (2, 2) rational functions."""
    z = np.exp(2j * np.pi * np.arange(size) / size)
    num = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
    den = np.ones((rows, 3), dtype=complex)
    den[:, 1:] = 0.3 * (rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2)))
    values = npoly.polyval(z, num.T) / npoly.polyval(z, den.T)
    return z, values + 1e-9 * rng.standard_normal(values.shape)


def test_stacked_rational_fit_matches_row_by_row_fits(rng):
    z, values = _rational_samples(rng, 4, 64)
    num, den, residual = fit_rational_samples(z, values, 2, 2)
    assert num.shape == (4, 3) and den.shape == (4, 3) and residual.shape == (4,)
    for r in range(4):
        (num_r,), (den_r,), (res_r,) = fit_rational_samples(z, values[r:r + 1], 2, 2)
        assert np.max(np.abs(num[r] - num_r)) < 1e-13
        assert np.max(np.abs(den[r] - den_r)) < 1e-13
        assert abs(residual[r] - res_r) < 1e-13


def test_masked_samples_fit_as_if_dropped(rng):
    z, values = _rational_samples(rng, 3, 64)
    use = rng.random(values.shape) > 0.3
    values[~use] = np.nan       # a masked sample is ignored, whatever it holds
    num, den, residual = fit_rational_samples(z, values, 2, 2, use=use)
    for r in range(3):
        (num_r,), (den_r,), (res_r,) = fit_rational_samples(
            z[use[r]], values[r, use[r]][None], 2, 2)
        assert np.max(np.abs(num[r] - num_r)) < 1e-13
        assert np.max(np.abs(den[r] - den_r)) < 1e-13
        assert abs(residual[r] - res_r) < 1e-13
