import numpy as np
import pytest
import scipy.linalg

from szego.algebra import Poly, RationalFunction
from szego.errors import ConsistencyError, InputError, NumericalError
from szego import forward_map
from szego.hankel import (DENSE_EIG_MAX, FastHankel, HankelPair, Symbol,
                          _validate_eigs, build_pair, hankel_matvec,
                          hermitian_eigs, resize_symbol)


def test_fast_hankel_hand_values(hand_symbol):
    m = FastHankel(hand_symbol.coeffs).dense()
    assert np.allclose(m, [[3.0, 2.0], [2.0, 0.0]])


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_fast_hankel_covers_every_window(rng, n):
    # windows of length n (G), n - 1 at size n (G~) and 2n - 1 (the section)
    c = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for op, window in ((FastHankel(c[:n]), c[:n]), (FastHankel(c[1:n], n), c[1:n]),
                       (FastHankel(c, n), c)):
        padded = np.concatenate([window, np.zeros(2 * n - 1 - window.size)])
        want = scipy.linalg.hankel(padded[:n], padded[n - 1:])
        assert np.array_equal(op.dense(), want)
        for xx in (x[:, 0], x):
            assert np.max(np.abs(op.matvec(xx) - op.dense() @ xx)) < 1e-12
        with pytest.raises(InputError, match="vector length"):
            op.matvec(x[1:])


def test_hankel_section_extends_with_exact_coefficients(rank_one_symbol):
    sec = FastHankel(resize_symbol(rank_one_symbol, 5).coeffs, 3).dense()
    expect = np.array([[0.75 * 0.5 ** (i + j) for j in range(3)]
                       for i in range(3)])
    assert np.allclose(sec, expect, atol=1e-14)


def test_hankel_section_rank_is_the_denominator_degree():
    rf = RationalFunction(Poly([0.0, 1.0]), Poly([1.0, 0.0, 0.0, -0.3]))
    u = Symbol.from_rational(rf)
    sv = scipy.linalg.svdvals(FastHankel(resize_symbol(u, 47).coeffs, 24).dense())
    assert int(np.sum(sv > 1e-10 * sv[0])) == 3


def test_matvec_matches_dense(rng):
    c = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    dense = FastHankel(c).dense() @ x
    fast = hankel_matvec(c, x)
    assert np.max(np.abs(dense - fast)) < 1e-12 * np.max(np.abs(dense))


def test_pair_actions_are_antilinear(rng, hand_symbol):
    u = resize_symbol(hand_symbol, 8)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    a = 0.3 - 1.2j
    for act in build_pair(u).actions:
        lhs = act(a * h)
        rhs = np.conj(a) * act(h)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_shifted_square_identity(rng):
    c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    u = Symbol(c)
    pair = build_pair(u)
    # the lifted factors F a0 and F a1 are G and G~ on the range frame
    h2, k2 = ((pair.frame @ a) @ (pair.frame @ a).conj().T for a in (pair.a0, pair.a1))
    correction = np.outer(c, np.conj(c))
    assert np.max(np.abs(k2 - (h2 - correction))) < 1e-10


@pytest.mark.parametrize("n_modes", [64, 2])
def test_rational_pair_is_the_exact_section_on_its_frame(n_modes):
    # rank 3; at 2 modes the frame spans the whole (2-dimensional) space
    rf = RationalFunction(Poly([1.0, 0.5j]), Poly([1.0, -0.9, 0.3, -0.1j]))
    u = Symbol.from_rational(rf, n_modes=n_modes)
    pair = build_pair(u)
    c = rf.taylor(2 * n_modes + 1)
    f = pair.frame
    assert f.shape == (n_modes, min(n_modes, 3)) == (n_modes, pair.a0.shape[0])
    assert np.max(np.abs(f.conj().T @ f - np.eye(f.shape[1]))) < 1e-13
    for a, cc in ((pair.a0, c[:-1]), (pair.a1, c[1:])):
        want = scipy.linalg.hankel(cc[:n_modes], cc[n_modes - 1: 2 * n_modes - 1])
        assert np.max(np.abs(f @ a - want)) < 1e-13 * np.max(np.abs(want))


def test_shifted_action_drops_constant(hand_symbol):
    u = resize_symbol(hand_symbol, 6)
    h = np.zeros(6, dtype=complex)
    h[0] = 1.0
    # K acts through the shifted symbol: first column is (2, 0, 0, ...)
    out = build_pair(u).actions[1](h)
    assert abs(out[0] - 2.0) < 1e-14
    assert np.max(np.abs(out[1:])) < 1e-14


def test_range_pair_builds_its_two_operators_once(monkeypatch):
    # G and G~ find the range frame, give the strips and stay the pair's
    # actions: one forward of a coefficient-only symbol builds each once
    built = []
    init = FastHankel.__init__
    monkeypatch.setattr(FastHankel, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    data = forward_map.forward(Symbol(np.array([3.0, 2.0, 0.5, 0.1])))
    assert data.n > 0
    assert len(built) == 2


def test_range_shifted_action_is_the_shifted_matrix_at_a_large_constant(rng):
    # G~ from its own coefficients: a left shift of G's FFT product would
    # carry rounding at the scale of c_0 = 1e6 into it
    g = np.random.default_rng(3)
    c = (g.standard_normal(1024) + 1j * g.standard_normal(1024)) * 0.5 ** np.arange(1024)
    c[0] = 1e6
    u = Symbol(c)
    h = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    want = FastHankel(c[1:], 1024).dense() @ np.conj(h)
    got = build_pair(u).actions[1](h)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_hermitian_eigs_dense_path(rng):
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    mat = a @ a.conj().T
    sys = hermitian_eigs(a)
    v = sys.vectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-12
    assert np.all(np.diff(sys.values) <= 0)
    res = mat @ v - v * sys.values
    assert np.max(np.abs(res)) < 1e-9 * sys.values[0]


def _hermitian_with_spectrum(rng, values):
    n = values.size
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return (q * values) @ q.conj().T, q


# N = 130 spans three 64-column check blocks: the faults sit past the first


def test_validate_eigs_catches_a_wrong_pair_past_the_first_block(rng):
    values = np.linspace(2.0, 1.0, 130)
    a, q = _hermitian_with_spectrum(rng, values)
    apply_a = lambda x: a @ x
    _validate_eigs(apply_a, values, q, 2.0)
    wrong = values.copy()
    wrong[100] += 1e-6
    with pytest.raises(ConsistencyError, match="eigen residual"):
        _validate_eigs(apply_a, wrong, q, 2.0)


def test_validate_eigs_catches_columns_not_orthogonal_across_blocks(rng):
    values = np.linspace(2.0, 1.0, 130)
    values[129] = values[70]
    a, q = _hermitian_with_spectrum(rng, values)
    # still an eigenvector for the shared value, but no longer orthogonal to q[:, 70]
    bent = q.copy()
    bent[:, 129] = (q[:, 70] + q[:, 129]) / np.sqrt(2.0)
    with pytest.raises(ConsistencyError, match="orthonormality"):
        _validate_eigs(lambda x: a @ x, values, bent, 2.0)


def test_forward_checks_the_shifted_square_identity(monkeypatch, rank_one_symbol):
    # the shifted factor a1 of 2u on u's range frame, with its honest
    # residual: the check after the SVD of a0 must reject it
    u = Symbol(rank_one_symbol.coeffs)

    def mismatched(u):
        pair = build_pair(u)
        a0, a1, b = pair.a0, 2.0 * pair.a1, pair.frame.conj().T @ u.coeffs
        residual = np.linalg.norm(a1 @ a1.conj().T - a0 @ a0.conj().T
                                  + np.outer(b, np.conj(b)))
        return HankelPair(u, a0, a1, float(residual), pair.frame, pair.ops)

    forward_map.forward(u)
    monkeypatch.setattr(forward_map, "build_pair", mismatched)
    with pytest.raises(ConsistencyError, match="shifted-square identity"):
        forward_map.forward(u)


@pytest.mark.parametrize("side", ["plain", "shifted"])
def test_hermitian_eigs_operator_path(rng, side):
    # 700 coefficient-only modes, above the dense cutoff: both factors come
    # as r x N strips on one range frame, and meet the identity
    c = rng.standard_normal(700) + 1j * rng.standard_normal(700)
    c *= 0.5 ** np.arange(700)
    pair = build_pair(Symbol(c))
    assert pair.path == "range" and pair.a0.shape[0] < 100
    a, g = ((pair.a0, FastHankel(c).dense()) if side == "plain"
            else (pair.a1, FastHankel(c[1:], 700).dense()))
    eigs = hermitian_eigs(a)
    top = eigs.values[:4]
    dense = np.linalg.eigvalsh(g @ np.conj(g))[::-1]
    assert np.max(np.abs(top - dense[:4])) < 1e-9 * dense[0]
    assert pair.ku2_residual <= 1e-10 * hermitian_eigs(pair.a0).values[0]
    # the lifted pairs meet hermitian_eigs' bounds against the 700-mode square
    lifted = pair.plain if side == "plain" else pair.shifted
    assert lifted.max_residual <= 1e-10 * eigs.values[0]
    assert lifted.orthonormality <= 1e-12
    assert forward_map.forward(Symbol(c)).n > 0


def test_range_lift_checks_the_pairs_against_the_full_square():
    # a frame that misses a direction of range(G) passes the r x r solve,
    # but its lifted pairs fail against the N-mode square
    u = resize_symbol(Symbol(np.array([3.0, 2.0, 1.0])), 1024)
    pair = build_pair(u)
    assert (pair.path, pair.frame.shape[1]) == ("range", 3)
    pair.plain
    thin = HankelPair(u, pair.a0[:2], pair.a1[:2], 0.0, pair.frame[:, :2], pair.ops)
    with pytest.raises(ConsistencyError, match="eigen residual"):
        thin.plain


def test_full_rank_coefficients_at_the_old_cutoff_take_the_frame(rng):
    # undamped coefficients at 512 modes have full Hankel rank: the frame
    # is no wider than N and both lifted eigensystems meet their bounds
    u = Symbol(rng.standard_normal(DENSE_EIG_MAX) + 1j * rng.standard_normal(DENSE_EIG_MAX))
    pair = build_pair(u)
    assert pair.path == "range" and pair.frame.shape[1] <= DENSE_EIG_MAX
    for lifted in (pair.plain, pair.shifted):
        assert lifted.vectors.shape == (DENSE_EIG_MAX, pair.frame.shape[1])


def test_range_frame_wider_than_the_cap_raises(rng):
    # undamped coefficients have full Hankel rank, beyond any 512-column frame
    u = Symbol(rng.standard_normal(2 * DENSE_EIG_MAX))
    with pytest.raises(NumericalError, match="range frame of width 5[0-9][0-9]"):
        build_pair(u)


def test_from_rational_resolves_geometric():
    u = Symbol.from_rational(RationalFunction(Poly([1.0]), Poly([1.0, -0.9])))
    assert np.allclose(u.coeffs[:5], 0.9 ** np.arange(5))
    assert abs(u.coeffs[-1]) <= 1e-9


def test_from_rational_resolves_just_below_the_cap():
    u = Symbol.from_rational(RationalFunction(Poly([1.0]), Poly([1.0, -0.997])))
    assert u.n_modes == 8192
    assert abs(u.coeffs[-1]) < 1e-10


def test_from_rational_raises_at_the_cap_with_the_tail():
    # the trailing window still holds 0.999**8190 = 2.76e-4 of the top coefficient
    rf = RationalFunction(Poly([1.0]), Poly([1.0, -0.999]))
    with pytest.raises(NumericalError, match="8192 modes.*2.76e-04"):
        Symbol.from_rational(rf)
    assert Symbol.from_rational(rf, n_modes=8192).n_modes == 8192


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


def test_zero_symbol_is_rejected_by_build():
    with pytest.raises(InputError):
        Symbol(np.array([], dtype=complex))
