import warnings

import numpy as np
import pytest
import scipy.linalg

from szego import aak, forward_map, hankel
from szego.algebra import Poly, RationalFunction
from szego.bateman import kappa_squares, tau_squares
from szego.blaschke import BlaschkeProduct, from_zeros
from szego.errors import (AmbiguousClusterWarning, FitError, InputError,
                          NotInnerError, NumericalError, SpectralInconsistencyError)
from szego.forward_map import (SpectralData, cluster_eigenvalues, extract_blaschke,
                               forward, real_diagnostics)
from szego.hankel import (DENSE_EIG_MAX, ZERO_FLOOR_REL, EigenSystem, FastHankel,
                          Symbol, resize_symbol)
from szego.inverse_map import fourvalue_formula, synthesize
from szego.verify import random_blaschke, random_spectral_data

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
    members_h = [c for c in details.clusters_h if c.member]
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
    # the range frame of a zero matrix has no column, and every entry point
    # still refuses the zero symbol with InputError
    for n_modes in (8, 1024):
        u = Symbol(np.zeros(n_modes))
        for run in (forward, real_diagnostics, lambda u: aak.best_approx(u, 1),
                    lambda u: aak.schmidt_vector(hankel.build_pair(u), 1.0)):
            with pytest.raises(InputError):
                run(u)


def test_single_coefficient_symbol():
    data, details = forward(Symbol([0.5]), details=True)
    assert (details.pair.path, details.pair.core_size) == ("range", 1)
    assert data.n == 1 and abs(data.s[0] - 0.5) < 1e-15


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


def test_real_diagnostics_builds_one_pair(monkeypatch):
    # forward hands its pair back, so the signed eigenvalues and the angles
    # share one build_pair, and the pair's eigensystems are solved once
    built, solved = [], []
    build, eigs = forward_map.build_pair, hankel.hermitian_eigs
    monkeypatch.setattr(forward_map, "build_pair", lambda u: built.append(u) or build(u))
    monkeypatch.setattr(hankel, "hermitian_eigs", lambda a: solved.append(a) or eigs(a))
    u = fourvalue_formula(4.0, -2.0, 1.0, -0.5)
    assert real_diagnostics(u).passed
    assert len(built) == 1
    _, details = forward(u, details=True)
    assert (len(built), len(solved)) == (2, 4)
    assert details.pair.plain.values.size and details.pair.shifted.values.size
    assert len(solved) == 4


def test_forward_matches_fourvalue_spectrum():
    u = fourvalue_formula(4.0, 2.0, 1.0, 0.3)
    data = forward(u)
    assert np.max(np.abs(data.s - [4.0, 2.0, 1.0, 0.3])) < 1e-8


def test_projection_norms_match_closed_forms():
    # |P u|^2 on an essential eigenspace is tau^2 (plain) or kappa^2 (shifted)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        drawn, result = random_spectral_data(rng, min_root=1.1)
        data, details = forward(result.u, details=True)
        assert data.n == drawn.n
        v = data.interlaced()
        closed = {"H": iter(tau_squares(v)), "K": iter(kappa_squares(v))}
        for cluster in details.essential:
            want = next(closed[cluster.kind])
            worst = max(worst, abs(cluster.projection_norm ** 2 - want) / want)
    assert worst < 1e-10


def test_matrix_free_path_rank_one_closed_form():
    # 1/(1 - r z) has s = 1/(1 - r**2) on the plain side and r/(1 - r**2)
    # on the shifted side; r = 0.962 resolves at N = 1024, above the cutoff,
    # and the coefficients alone take the range frame
    r = 0.962
    u = Symbol(Symbol.from_rational(
        RationalFunction(Poly([1.0]), Poly([1.0, -r]))).coeffs)
    assert u.n_modes == 1024 > DENSE_EIG_MAX
    data, details = forward(u, details=True)
    assert (details.pair.path, details.pair.core_size) == ("range", 1)
    expect = np.array([1.0, r]) / (1.0 - r * r)
    assert data.n == 2
    assert np.max(np.abs(data.s - expect)) < 1e-9 * expect[0]


def test_constant_symbol_above_the_dense_cutoff():
    # the range frame has one column and the shifted square is zero
    u = resize_symbol(Symbol(np.array([0.5])), 1024)
    assert u.n_modes > DENSE_EIG_MAX
    data, details = forward(u, details=True)
    assert (details.pair.path, details.pair.core_size) == ("range", 1)
    assert data.n == 1
    assert abs(data.s[0] - 0.5) < 1e-12


def test_matrix_free_path_repeats_bitwise():
    u = Symbol(Symbol.from_rational(
        RationalFunction(Poly([1.0]), Poly([1.0, -0.962]))).coeffs)
    first, second = forward(u), forward(u)
    assert np.array_equal(first.s, second.s)
    assert np.array_equal(first.angles(), second.angles())
    for a, b in zip(first.psi, second.psi):
        assert np.array_equal(a.p.coeffs, b.p.coeffs)


def _dense_svdvals(c) -> dict:
    """Singular values of the zero-padded N x N matrix of c ("H") and of its
    shift ("K"), from a dense SVD of the coefficients alone."""
    return {"H": scipy.linalg.svdvals(FastHankel(c).dense()),
            "K": scipy.linalg.svdvals(FastHankel(c[1:], c.size).dense())}


def _dense_gaps(svals, details) -> np.ndarray:
    """Relative distance of each essential value to the nearest dense
    singular value of its side."""
    return np.array([np.min(np.abs(svals[e.kind] - e.s)) / e.s for e in details.essential])


def test_range_frame_sees_a_rank_above_64():
    # a degree-99 polynomial has Hankel rank 100 and its shift rank 99;
    # padded to 1024 modes its values must be those of the dense matrices
    rng = np.random.default_rng(0)
    c = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    framed, details = forward(resize_symbol(Symbol(c), 1024), details=True)
    svals = _dense_svdvals(c)
    s_floor = np.sqrt(details.pair.zero_floor)
    kept = sum(int(np.sum(v > s_floor * svals["H"][0])) for v in svals.values())
    assert details.pair.path == "range"
    assert framed.n == kept > 128
    assert np.max(_dense_gaps(svals, details)) < 1e-8


def test_range_frame_resolves_a_shifted_matrix_far_below_the_plain_one():
    # c_0 = 1e6 over a geometric random tail: s_1(G~) is about 1e-6 s_1(G),
    # and the shifted pairs must still meet their bounds at the scale of G~;
    # the tail is below 1e-38 past 128 modes, so the dense reference stops there
    rng = np.random.default_rng(3)
    c = (rng.standard_normal(1024) + 1j * rng.standard_normal(1024)) * 0.5 ** np.arange(1024)
    c[0] = 1e6
    framed, details = forward(Symbol(c), details=True)
    assert details.pair.path == "range"
    assert framed.n == 2
    assert np.max(_dense_gaps(_dense_svdvals(c[:128]), details)) < 1e-10


@pytest.mark.parametrize("n", [11, 12])
def test_range_frame_of_clustered_poles_stays_narrow(n):
    # s = 10 * 0.5**k with constant factors: a finder tolerance scaled by
    # max ||A w|| / ||w|| alone (about ||A||_F / sqrt(N)) grew an 85-column
    # frame at n = 11 and passed the 512-column cap at n = 12
    s = 10.0 * 0.5 ** np.arange(n)
    data = SpectralData(s, tuple(BlaschkeProduct.constant(0.0) for _ in range(n)))
    back, details = forward(Symbol(synthesize(data).u.coeffs), details=True)
    assert details.pair.path == "range"
    assert details.pair.core_size <= 16
    assert back.n == n
    assert np.max(np.abs(back.s - s)) < 1e-6 * s[0]


def test_rational_core_matches_the_coefficients():
    # the m x m core of the exact section against the coefficients alone on
    # their range frame, and both against dense SVDs of the N x N matrices
    rng = np.random.default_rng(3)
    for _ in range(100):
        _, result = random_spectral_data(rng, min_root=1.1)
        core, details = forward(result.u, details=True)
        framed, framed_details = forward(Symbol(result.u.coeffs), details=True)
        assert details.pair.path == "rational"
        assert details.pair.core_size == result.total_degree
        assert framed_details.pair.path == "range"
        assert core.n == framed.n
        assert np.max(np.abs(core.s - framed.s) / framed.s) < 1e-12
        svals = _dense_svdvals(result.u.coeffs)
        assert np.max(_dense_gaps(svals, framed_details)) < 1e-12
        for a, b in zip(core.psi, framed.psi):
            assert abs(np.angle(np.exp(1j * (a.angle - b.angle)))) < 1e-10
            assert a.degree == b.degree
            assert np.max(np.abs(a.p.coeffs - b.p.coeffs)) < 1e-10


@pytest.mark.parametrize("r, n_modes", [(0.98, 2048), (0.99, 4096)])
def test_rational_core_near_the_circle_forms_no_large_square(monkeypatch, r, n_modes):
    def refuse(arg):
        raise AssertionError("an N x N matrix or a range frame was formed")

    monkeypatch.setattr(hankel.FastHankel, "dense", refuse)
    monkeypatch.setattr(hankel, "_range_frame", refuse)
    u = Symbol.from_rational(RationalFunction(Poly([1.0]), Poly([1.0, -r])))
    assert u.n_modes == n_modes
    data, details = forward(u, details=True)
    assert (details.pair.path, details.pair.core_size) == ("rational", 1)
    expect = np.array([1.0, r]) / (1.0 - r * r)
    assert data.n == 2
    assert np.max(np.abs(data.s - expect) / expect) < 1e-12


def test_rational_core_fits_against_the_exact_section():
    # the core's eigenvectors belong to the exact section, so the inner
    # factors are fitted against its action: against the zero-padded
    # truncation, whose tail 0.9**128 is still 1.4e-6, the fit missed
    u = Symbol.from_rational(RationalFunction(Poly([1.0]), Poly([1.0, -0.9])),
                             n_modes=128)
    data, details = forward(u, details=True)
    assert details.pair.path == "rational"
    expect = np.array([1.0, 0.9]) / (1.0 - 0.81)
    assert data.n == 2
    assert np.max(np.abs(data.s - expect) / expect) < 1e-10
    assert data.degrees == (0, 0)
    assert np.max(np.abs(np.angle(np.exp(1j * data.angles())))) < 1e-10


def test_coefficients_form_no_dense_matrix(certificate_sections):
    # 256 real coefficients of a rank-3 symbol take the range frame in
    # forward, real_diagnostics and best_approx; only the certificate's two
    # exact sections are formed as matrices
    den = Poly([1.0, -0.8]) * Poly([1.0, 0.5]) * Poly([1.0, -0.3])
    rf = RationalFunction(Poly([1.0, 0.2]), den)
    u = Symbol(Symbol.from_rational(rf, n_modes=256).coeffs)
    data, details = forward(u, details=True)
    assert (details.pair.path, details.pair.core_size) == ("range", 3)
    assert data.n == 6
    assert real_diagnostics(u).passed
    cert = aak.best_approx(u, 1).certificate
    assert cert.path == "range"
    assert certificate_sections == [cert.truncation] * 2


def _eigensystem(values, order):
    """Descending values on the coordinate vectors taken in the given order."""
    return EigenSystem(np.array(values, dtype=float),
                       np.eye(len(values), dtype=complex)[:, order], 0.0, 0.0)


@pytest.mark.parametrize("coeffs, h_vals, k_vals, k_order, rule", [
    # u = e0 + e1 sees the plain values 4 and 1 and no shifted value between
    ([1.0, 1.0, 0.0, 0.0], [4, 1, 0, 0], [0, 0, 0, 0], [0, 1, 2, 3],
     "interlacing"),
    # u = e0 sees the plain value 4, whose shifted match has the same dimension
    ([1.0, 0.0, 0.0, 0.0], [4, 0, 0, 0], [4, 0, 0, 0], [1, 0, 2, 3],
     "dims 1 vs 1"),
    # u = e0 sees the plain value 4 of dimension 2 and its shifted match
    ([1.0, 0.0, 0.0, 0.0], [4, 4, 0, 0], [4, 0, 0, 0], [0, 1, 2, 3],
     "both sides"),
])
def test_walk_rejects_what_the_paper_rules_out(monkeypatch, coeffs, h_vals,
                                               k_vals, k_order, rule):
    # a pair on the identity frame whose factors stand in for their own
    # eigensystems, which the pair hands back as they are
    es_h, es_k = _eigensystem(h_vals, [0, 1, 2, 3]), _eigensystem(k_vals, k_order)
    monkeypatch.setattr(forward_map, "build_pair",
                        lambda u: hankel.HankelPair(u, es_h, es_k, 0.0, np.eye(4), ()))
    monkeypatch.setattr(hankel.HankelPair, "plain", property(lambda pair: pair.a0))
    monkeypatch.setattr(hankel.HankelPair, "shifted", property(lambda pair: pair.a1))
    with pytest.raises(SpectralInconsistencyError, match=rule):
        forward(Symbol(np.array(coeffs, dtype=complex)))


def test_cluster_rule_is_relative_to_the_larger_value():
    top = 1.0
    v = 1e-2
    tol = 1e-6 * v + 1e-12 * top       # CLUSTER_REL_TOL * v + ZERO_FLOOR_REL * top

    def groups(eigs):
        return [idx.tolist() for _, idx in cluster_eigenvalues(eigs, top, ZERO_FLOOR_REL)]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert groups([top, v, v - 0.9 * tol]) == [[0], [1, 2]]
        assert groups([top, v, v - 3.5 * tol]) == [[0], [1], [2]]
        # values at or below 1e-12 * top are the kernel
        assert groups([top, 2e-12, 1e-12, 0.0]) == [[0], [1]]
    with pytest.warns(AmbiguousClusterWarning):
        assert groups([top, v, v - 2.0 * tol]) == [[0], [1], [2]]
    value, _ = cluster_eigenvalues([top, v, v - 0.9 * tol], top, ZERO_FLOOR_REL)[1]
    assert value == np.mean([v, v - 0.9 * tol])


def _wide_range_data(rng) -> SpectralData:
    """s_1 = 1 and up to four values in (1e-5, 1), adjacent gaps of 10% or more."""
    n = int(rng.integers(1, 6))
    while True:
        s = np.concatenate([[1.0], np.sort(10.0 ** rng.uniform(-5.0, 0.0, n - 1))[::-1]])
        if np.all(s[1:] <= 0.9 * s[:-1]):
            break
    return SpectralData(s, tuple(random_blaschke(rng, 1) for _ in range(n)))


def test_forward_never_returns_a_shorter_spectrum():
    # every data set comes back whole on the rational core and on the range
    # frame of its coefficients alone, at their own size and padded to 1024
    # modes, or the analysis raises a named numerical error
    rng = np.random.default_rng(0)
    legs = {("rational", "N"): lambda u: u,
            ("range", "N"): lambda u: Symbol(u.coeffs),
            ("range", 1024): lambda u: Symbol(resize_symbol(u, 1024).coeffs)}
    whole = dict.fromkeys(legs, 0)
    for _ in range(60):
        data = _wide_range_data(rng)
        try:
            u = synthesize(data).u
        except NumericalError:
            continue
        for leg, symbol_of in legs.items():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", AmbiguousClusterWarning)
                    back, details = forward(symbol_of(u), details=True)
            except NumericalError:
                continue
            assert details.pair.path == leg[0]
            assert back.n == data.n
            assert np.all(np.abs(back.s - data.s) <= 1e-6 * data.s)
            whole[leg] += 1
    assert min(whole.values()) == 60


def _inner_ratio_stack(rng, factors, n_modes=32):
    """Coefficient rows whose circle ratios are the given inner factors.

    Row r holds phase * P * g and D * g for a random g without zeros on
    the closed disc, so the ratio num/den is exactly the factor.
    """
    num = np.zeros((len(factors), n_modes), dtype=complex)
    den = np.zeros_like(num)
    for r, b in enumerate(factors):
        g = np.array([1.0, 0.4 * np.exp(2j * np.pi * rng.random())])
        p = np.convolve(b.phase * b.p.coeffs, g)
        d = np.convolve(b.d.coeffs, g)
        num[r, : p.size], den[r, : d.size] = p, d
    return num, den


def test_stacked_inner_factors_match_row_by_row_fits(rng):
    factors = [from_zeros([0.3 * np.exp(1j * t)], a)
               for t, a in ((0.2, 0.5), (2.0, 4.0), (4.1, 1.3), (5.5, 0.0))]
    num, den = _inner_ratio_stack(rng, factors)
    stacked = extract_blaschke(num, den, 2)
    for r, b in enumerate(stacked):
        (single,) = extract_blaschke(num[r: r + 1], den[r: r + 1], 2)
        assert abs(b.angle - single.angle) < 1e-13
        assert np.max(np.abs(b.p.coeffs - single.p.coeffs)) < 1e-13
        assert abs(np.exp(1j * b.angle) - np.exp(1j * factors[r].angle)) < 1e-10
        assert np.max(np.abs(b.p.coeffs - factors[r].p.coeffs)) < 1e-10


def test_batch_error_names_the_row_that_is_not_inner(rng):
    factors = [from_zeros([0.3], 0.5), from_zeros([-0.2j], 1.0), from_zeros([0.1], 2.0)]
    num, den = _inner_ratio_stack(rng, factors)
    num[1] *= 2.0               # row 1's ratio has modulus 2 on the circle
    with pytest.raises(NotInnerError,
                       match=r"^row 1: leading coefficient modulus 2\.000000 is not 1$"):
        extract_blaschke(num, den, 2)


def _two_dimension_spectrum():
    """q = 3 data whose clusters have dimensions 1 (constant factors) and 2."""
    psi = tuple(from_zeros([0.3j], 0.7) if r in (1, 4) else BlaschkeProduct.constant(0.4 * r)
                for r in range(5))
    return SpectralData(np.array([6.0, 4.0, 2.0, 1.2, 0.6]), psi)


def test_forward_fits_one_batch_per_cluster_dimension(monkeypatch):
    data = _two_dimension_spectrum()
    u = synthesize(data).u
    dims = []
    original = forward_map.extract_blaschke

    def counted(num_vecs, den_vecs, m, *args):
        dims.append(m)
        return original(num_vecs, den_vecs, m, *args)

    monkeypatch.setattr(forward_map, "extract_blaschke", counted)
    back = forward(u)
    assert sorted(dims) == [1, 2]
    assert back.degrees == data.degrees
    assert np.max(np.abs(back.s - data.s)) < 1e-10
    assert np.max(np.abs(np.exp(1j * back.angles()) - np.exp(1j * data.angles()))) < 1e-10


def test_forward_batch_errors_name_the_value(monkeypatch):
    u = synthesize(_two_dimension_spectrum()).u
    _, info = forward(u, details=True)
    plain, shifted = info.pair.actions
    # a shifted action that reverses its image has no low-degree ratio
    monkeypatch.setattr(hankel.HankelPair, "actions",
                        property(lambda pair: (plain, lambda h: shifted(h)[::-1])))
    with pytest.raises(FitError, match=r"^value r = 4 \(s_r = 1\.2, shifted side\): "
                                       r"ratio fit residual"):
        forward(u)
