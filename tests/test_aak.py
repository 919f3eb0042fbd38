import numpy as np
import pytest
import scipy.linalg

from szego import aak, hankel
from szego.algebra import Poly, RationalFunction
from szego.aak import (SchmidtVector, best_approx, perturbation_sanity,
                       ratio_certificate, schmidt_vector)
from szego.errors import InputError, NumericalError
from szego.forward_map import forward
from szego.hankel import FastHankel, Symbol, build_pair, resize_symbol
from szego.verify import random_low_rank


def _rational(num, poles) -> Symbol:
    den = np.ones(1, dtype=complex)
    for a in poles:
        den = np.convolve(den, [1.0, -a])
    return Symbol.from_rational(
        RationalFunction(Poly(num), Poly(den), check_coprime=False))


def test_hand_best_rank_one(hand_symbol):
    result = best_approx(hand_symbol, 1)
    assert abs(result.s - 1.0) < 1e-10
    cert = result.certificate
    assert abs(cert.op_norm - 1.0) < 1e-7
    assert cert.rank == 1
    assert cert.phi_unimodularity < 1e-8
    assert cert.tail < 1e-8
    got = result.r.coeffs[:6]
    assert np.max(np.abs(got - 3.0 * 0.5 ** np.arange(6))) < 1e-8


def test_k_at_least_the_rank_is_exact(hand_symbol):
    result = best_approx(hand_symbol, 2)
    assert result.s == 0.0
    assert np.max(np.abs(result.r.coeffs[:2] - [3.0, 2.0])) < 1e-12
    assert result.certificate.op_norm < 1e-10 * 4.0


def test_order_below_one_rejected(hand_symbol):
    with pytest.raises(InputError):
        best_approx(hand_symbol, 0)
    with pytest.raises(InputError):
        best_approx(hand_symbol, -1)


def test_tail_beyond_the_cap_raises_before_any_eigensolve(monkeypatch):
    # 1/(1 - 0.997 z) reaches the 1e-14 tail only near 10700 modes
    u = Symbol.from_rational(
        RationalFunction(Poly([1.0]), Poly([1.0, -0.997])))
    assert u.n_modes == 8192

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("best_approx started an eigensolve")

    monkeypatch.setattr(hankel, "hermitian_eigs", no_eigensolve)
    monkeypatch.setattr(hankel.FastHankel, "dense", no_eigensolve)
    monkeypatch.setattr(aak, "build_pair", no_eigensolve)
    with pytest.raises(NumericalError, match="cap of 8192 modes"):
        best_approx(u, 1)


def test_schmidt_vector_vanishing_on_the_grid_raises(monkeypatch, hand_symbol):
    # h = (1 - z) / sqrt(2) vanishes at z = 1, a point of every grid
    h = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    monkeypatch.setattr(aak, "schmidt_vector",
                        lambda pair, s: SchmidtVector(s, h, 0.0))
    with pytest.raises(NumericalError, match="vanishes on the circle grid"):
        best_approx(hand_symbol, 1)


def test_schmidt_vector_hand(hand_symbol):
    sv = schmidt_vector(build_pair(resize_symbol(hand_symbol, 8)), 4.0)
    assert sv.residual < 1e-9 * 4.0
    direction = np.array([2.0, 1.0]) / np.sqrt(5.0)
    overlap = abs(np.vdot(sv.h[:2], direction))
    assert abs(overlap - 1.0) < 1e-10
    assert np.max(np.abs(sv.h[2:])) < 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e-4])
def test_schmidt_vector_off_the_spectrum_raises_at_any_scale(scale):
    # the singular values of 3 + 2z are 4 and 1; 1.5 is neither
    u = resize_symbol(Symbol(scale * np.array([3.0, 2.0])), 8)
    with pytest.raises(InputError, match="not an eigenvalue"):
        schmidt_vector(build_pair(u), 1.5 * scale)


def test_schmidt_vector_of_a_rational_symbol_uses_the_core(monkeypatch,
                                                          rank_one_symbol):
    def refuse(op):
        raise AssertionError("an N x N matrix was formed")

    monkeypatch.setattr(hankel.FastHankel, "dense", refuse)
    sv = schmidt_vector(build_pair(rank_one_symbol), 1.0)
    assert sv.h.size == rank_one_symbol.n_modes
    assert sv.residual < 1e-9


def test_schmidt_vector_of_an_unresolved_rational_symbol_uses_its_section():
    # 128 modes of 1/(1 - 0.9 z) leave a tail of 0.9**128 = 1.4e-6: the core's
    # eigenvector belongs to the exact section, not to the zero-padded truncation
    rf = RationalFunction(Poly([1.0]), Poly([1.0, -0.9]))
    s = 1.0 / (1.0 - 0.81)
    sv = schmidt_vector(build_pair(Symbol(rf.taylor(128), rational=rf)), s)
    assert sv.residual < 1e-9 * s


@pytest.mark.parametrize("make", [
    lambda: _rational([1.0, 0.4j], [0.9 * np.exp(0.7j), -0.5]),
    lambda: _rational([0.5, -1.0, 0.3], [0.85j, 0.9 * np.exp(2.2j), 0.4]),
    *(lambda seed=seed: random_low_rank(np.random.default_rng(seed))
      for seed in (1, 2, 3, 4)),
], ids=["rank2", "rank3", "low-rank-1", "low-rank-2", "low-rank-3", "low-rank-4"])
def test_best_approx_core_matches_the_dense_path(make):
    # the core against the same coefficients alone on their range frame,
    # and s against a dense SVD of the N x N truncation
    u = make()
    core = best_approx(u, 1)
    n_work = core.certificate.truncation
    c = resize_symbol(u, n_work).coeffs
    framed = best_approx(Symbol(c), 1)
    dense_s = scipy.linalg.svdvals(FastHankel(c).dense())[1]
    assert (core.certificate.path, core.certificate.core_size) == (
        "rational", u.rational.rank_bound)
    assert framed.certificate.path == "range"
    assert abs(core.s - dense_s) <= 1e-12 * dense_s
    assert abs(framed.s - dense_s) <= 1e-12 * dense_s
    r_gap = np.linalg.norm(core.r.coeffs - framed.r.coeffs)
    assert r_gap <= 1e-12 * np.linalg.norm(framed.r.coeffs)
    op_gap = abs(core.certificate.op_norm - framed.certificate.op_norm)
    assert op_gap <= 1e-12 * framed.certificate.op_norm
    assert core.certificate.rank == framed.certificate.rank
    assert framed.certificate.truncation == n_work


def test_best_approx_of_coefficients_above_the_cutoff_matches_the_core():
    # the 1024 coefficients alone take the range frame: rank 2, as the core
    u = _rational([1.0, 0.3j], [0.96 * np.exp(1.1j), 0.6])
    core = best_approx(u, 1)
    n_work = core.certificate.truncation
    framed = best_approx(Symbol(resize_symbol(u, n_work).coeffs), 1)
    assert n_work == 1024
    assert (framed.certificate.path, framed.certificate.core_size) == ("range", 2)
    assert abs(framed.s - core.s) <= 1e-12 * core.s
    # the dense N x N square of the same coefficients gives r to 3.05e-12
    r_gap = np.linalg.norm(framed.r.coeffs - core.r.coeffs)
    assert r_gap <= 1e-11 * np.linalg.norm(core.r.coeffs)
    op_gap = abs(framed.certificate.op_norm - core.certificate.op_norm)
    assert op_gap <= 1e-12 * core.certificate.op_norm
    assert framed.certificate.rank == core.certificate.rank


def test_zero_coefficients_above_the_cutoff_are_rejected():
    # the range frame of a zero matrix has no column, so a0 is 0 x N
    with pytest.raises(InputError, match="numerically zero"):
        best_approx(Symbol(np.zeros(1024)), 1)
    with pytest.raises(InputError, match="zero symbol has no eigenvalue"):
        schmidt_vector(build_pair(Symbol(np.zeros(1024))), 1.0)


def test_rational_symbol_forms_no_square(monkeypatch, certificate_sections):
    # the certificate's two exact sections are the only matrices formed
    sizes = []
    eigs = hankel.hermitian_eigs
    monkeypatch.setattr(hankel, "hermitian_eigs",
                        lambda a: sizes.append(a.shape[0]) or eigs(a))
    u = _rational([1.0, 0.3j], [0.96 * np.exp(1.1j), 0.6])
    assert u.n_modes == 1024
    cert = best_approx(u, 1).certificate
    assert (cert.path, cert.core_size) == ("rational", 2)
    assert sizes == [2]
    assert cert.truncation == 1024
    assert certificate_sections == [1024, 1024]
    assert cert.distance_gap < 1e-7


def test_subtracted_piece_has_the_gap_norm(hand_symbol):
    result = best_approx(hand_symbol, 1)
    n = max(result.u.n_modes, result.r.n_modes)
    u_pad = np.concatenate([result.u.coeffs,
                            np.zeros(n - result.u.n_modes, dtype=complex)])
    r_pad = np.concatenate([result.r.coeffs,
                            np.zeros(n - result.r.n_modes, dtype=complex)])
    assert abs(np.linalg.norm(result.subtracted.coeffs) -
               np.linalg.norm(u_pad - r_pad)) < 1e-8


def test_perturbation_sanity_hand(hand_symbol):
    result = best_approx(hand_symbol, 1)
    worst = perturbation_sanity(result)
    assert worst >= result.s * (1.0 - 1e-7)


def test_ratio_certificate_monomial():
    u = resize_symbol(Symbol(np.array([0.0, 1.0])), 8)
    _, details = forward(u, details=True)
    cluster = next(c for c in details.clusters_h if c.member)
    samples = ratio_certificate(details, cluster)
    for sample in samples:
        assert sample.fit_residual < 1e-6
        assert sample.unimodularity < 1e-6
        assert sample.reflection_gap < 1e-6


def test_ratio_certificate_rejects_shifted_clusters(hand_symbol):
    u = resize_symbol(hand_symbol, 8)
    _, details = forward(u, details=True)
    k_member = next(c for c in details.clusters_k if c.member)
    with pytest.raises(InputError):
        ratio_certificate(details, k_member)


def test_ratio_certificate_fits_against_the_exact_section():
    # the core's cluster comes from the exact section; against the
    # zero-padded truncation (tail 0.9**128 = 1.4e-6) the fit missed
    u = Symbol.from_rational(RationalFunction(Poly([1.0]), Poly([1.0, -0.9])),
                             n_modes=128)
    _, details = forward(u, details=True)
    assert details.pair.path == "rational"
    cluster = next(c for c in details.clusters_h if c.member)
    samples = ratio_certificate(details, cluster)
    assert len(samples) == 3
    for sample in samples:
        assert sample.fit_residual < 1e-6
        assert sample.unimodularity < 1e-6
        assert sample.reflection_gap < 1e-6
