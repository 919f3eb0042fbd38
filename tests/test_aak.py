import numpy as np
import pytest

from szego import aak
from szego.algebra import Poly, RationalFunction
from szego.aak import (SchmidtVector, best_approx, perturbation_sanity,
                       ratio_certificate, schmidt_vector)
from szego.errors import InputError, NumericalError
from szego.forward_map import forward
from szego.hankel import Symbol, resize_symbol


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

    monkeypatch.setattr(aak, "hermitian_eigs", no_eigensolve)
    monkeypatch.setattr(aak, "dense_square", no_eigensolve)
    with pytest.raises(NumericalError, match="cap of 8192 modes"):
        best_approx(u, 1)


def test_schmidt_vector_vanishing_on_the_grid_raises(monkeypatch, hand_symbol):
    # h = (1 - z) / sqrt(2) vanishes at z = 1, a point of every grid
    h = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    monkeypatch.setattr(aak, "schmidt_vector",
                        lambda u, s, eigs: SchmidtVector(s, h, 0.0))
    with pytest.raises(NumericalError, match="vanishes on the circle grid"):
        best_approx(hand_symbol, 1)


def test_schmidt_vector_hand(hand_symbol):
    sv = schmidt_vector(resize_symbol(hand_symbol, 8), 4.0)
    assert sv.residual < 1e-9 * 4.0
    direction = np.array([2.0, 1.0]) / np.sqrt(5.0)
    overlap = abs(np.vdot(sv.h[:2], direction))
    assert abs(overlap - 1.0) < 1e-10
    assert np.max(np.abs(sv.h[2:])) < 1e-10


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
    worst = perturbation_sanity(result, n_samples=50)
    assert worst >= result.s * (1.0 - 1e-7)


def test_ratio_certificate_monomial():
    u = resize_symbol(Symbol(np.array([0.0, 1.0])), 8)
    _, details = forward(u, details=True)
    cluster = next(c for c in details.clusters_h if c.member)
    samples = ratio_certificate(u, cluster)
    for sample in samples:
        assert sample.fit_residual < 1e-6
        assert sample.unimodularity < 1e-6
        assert sample.reflection_gap < 1e-6


def test_ratio_certificate_rejects_shifted_clusters(hand_symbol):
    u = resize_symbol(hand_symbol, 8)
    _, details = forward(u, details=True)
    k_member = next(c for c in details.clusters_k if c.member)
    with pytest.raises(InputError):
        ratio_certificate(u, k_member)
