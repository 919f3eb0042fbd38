"""Best rank-k Hankel approximation through symmetric Schmidt vectors.

For a singular value s of the Hankel matrix with eigenvector v of the
square, either v + (1/s) H_u(v) or its rotation by i is a symmetric
Schmidt vector h (H_u(h) = s h).  The quotient phi = h / conj(h) is
unimodular on the circle; subtracting s times its analytic projection
from u leaves a symbol whose Hankel matrix has rank k and distance
exactly s_k from the original, which a dense SVD certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import (RationalFunction, conj_reflect, fit_rational_samples,
                      next_pow2, trim_coeffs)
from .errors import (ConsistencyError, InputError, NotAnalyticError,
                     NotInnerError, NumericalError)
from .forward_map import MultiplicityCluster
from .hankel import (TRUNCATION_CAP, Symbol, apply_H, dense_square,
                     exact_section, hermitian_eigs, resize_symbol)

RANK_FLOOR_REL = 1e-7
GAP_FLOOR_REL = 1e-8
SCHMIDT_RESIDUAL_REL = 1e-9
TAIL_REL = 1e-8
TIGHT_TAIL_REL = 1e-14
GRID_FACTOR = 8
RATIO_SAMPLES = 3


@dataclass(frozen=True, eq=False)
class SchmidtVector:
    """Unit vector h with H_u(h) = s h."""

    s: float
    h: np.ndarray
    residual: float


def schmidt_vector(u: Symbol, s: float, eigs=None) -> SchmidtVector:
    """Symmetric Schmidt vector of the plain square of u at value s.

    Takes an eigenvector v of the square at s**2 and symmetrizes:
    h = v + (1/s) H_u(v), falling back to i v + (1/s) H_u(i v) when the
    first combination cancels (the two cannot both vanish in exact
    arithmetic since their norms squared add to 4).
    """
    if s <= 0.0:
        raise InputError("Schmidt construction needs s > 0")
    if eigs is None:
        eigs = hermitian_eigs(dense_square(u.coeffs))
    vals = eigs.values
    idx = int(np.argmin(np.abs(vals - s * s)))
    top = float(vals[0]) if vals.size else 0.0
    if abs(vals[idx] - s * s) > 1e-6 * max(top, 1.0):
        raise InputError(f"s**2 = {s * s:.6e} is not an eigenvalue of the square")
    v = eigs.vectors[:, idx]
    hv = apply_H(u, v)
    h = v + hv / s
    if np.linalg.norm(h) <= 1e-8 * np.linalg.norm(v):
        h = 1j * v + apply_H(u, 1j * v) / s
    norm = float(np.linalg.norm(h))
    if norm <= 1e-8 * np.linalg.norm(v):
        raise NumericalError("both Schmidt candidates vanish")
    h = h / norm
    residual = float(np.linalg.norm(apply_H(u, h) - s * h))
    if residual >= SCHMIDT_RESIDUAL_REL * s:
        raise ConsistencyError(
            f"Schmidt residual {residual:.3e} exceeds {SCHMIDT_RESIDUAL_REL:.1e} * s")
    return SchmidtVector(float(s), h, residual)


@dataclass(frozen=True, eq=False)
class AAKCertificate:
    """Dense-SVD evidence that the approximation meets the AAK distance."""

    s_target: float
    op_norm: float               # top singular value of Gamma_u - Gamma_r
    rank: int                    # numerical rank of Gamma_r
    rank_threshold: float
    phi_unimodularity: float     # max | |phi| - 1 | on the grid
    tail: float                  # largest projected coefficient beyond N, over s
    truncation: int

    @property
    def distance_gap(self) -> float:
        if self.s_target == 0.0:
            return self.op_norm
        return abs(self.op_norm - self.s_target) / self.s_target


@dataclass(frozen=True, eq=False)
class AAKResult:
    """Best approximation r of u among symbols of Hankel rank at most k."""

    u: Symbol
    k: int
    s: float
    r: Symbol
    subtracted: Symbol
    certificate: AAKCertificate


def _certify(u: Symbol, v: np.ndarray, s: float,
             uni: float, tail: float, n_work: int) -> AAKCertificate:
    # Exact m x m sections (entries c_{i+j} out to 2m - 1 coefficients)
    # avoid the rank leakage of zero-padded matrices.  The subtracted
    # part v is a polynomial, so the approximation r = u - v shares u's
    # continuation beyond the truncation.  The rank cut still sits above
    # the TAIL_REL mass dropped from the projection and below genuine
    # singular values of supported data.
    m = n_work
    u2 = resize_symbol(u, 2 * m - 1).coeffs
    v2 = np.concatenate([v, np.zeros(u2.size - v.size, dtype=complex)])
    sv_diff = scipy.linalg.svdvals(exact_section(v2, m))
    op = float(sv_diff[0]) if sv_diff.size else 0.0
    sv_r = scipy.linalg.svdvals(exact_section(u2 - v2, m))
    scale = float(scipy.linalg.svdvals(exact_section(u2, m))[0])
    threshold = RANK_FLOOR_REL * max(scale, 1e-300)
    rank = int(np.sum(sv_r > threshold))
    return AAKCertificate(s, op, rank, threshold, uni, tail, n_work)


def _tight_truncation(u: Symbol) -> int:
    """Truncation length whose dropped coefficient tail is below 1e-14 in l2.

    Eigenvalue and Schmidt-vector accuracy is limited by the mass the
    finite section never sees, so the working length is grown until the
    known tail of the exact rational form is negligible.  Plain
    finite-coefficient symbols are already exact.
    """
    if u.rational is None:
        return u.n_modes
    n = max(u.n_modes, 32)
    while True:
        c = u.rational.taylor(2 * n)
        total = max(float(np.linalg.norm(c)), 1e-300)
        suffix = np.sqrt(np.cumsum(np.abs(c[::-1]) ** 2)[::-1])
        keep = np.nonzero(suffix <= TIGHT_TAIL_REL * total)[0]
        if keep.size and keep[0] < c.size:
            return min(TRUNCATION_CAP, max(int(keep[0]) + 8, u.n_modes))
        if 2 * n >= TRUNCATION_CAP:
            return TRUNCATION_CAP
        n *= 2


def best_approx(u: Symbol, k: int) -> AAKResult:
    """Best Hankel approximation of rank at most k, with distance s_k.

    Singular values are indexed from zero, so k = 1 targets the second
    largest; the hypothesis s_{k-1} > s_k must hold strictly.  When s_k
    is numerically zero (k at least the rank) the symbol is its own best
    approximation and the distance is zero.

    The analytic projection of phi = h / conj(h) runs on a grid of size
    8N; if the projected coefficients beyond N are not below 1e-8 of the
    largest, the truncation doubles and the whole construction repeats.
    """
    if k < 1:
        raise InputError("approximation order k must be at least 1")
    n_work = _tight_truncation(u)
    while True:
        ub = resize_symbol(u, n_work)
        eigs = hermitian_eigs(dense_square(ub.coeffs))
        svals = np.sqrt(np.clip(eigs.values, 0.0, None))
        top = float(svals[0]) if svals.size else 0.0
        if top == 0.0:
            raise InputError("symbol is numerically zero")
        floor = RANK_FLOOR_REL * top
        if k >= svals.size or svals[k] <= floor:
            prev = svals[min(k - 1, svals.size - 1)]
            if prev <= floor:
                raise InputError(
                    f"gap hypothesis fails: s_{k - 1} is already numerically zero")
            cert = _certify(ub, np.zeros(n_work, dtype=complex), 0.0, 0.0, 0.0, n_work)
            zero = Symbol(np.zeros(n_work, dtype=complex))
            return AAKResult(u, k, 0.0, ub, zero, cert)
        if svals[k - 1] - svals[k] <= GAP_FLOOR_REL * top:
            raise InputError(
                f"gap hypothesis fails: s_{k - 1} - s_k = "
                f"{svals[k - 1] - svals[k]:.3e}")
        s = float(svals[k])
        sv = schmidt_vector(ub, s, eigs)

        m = next_pow2(GRID_FACTOR * n_work)
        hv = None
        for _ in range(3):
            grid_vals = m * np.fft.ifft(sv.h, m)
            if np.min(np.abs(grid_vals)) > 1e-12 * np.max(np.abs(grid_vals)):
                hv = grid_vals
                break
            m *= 2
        if hv is None:
            raise NumericalError("Schmidt vector keeps vanishing on the circle grid")
        phi = hv / np.conj(hv)
        uni = float(np.max(np.abs(np.abs(phi) - 1.0)))
        pos = np.fft.fft(phi) / m
        v = s * pos[:n_work]
        v_scale = max(float(np.max(np.abs(v))), 1e-300)
        tail = s * float(np.max(np.abs(pos[n_work: m // 2]))) / v_scale
        if tail < TAIL_REL:
            break
        if n_work >= TRUNCATION_CAP:
            raise NumericalError(
                f"projected tail {tail:.3e} not resolved at truncation {n_work}")
        n_work = min(2 * n_work, TRUNCATION_CAP)

    r_coeffs = ub.coeffs - v
    cert = _certify(ub, v, s, uni, tail, n_work)
    return AAKResult(u, k, s, Symbol(r_coeffs), Symbol(v), cert)


@dataclass(frozen=True, eq=False)
class RatioSample:
    """One random eigenspace direction checked against the inner-ratio law."""

    fit_residual: float
    unimodularity: float
    reflection_gap: float
    degree: int


def ratio_certificate(u: Symbol, cluster: MultiplicityCluster,
                      rng=None) -> tuple:
    """Certify that s h / H_u(h) is a Blaschke product on a cluster.

    For three random unit combinations h of the cluster basis the pointwise
    ratio s h(z) / (H_u h)(z) is fitted with numerator and denominator
    degree m - 1 (m the cluster dimension).  The fit must reproduce the
    samples, be unimodular on the circle, and have denominator
    proportional to the conjugate reflection of its numerator; any
    failure raises NotInnerError.
    """
    if cluster.kind != "H":
        raise InputError("ratio certificate applies to plain-square clusters")
    if cluster.is_zero or cluster.s <= 0.0:
        raise InputError("ratio certificate needs a positive spectral value")
    rng = np.random.default_rng(7) if rng is None else rng
    m_dim = cluster.dim
    d = m_dim - 1
    # the grid must cover the coefficient vectors: np.fft.ifft crops its
    # input to the grid size, which would silently truncate h
    grid = next_pow2(max(8 * m_dim, 2 * u.n_modes, 32))
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    samples = []
    for i in range(RATIO_SAMPLES):
        w = rng.standard_normal(m_dim) + 1j * rng.standard_normal(m_dim)
        h = cluster.basis @ (w / np.linalg.norm(w))
        f = apply_H(u, h)
        hv = grid * np.fft.ifft(h, grid)
        fv = grid * np.fft.ifft(f, grid)
        good = np.abs(fv) > 1e-8 * np.max(np.abs(fv))
        if int(good.sum()) < 2 * d + 1:
            raise NumericalError("too few usable circle points for the ratio fit")
        ratio = cluster.s * hv[good] / fv[good]
        num, den, res = fit_rational_samples(z[good], ratio, d, d)
        scale = float(np.max(np.abs(ratio)))
        if not np.isfinite(res) or res > 1e-6 * scale:
            raise NotInnerError(
                f"sample {i}: ratio fit residual {res:.3e} exceeds 1e-6 * {scale:.3e}")
        uni = float(np.max(np.abs(np.abs(ratio) - 1.0)))
        if uni > 1e-6:
            raise NotInnerError(
                f"sample {i}: ratio is off the unit circle by {uni:.3e}")
        nc = trim_coeffs(num.coeffs)
        dc = trim_coeffs(den.coeffs)
        deg = max(nc.size, dc.size) - 1
        refl = conj_reflect(num, deg).coeffs
        refl = np.concatenate([refl, np.zeros(deg + 1 - refl.size)])
        dpad = den.padded(deg + 1)
        denom = np.vdot(refl, refl)
        c = np.vdot(refl, dpad) / denom if abs(denom) > 0 else 0.0
        gap = float(np.linalg.norm(dpad - c * refl) /
                    max(np.linalg.norm(dpad), 1e-300))
        if gap > 1e-6:
            raise NotInnerError(
                f"sample {i}: denominator is not the reflected numerator "
                f"(gap {gap:.3e})")
        samples.append(RatioSample(float(res), uni, gap, deg))
    return tuple(samples)


def perturbation_sanity(result: AAKResult, n_samples: int = 200,
                        scale: float = 1e-3, rng=None) -> float:
    """Check that random nearby rank-k symbols approximate no better.

    The approximation r is refitted as a rational function of degree
    (k - 1, k); its coefficients are jittered (denominators kept
    root-free outside the disc), and the smallest Hankel distance from u
    over all perturbed symbols comes back.  A value below s_k would
    contradict optimality.
    """
    k = result.k
    if result.s == 0.0:
        raise InputError("perturbation sanity needs a positive target distance")
    rng = np.random.default_rng(11) if rng is None else rng
    n = result.certificate.truncation
    u_ext = resize_symbol(result.u, 2 * n - 1).coeffs
    r = result.r.coeffs
    m = next_pow2(max(8 * n, 32))
    z = np.exp(2j * np.pi * np.arange(m) / m)
    rv = m * np.fft.ifft(r, m)
    num, den, res = fit_rational_samples(z, rv, k - 1, k)
    if not np.isfinite(res) or res > 1e-6 * max(float(np.max(np.abs(rv))), 1e-300):
        raise NumericalError(f"rank-k refit of the approximation failed ({res:.3e})")
    best = np.inf
    npad = num.padded(k)
    dpad = den.padded(k + 1)
    nscale = max(float(np.max(np.abs(npad))), 1e-300)
    for _ in range(n_samples):
        dn = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * scale * nscale
        dd = np.zeros(k + 1, dtype=complex)
        dd[1:] = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * scale
        try:
            pert = RationalFunction.from_coeff_lists(npad + dn, dpad + dd,
                                                     check_coprime=False)
        except NotAnalyticError:
            continue
        diff = u_ext - pert.taylor(2 * n - 1)
        sv = scipy.linalg.svdvals(exact_section(diff, n))
        best = min(best, float(sv[0]))
    return best
