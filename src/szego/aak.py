"""Best rank-k Hankel approximation through symmetric Schmidt vectors.

For a singular value s of the Hankel matrix with eigenvector v of the
square, either v + (1/s) H_u(v) or its rotation by i is a symmetric
Schmidt vector h (H_u(h) = s h).  The quotient phi = h / conj(h) is
unimodular on the circle; subtracting s times its analytic projection
from u leaves a symbol whose Hankel matrix has rank k and distance
exactly s_k from the original, which dense SVDs of exact sections
(FastHankel(c[:2m - 1], m).dense()) certify.

The eigenpairs of the square are build_pair(u).plain, as in forward: one
SVD of the m x N strip of the exact section on its core for a symbol with
a rational form (Kronecker: the Hankel rank is at most m), or of the
r x N strip on a range frame for a coefficient-only symbol, checked and
lifted to length N by the pair, so no N x N matrix is formed before the
certificate.  The Schmidt vector is symmetrized and checked with
pair.actions[0], the action those eigenvectors belong to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import (Poly, RationalFunction, fit_rational_samples, grid_transform,
                      next_pow2, reflect_coeffs)
from .errors import (ConsistencyError, InputError, NotAnalyticError,
                     NotInnerError, NumericalError)
from .forward_map import ForwardDetails, MultiplicityCluster, fit_circle_ratio
from .hankel import (TRUNCATION_CAP, FastHankel, HankelPair, Symbol, build_pair,
                     resize_symbol)

RANK_FLOOR_REL = 1e-7
GAP_FLOOR_REL = 1e-8
SCHMIDT_RESIDUAL_REL = 1e-9
TAIL_REL = 1e-8
TIGHT_TAIL_REL = 1e-14
GRID_FACTOR = 8
RATIO_SAMPLES = 3
PERTURBATION_SAMPLES = 200
PERTURBATION_SCALE = 1e-3


@dataclass(frozen=True, eq=False)
class SchmidtVector:
    """Unit vector h with H_u(h) = s h."""

    s: float
    h: np.ndarray
    residual: float


def schmidt_vector(pair: HankelPair, s: float) -> SchmidtVector:
    """Symmetric Schmidt vector of the plain square of pair at value s.

    Takes an eigenvector v of the square at s**2 from pair.plain and
    symmetrizes with the pair's plain action H_u = pair.actions[0]:
    h = v + (1/s) H_u(v), falling back to i v + (1/s) H_u(i v) when the
    first combination cancels (the two cannot both vanish in exact
    arithmetic since their norms squared add to 4).  s**2 must match an
    eigenvalue to within 1e-6 of the top one, else InputError.
    """
    if s <= 0.0:
        raise InputError("Schmidt construction needs s > 0")
    eigs, apply_h = pair.plain, pair.actions[0]
    vals = eigs.values
    if vals.size == 0:
        # the range frame of a zero matrix has no column
        raise InputError("the square of a zero symbol has no eigenvalue")
    idx = int(np.argmin(np.abs(vals - s * s)))
    top = float(vals[0])
    if abs(vals[idx] - s * s) > 1e-6 * top:
        raise InputError(f"s**2 = {s * s:.6e} is not an eigenvalue of the square")
    v = eigs.vectors[:, idx]
    h = v + apply_h(v) / s
    if np.linalg.norm(h) <= 1e-8 * np.linalg.norm(v):
        h = 1j * v + apply_h(1j * v) / s
    norm = float(np.linalg.norm(h))
    if norm <= 1e-8 * np.linalg.norm(v):
        raise NumericalError("both Schmidt candidates vanish")
    h = h / norm
    residual = float(np.linalg.norm(apply_h(h) - s * h))
    if residual >= SCHMIDT_RESIDUAL_REL * s:
        raise ConsistencyError(
            f"Schmidt residual {residual:.3e} exceeds {SCHMIDT_RESIDUAL_REL:.1e} * s")
    return SchmidtVector(float(s), h, residual)


@dataclass(frozen=True, eq=False)
class AAKCertificate:
    """Dense-SVD evidence that the approximation meets the AAK distance.

    path says how the square was diagonalized: "rational" (the m x m core
    of the exact section, m = core_size) or "range" (the r x r square of a
    coefficient-only symbol on its range frame, r = core_size).
    """

    s_target: float
    op_norm: float               # top singular value of Gamma_u - Gamma_r
    rank: int                    # numerical rank of Gamma_r
    rank_threshold: float
    phi_unimodularity: float     # max | |phi| - 1 | on the grid
    tail: float                  # largest projected coefficient beyond N, over s
    truncation: int
    path: str
    core_size: int

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


def _certify(pair: HankelPair, v: np.ndarray, s: float, top: float, uni: float,
             tail: float) -> AAKCertificate:
    # pair is the working-size symbol's; the certificate records its path
    # and core size.  Exact m x m sections (entries c_{i+j} out to 2m - 1
    # coefficients) avoid the rank leakage of zero-padded matrices.  The
    # subtracted part v is a polynomial, so the approximation r = u - v
    # shares u's continuation beyond the truncation.  The rank cut is
    # scaled by u's top singular value from the eigensolve (top) and still
    # sits above the TAIL_REL mass dropped from the projection and below
    # genuine singular values of supported data.  With v = 0 (u is its own
    # approximation) r is u and the distance is 0.0, as the SVD of a zero
    # section would give, so u's SVD is the only one taken.
    u = pair.symbol
    m = u.n_modes
    r2 = resize_symbol(u, 2 * m - 1).coeffs
    op = 0.0
    if v.any():
        op = float(scipy.linalg.svdvals(FastHankel(v, m).dense())[0])
        r2 = r2 - np.pad(v, (0, m - 1))
    sv_r = scipy.linalg.svdvals(FastHankel(r2, m).dense())
    threshold = RANK_FLOOR_REL * top
    rank = int(np.sum(sv_r > threshold))
    return AAKCertificate(s, op, rank, threshold, uni, tail, m, pair.path,
                          pair.core_size)


def _tight_truncation(u: Symbol) -> int:
    """Truncation length whose dropped coefficient tail is below 1e-14 in l2.

    Eigenvalue and Schmidt-vector accuracy is limited by the mass the
    finite section never sees, so the working length is grown until the
    known tail of the exact rational form is negligible.  Plain
    finite-coefficient symbols are already exact.  A symbol whose tail
    needs more than TRUNCATION_CAP modes raises NumericalError.
    """
    if u.rational is None:
        return u.n_modes
    n = max(u.n_modes, 32)
    while True:
        c = u.rational.taylor(2 * n)
        total = max(float(np.linalg.norm(c)), 1e-300)
        suffix = np.sqrt(np.cumsum(np.abs(c[::-1]) ** 2)[::-1])
        keep = np.nonzero(suffix <= TIGHT_TAIL_REL * total)[0]
        if keep.size and keep[0] + 8 <= TRUNCATION_CAP:
            return min(TRUNCATION_CAP, max(int(keep[0]) + 8, u.n_modes))
        if 2 * n > TRUNCATION_CAP:
            raise NumericalError(
                f"coefficient tail {suffix[TRUNCATION_CAP] / total:.3e} at the "
                f"cap of {TRUNCATION_CAP} modes is not below {TIGHT_TAIL_REL:.0e}")
        n *= 2


def best_approx(u: Symbol, k: int) -> AAKResult:
    """Best Hankel approximation of rank at most k, with distance s_k.

    Singular values are indexed from zero, so k = 1 targets the second
    largest; the hypothesis s_{k-1} > s_k must hold strictly.  When s_k
    is numerically zero (k at least the rank) the symbol is its own best
    approximation and the distance is zero.

    The singular values come from the pair's plain eigensystem at the
    working size N, one SVD of build_pair's plain factor: on the rank-m
    core of a rational symbol or the range frame of a coefficient-only one
    (the other singular values are zero, to the frame's tolerance).  The
    analytic projection of phi = h / conj(h) runs on a grid of size 8N; if
    the projected coefficients beyond N are not below 1e-8 of the largest,
    the truncation doubles and the whole construction repeats.
    """
    if k < 1:
        raise InputError("approximation order k must be at least 1")
    n_work = _tight_truncation(u)
    while True:
        pair = build_pair(resize_symbol(u, n_work))
        ub = pair.symbol
        svals = np.sqrt(pair.plain.values)
        svals = np.pad(svals, (0, n_work - svals.size))
        top = float(svals[0])
        if top == 0.0:
            raise InputError("symbol is numerically zero")
        floor = RANK_FLOOR_REL * top
        if k >= svals.size or svals[k] <= floor:
            prev = svals[min(k - 1, svals.size - 1)]
            if prev <= floor:
                raise InputError(
                    f"gap hypothesis fails: s_{k - 1} is already numerically zero")
            cert = _certify(pair, np.zeros(n_work, dtype=complex), 0.0, top, 0.0, 0.0)
            zero = Symbol(np.zeros(n_work, dtype=complex))
            return AAKResult(u, k, 0.0, ub, zero, cert)
        if svals[k - 1] - svals[k] <= GAP_FLOOR_REL * top:
            raise InputError(
                f"gap hypothesis fails: s_{k - 1} - s_k = "
                f"{svals[k - 1] - svals[k]:.3e}")
        s = float(svals[k])
        sv = schmidt_vector(pair, s)

        # a finer grid holds every point of this one, so it cannot help
        m = next_pow2(GRID_FACTOR * n_work)
        hv = grid_transform(sv.h, m)
        if not np.min(np.abs(hv)) > 1e-12 * np.max(np.abs(hv)):
            raise NumericalError("Schmidt vector vanishes on the circle grid")
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
    cert = _certify(pair, v, s, top, uni, tail)
    return AAKResult(u, k, s, Symbol(r_coeffs), Symbol(v), cert)


@dataclass(frozen=True, eq=False)
class RatioSample:
    """One random eigenspace direction checked against the inner-ratio law."""

    fit_residual: float
    unimodularity: float
    reflection_gap: float
    degree: int


def ratio_certificate(details: ForwardDetails, cluster: MultiplicityCluster,
                      rng=None) -> tuple:
    """Certify that s h / H_u(h) has the form of an inner ratio on a cluster.

    details is forward's inspection payload and cluster one of its plain
    clusters; H_u is details.pair.actions[0], the action whose eigenvectors
    the cluster holds (the exact section on the rational core).  For three
    random unit combinations h of the cluster basis the pointwise ratios
    s h(z) / (H_u h)(z) are fitted in one ``fit_circle_ratio`` call with
    numerator and denominator degree m - 1 (m the cluster dimension),
    which raises FitError when a fit misses its samples.  The samples
    must be unimodular and the fit's denominator proportional to the
    conjugate reflection of its numerator, else NotInnerError.  The
    numerator need not be Schur: for a random direction the ratio is
    unimodular but in general not inner.
    """
    if cluster.kind != "H":
        raise InputError("ratio certificate applies to plain-square clusters")
    if cluster.s <= 0.0:
        raise InputError("ratio certificate needs a positive spectral value")
    rng = np.random.default_rng(7) if rng is None else rng
    m_dim = cluster.dim
    weights = []
    for _ in range(RATIO_SAMPLES):
        w = rng.standard_normal(m_dim) + 1j * rng.standard_normal(m_dim)
        weights.append(w / np.linalg.norm(w))
    h = cluster.basis @ np.array(weights).T
    nums, dens, res, ratio, good = fit_circle_ratio(
        cluster.s * h.T, details.pair.actions[0](h).T, m_dim - 1,
        lambda i: f"sample {i}")
    samples = []
    for i in range(RATIO_SAMPLES):
        uni = float(np.max(np.abs(np.abs(ratio[i, good[i]]) - 1.0)))
        if uni > 1e-6:
            raise NotInnerError(
                f"sample {i}: ratio is off the unit circle by {uni:.3e}")
        num, den = Poly(nums[i]), Poly(dens[i])
        deg = max(num.degree, den.degree)
        refl = reflect_coeffs(num.coeffs, deg)
        refl = np.pad(refl, (0, deg + 1 - refl.size))
        dpad = den.padded(deg + 1)
        denom = np.vdot(refl, refl)
        c = np.vdot(refl, dpad) / denom if abs(denom) > 0 else 0.0
        gap = float(np.linalg.norm(dpad - c * refl) /
                    max(np.linalg.norm(dpad), 1e-300))
        if gap > 1e-6:
            raise NotInnerError(
                f"sample {i}: denominator is not the reflected numerator "
                f"(gap {gap:.3e})")
        samples.append(RatioSample(float(res[i]), uni, gap, deg))
    return tuple(samples)


def perturbation_sanity(result: AAKResult, rng=None) -> float:
    """Check that random nearby rank-k symbols approximate no better.

    The approximation r is refitted as a rational function of degree
    (k - 1, k); its coefficients are jittered by 1e-3 (denominators kept
    root-free outside the disc) PERTURBATION_SAMPLES times, and the
    smallest Hankel distance from u over all perturbed symbols comes back.
    A value below s_k would contradict optimality.
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
    rv = grid_transform(r, m)
    (num,), (den,), (res,) = fit_rational_samples(z, rv[None], k - 1, k)
    num, den = Poly(num), Poly(den)
    if not np.isfinite(res) or res > 1e-6 * max(float(np.max(np.abs(rv))), 1e-300):
        raise NumericalError(f"rank-k refit of the approximation failed ({res:.3e})")
    best = np.inf
    npad = num.padded(k)
    dpad = den.padded(k + 1)
    nscale = max(float(np.max(np.abs(npad))), 1e-300)
    for _ in range(PERTURBATION_SAMPLES):
        dn = ((rng.standard_normal(k) + 1j * rng.standard_normal(k))
              * PERTURBATION_SCALE * nscale)
        dd = np.zeros(k + 1, dtype=complex)
        dd[1:] = ((rng.standard_normal(k) + 1j * rng.standard_normal(k))
                  * PERTURBATION_SCALE)
        try:
            pert = RationalFunction.from_coeff_lists(npad + dn, dpad + dd,
                                                     check_coprime=False)
        except NotAnalyticError:
            continue
        diff = u_ext - pert.taylor(2 * n - 1)
        sv = scipy.linalg.svdvals(FastHankel(diff, n).dense())
        best = min(best, float(sv[0]))
    return best
