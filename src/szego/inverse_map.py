"""Explicit reconstruction of a symbol from its spectral data.

The data (s_1 > ... > s_n, Psi_1..Psi_n) is arranged into a q x q matrix
of rational entries

    c_kj(z) = (rho_j - sigma_k z Psi_{2k}(z) Psi_{2j-1}(z)) / (rho_j**2 - sigma_k**2),

rho_j = s_{2j-1}, sigma_k = s_{2k} (virtual sigma_q = 0 with Psi = 1 when
n is odd).  Clearing the Blaschke denominators D_{2k} D_{2j-1} gives
polynomial entries whose determinant Q has degree exactly
N = q + sum of all Blaschke degrees and no root on the closed unit disc.
The symbol and its eigenspace components all come out as polynomial
combinations of the first minors divided by Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bateman
from .algebra import (Poly, RationalFunction, grid_transform, next_pow2,
                      polymatrix_det_minors)
from .blaschke import BlaschkeProduct
from .errors import HypothesisViolationError, InputError
from .forward_map import SpectralData, forward
from .hankel import Symbol

ROOT_MARGIN = 1e-10


@dataclass(frozen=True, eq=False)
class CMatrix:
    """The reconstruction matrix in cleared (polynomial) form."""

    q: int
    rho: np.ndarray
    sigma: np.ndarray
    psi_odd: tuple          # Blaschke products at plain positions 1, 3, ...
    psi_even: tuple         # at shifted positions 2, 4, ... (virtual 1 appended)
    cleared: list           # cleared[k][j], polynomial entries
    total_degree: int       # exact degree of the determinant

    def rational_entry_values(self, k: int, j: int, z: np.ndarray) -> np.ndarray:
        """Values of the uncleared entry c_kj at given points."""
        dk = self.psi_even[k].d
        dj = self.psi_odd[j].d
        return self.cleared[k][j](z) / (dk(z) * dj(z))


def build_cmatrix(data: SpectralData) -> CMatrix:
    """Assemble the cleared reconstruction matrix from spectral data.

    Entry (k, j) is
        (rho_j D_{2k} D_{2j-1} - sigma_k z e^{-i(psi_{2k}+psi_{2j-1})} P_{2k} P_{2j-1})
            / (rho_j**2 - sigma_k**2),
    a polynomial of degree at most 1 + d_{2k} + d_{2j-1}.  At z = 0 every
    entry equals rho_j / (rho_j**2 - sigma_k**2); the diagonal ones are
    positive.
    """
    q = data.q
    psi_odd = tuple(data.psi[0::2])
    psi_even = list(data.psi[1::2])
    rho = data.s[0::2].astype(float)
    sigma = list(data.s[1::2].astype(float))
    if data.n % 2 == 1:
        sigma.append(0.0)
        psi_even.append(BlaschkeProduct.constant(0.0))
    sigma = np.array(sigma)

    z_poly = Poly.identity()
    cleared = []
    for k in range(q):
        row = []
        pk = psi_even[k]
        for j in range(q):
            pj = psi_odd[j]
            denom = rho[j] ** 2 - sigma[k] ** 2
            entry = (rho[j] / denom) * (pk.d * pj.d)
            if sigma[k] != 0.0:
                phase = pk.phase * pj.phase
                entry = entry - (sigma[k] / denom * phase) * (z_poly * (pk.p * pj.p))
            bound = 1 + pk.degree + pj.degree
            if entry.degree > bound:
                raise HypothesisViolationError(
                    f"cleared entry ({k},{j}) has degree {entry.degree} > {bound}")
            at0 = complex(entry(0.0))
            want = rho[j] / denom
            if abs(at0 - want) > 1e-10 * max(abs(want), 1.0):
                raise HypothesisViolationError(
                    f"entry ({k},{j}) at 0 is {at0}, expected {want}")
            if k == j and at0.real <= 0.0:
                raise HypothesisViolationError(
                    f"diagonal entry ({k},{k}) not positive at 0")
            row.append(entry)
        cleared.append(row)
    return CMatrix(q, rho, sigma, psi_odd, tuple(psi_even), cleared,
                   data.total_degree)


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Reconstructed symbol with all eigenspace components and diagnostics."""

    data: SpectralData
    u: Symbol
    rational: RationalFunction
    q_poly: Poly                  # determinant, normalized to Q(0) = 1
    h: tuple                      # h_j = D_{2j-1} R_{2j-1}
    u_parts: tuple                # u_j = phase_j P_{2j-1} R_{2j-1}
    u_prime_parts: tuple          # u'_k = D_{2k} R_{2k}
    total_degree: int
    two_decomposition_gap: float
    min_root_modulus: float | None
    circle_condition: float
    det_at_zero: complex


def synthesize(data: SpectralData) -> SynthesisResult:
    """Invert the spectral map by the cleared-determinant construction.

    Raises HypothesisViolationError when the determinant degree falls
    short of q + sum d_r or a root of the determinant comes within 1e-10
    of the closed unit disc.  For valid interlaced data with Schur factors
    neither holds in exact arithmetic, so a violation signals corrupted
    input or lost precision: long geometric spectra (s = 10 * 0.8**k with
    n = 32 and constant factors) already trip the root certificate.
    """
    cm = build_cmatrix(data)
    q, n_deg = cm.q, cm.total_degree
    det, minors = polymatrix_det_minors(cm.cleared, n_deg)
    det0 = complex(det(0.0))
    top = float(np.max(np.abs(det.coeffs))) if det else 0.0
    if top == 0.0 or abs(det0) < 1e-12 * top:
        raise HypothesisViolationError("determinant vanishes at z = 0")
    if det.degree > n_deg:
        raise HypothesisViolationError(
            f"determinant degree {det.degree} exceeds the bound {n_deg}")
    if data.n % 2 == 0 and det.degree != n_deg:
        # For even n every entry's top coefficient is carried by the
        # sigma term and the leading matrix is a nonsingular Cauchy-type
        # matrix, so the degree is exact; a shortfall means bad data.
        # For odd n the virtual sigma_q = 0 row genuinely lowers it.
        raise HypothesisViolationError(
            f"determinant degree {det.degree}, expected exactly {n_deg}")

    min_root = None
    if det.degree >= 1:
        if det.degree <= 64:
            min_root = float(np.min(np.abs(det.roots())))
            if min_root <= 1.0 + ROOT_MARGIN:
                raise HypothesisViolationError(
                    f"determinant root at modulus {min_root:.12f}")
        else:
            m = next_pow2(16 * det.degree)
            vals = grid_transform(det, m).samples
            if float(np.min(np.abs(vals))) <= 1e-8 * top:
                raise HypothesisViolationError(
                    "determinant nearly vanishes on the unit circle")

    grid_m = next_pow2(2 * n_deg + 2)
    det_vals = grid_transform(det, grid_m).samples
    condition = float(np.max(np.abs(det_vals)) / np.min(np.abs(det_vals)))

    phases = [b.phase for b in cm.psi_odd]
    r_odd_num = []
    for j in range(q):
        acc = Poly.zero()
        for k in range(q):
            term = cm.psi_even[k].d * minors[k][j]
            acc = acc + ((-1.0) ** (k + j)) * term
        r_odd_num.append(acc)
    r_even_num = []
    for k in range(q):
        acc = Poly.zero()
        for j in range(q):
            term = (phases[j] * (cm.psi_odd[j].p * minors[k][j]))
            acc = acc + ((-1.0) ** (k + j)) * term
        r_even_num.append(acc)

    u_num = Poly.zero()
    for j in range(q):
        u_num = u_num + phases[j] * (cm.psi_odd[j].p * r_odd_num[j])
    u_alt = Poly.zero()
    for k in range(q):
        u_alt = u_alt + cm.psi_even[k].d * r_even_num[k]
    pad = max(u_num.degree, u_alt.degree, 0) + 1
    scale = max(float(np.max(np.abs(u_num.padded(pad)))), 1e-300)
    gap = float(np.max(np.abs(u_num.padded(pad) - u_alt.padded(pad)))) / scale

    inv0 = 1.0 / det0
    q_norm = det * inv0
    u_rf = RationalFunction(u_num * inv0, q_norm, check_coprime=False)
    h = tuple(RationalFunction(cm.psi_odd[j].d * r_odd_num[j] * inv0, q_norm,
                               check_coprime=False) for j in range(q))
    u_parts = tuple(RationalFunction(phases[j] * (cm.psi_odd[j].p * r_odd_num[j]) * inv0,
                                     q_norm, check_coprime=False) for j in range(q))
    u_prime_parts = tuple(RationalFunction(cm.psi_even[k].d * r_even_num[k] * inv0,
                                           q_norm, check_coprime=False)
                          for k in range(q))
    u_sym = Symbol.from_rational(u_rf)
    return SynthesisResult(data, u_sym, u_rf, q_norm, h, u_parts, u_prime_parts,
                           n_deg, gap, min_root, condition, det0)


@dataclass(frozen=True)
class ConsistencyReport:
    """Residuals of the linear-system and component-coupling identities."""

    ch_residual: float            # max |sum_j c_kj(z) h_j(z) - 1|
    coupling_residual: float      # max |u'_k - sum_j kappa_k**2/(rho_j**2-sigma_k**2) u_j|
    decomposition_gap: float

    @property
    def max_residual(self) -> float:
        return max(self.ch_residual, self.coupling_residual,
                   self.decomposition_gap)


def consistency_report(result: SynthesisResult, n_points: int = 16) -> ConsistencyReport:
    """Check the defining linear system and the coupling identity pointwise.

    At n_points circle points: the matrix of uncleared entries applied to
    the component vector (h_j) must give the all-ones vector, and each
    shifted component u'_k must equal
    sum_j kappa_k**2 / (rho_j**2 - sigma_k**2) * u_j.
    """
    cm = build_cmatrix(result.data)
    z = np.exp(2j * np.pi * (np.arange(n_points) + 0.31) / n_points)
    h_vals = np.array([comp(z) for comp in result.h])
    ch = 0.0
    for k in range(cm.q):
        row = np.zeros_like(z)
        for j in range(cm.q):
            row = row + cm.rational_entry_values(k, j, z) * h_vals[j]
        ch = max(ch, float(np.max(np.abs(row - 1.0))))

    v = bateman.InterlacedValues(cm.rho, cm.sigma)
    kappa2 = bateman.kappa_squares(v)
    u_vals = np.array([comp(z) for comp in result.u_parts])
    coupling = 0.0
    for k in range(cm.q):
        weights = kappa2[k] / (cm.rho ** 2 - cm.sigma[k] ** 2)
        recon = weights @ u_vals
        direct = result.u_prime_parts[k](z)
        coupling = max(coupling, float(np.max(np.abs(direct - recon))))
    return ConsistencyReport(ch, coupling, result.two_decomposition_gap)


def fourvalue_formula(lam1: float, mu1: float, lam2: float, mu2: float) -> Symbol:
    """Closed form for the rank-two self-adjoint symbol with signed data.

    The four reals must satisfy |lam1| > |mu1| > |lam2| > |mu2| > 0.  With
    e(a, b)(z) = (a - b z) / (a**2 - b**2), the symbol is

        (e(l1,m1) + e(l2,m2) - e(l1,m2) - e(l2,m1))
        / det [[e(l1,m1), e(l2,m1)], [e(l1,m2), e(l2,m2)]].
    """
    vals = [lam1, mu1, lam2, mu2]
    mods = [abs(v) for v in vals]
    if not (mods[0] > mods[1] > mods[2] > mods[3] > 0.0):
        raise InputError("need |lam1| > |mu1| > |lam2| > |mu2| > 0")

    def e(a: float, b: float) -> Poly:
        return Poly(np.array([a, -b], dtype=complex) / (a * a - b * b))

    num = e(lam1, mu1) + e(lam2, mu2) - e(lam1, mu2) - e(lam2, mu1)
    den = e(lam1, mu1) * e(lam2, mu2) - e(lam2, mu1) * e(lam1, mu2)
    return Symbol.from_rational(RationalFunction(num, den))


def collapsed_fourvalue(lam1: float, lam2: float, p: float) -> Symbol:
    """Degenerate limit of the four-value family as mu1 -> lam2, mu2 -> -lam2.

    The collapse parameter p is the limit of (2*lam2 + mu2 - mu1)/(mu1 + mu2);
    the symbol becomes
        (lam1**2 - lam2**2) (1 - p z) / (lam1 - p (lam1 - lam2) z - lam2 z**2).
    """
    num = (lam1 ** 2 - lam2 ** 2) * Poly(np.array([1.0, -p], dtype=complex))
    den = Poly(np.array([lam1, -p * (lam1 - lam2), -lam2], dtype=complex))
    return Symbol.from_rational(RationalFunction(num, den))


@dataclass(frozen=True)
class RoundtripReport:
    """Residuals of symbol -> data -> symbol and data -> symbol -> data."""

    coeff_residual: float
    coeff_relative: float
    s_relative: float
    angle_gap: float
    p_coeff_gap: float

    @property
    def spectral_max(self) -> float:
        return max(self.s_relative, self.angle_gap, self.p_coeff_gap)


def angle_distance(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def compare_spectral(got: SpectralData, want: SpectralData):
    """(max relative s gap, max angle gap, max Blaschke coefficient gap)."""
    if got.n != want.n:
        raise InputError(f"spectral sizes differ: {got.n} vs {want.n}")
    s_rel = float(np.max(np.abs(got.s - want.s) / want.s))
    ang = 0.0
    pco = 0.0
    for bg, bw in zip(got.psi, want.psi):
        if bg.degree != bw.degree:
            raise InputError("Blaschke degrees differ in comparison")
        ang = max(ang, angle_distance(bg.angle, bw.angle))
        pad = bw.degree + 1
        pco = max(pco, float(np.max(np.abs(bg.p.padded(pad) - bw.p.padded(pad)))))
    return s_rel, ang, pco


def roundtrip(u: Symbol, rel_tol: float = 1e-6) -> RoundtripReport:
    """Measure both round trips starting from a symbol."""
    data = forward(u, rel_tol=rel_tol)
    result = synthesize(data)
    pad = max(u.n_modes, result.u.n_modes)
    a = np.zeros(pad, dtype=complex)
    b = np.zeros(pad, dtype=complex)
    a[: u.n_modes] = u.coeffs
    b[: result.u.n_modes] = result.u.coeffs
    coeff = float(np.linalg.norm(a - b))
    back = forward(result.u, rel_tol=rel_tol)
    s_rel, ang, pco = compare_spectral(back, data)
    return RoundtripReport(coeff, coeff / max(u.l2_norm, 1e-300), s_rel, ang, pco)


def spectral_roundtrip(data: SpectralData, rel_tol: float = 1e-6) -> RoundtripReport:
    """Measure the data -> symbol -> data round trip."""
    result = synthesize(data)
    got = forward(result.u, rel_tol=rel_tol)
    s_rel, ang, pco = compare_spectral(got, data)
    return RoundtripReport(0.0, 0.0, s_rel, ang, pco)
