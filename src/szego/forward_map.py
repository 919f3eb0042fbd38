"""The forward spectral map: symbol to interlaced values and inner factors.

Pipeline: diagonalize both Hermitian squares of the truncated pair,
group nearly equal eigenvalues into multiplicity clusters, decide for each
cluster whether the symbol projects onto it (plain side or shifted side),
and recover the inner factor of each essential cluster from the pointwise
ratio of the projection against the antilinear image of the projection.

The essential values strictly interlace, plain side first.  An odd count
means the zero singular value sits on the shifted side; it is detected but
never stored, so the spectral data holds positive values only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bateman
from .algebra import conj_reflect, fit_rational_samples, grid_transform, next_pow2
from .blaschke import BlaschkeProduct, is_schur_poly, normalize_angle
from .errors import (AmbiguousClusterWarning, DegreeMismatchError, FitError,
                     InputError, NotInnerError, SpectralInconsistencyError)
from .hankel import (DENSE_EIG_MAX, Symbol, apply_H, apply_K, build_pair,
                     check_shifted_square, dense_hankel, hermitian_eigs,
                     shifted_coeffs, square_operator)

DEFAULT_REL_TOL = 1e-6
MEMBERSHIP_REL = 1e-8
ZERO_FLOOR_REL = 1e-12
REAL_ZERO_FLOOR_REL = 1e-8
AMBIGUOUS_GAP_FACTOR = 3.0
RATIO_FIT_TOL = 1e-6
UNIMODULAR_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class MultiplicityCluster:
    """A group of nearly equal eigenvalues of one of the two squares."""

    value: float            # mean eigenvalue of the square
    s: float                # its square root
    dim: int
    indices: tuple
    basis: np.ndarray       # orthonormal columns spanning the cluster
    projection_of_u: np.ndarray
    projection_norm: float
    member: bool            # does the symbol project onto this cluster
    kind: str               # "H" for the plain square, "K" for the shifted one
    is_zero: bool = False


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Strictly decreasing positive values paired with Blaschke products.

    Odd positions (0-based even indices) belong to the plain operator,
    even positions to the shifted one; interlacing is validated on
    construction.  A trailing zero value is represented by an odd count,
    not stored.
    """

    s: np.ndarray
    psi: tuple

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise InputError("spectral data needs at least one singular value")
        if np.any(s <= 0.0):
            raise InputError("stored singular values must be positive")
        if np.any(np.diff(s) >= -1e-12 * s[0]):
            raise InputError("singular values must be strictly decreasing")
        psi = tuple(self.psi)
        if len(psi) != s.size:
            raise InputError("need exactly one Blaschke product per singular value")
        s.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "psi", psi)

    @property
    def n(self) -> int:
        return self.s.size

    @property
    def q(self) -> int:
        return (self.n + 1) // 2

    @property
    def degrees(self) -> tuple:
        """Blaschke degrees d_r, including the virtual zero slot when n is odd."""
        d = [b.degree for b in self.psi]
        if self.n % 2 == 1:
            d.append(0)
        return tuple(d)

    @property
    def total_degree(self) -> int:
        """The rank of the synthesized symbol: q + sum of all Blaschke degrees."""
        return self.q + sum(self.degrees)

    def interlaced(self) -> bateman.InterlacedValues:
        return bateman.InterlacedValues.from_singular_values(self.s)

    def energy(self) -> float:
        """Alternating quartic sum: (1/4) * sum_r (-1)**(r-1) s_r**4."""
        signs = (-1.0) ** np.arange(self.n)
        return float(0.25 * np.sum(signs * self.s ** 4))

    def with_angles(self, angles) -> "SpectralData":
        psi = tuple(BlaschkeProduct(a, b.p) for a, b in zip(angles, self.psi))
        return SpectralData(self.s, psi)

    def angles(self) -> np.ndarray:
        return np.array([b.angle for b in self.psi])


def cluster_eigenvalues(eigs: np.ndarray, rel_tol: float = DEFAULT_REL_TOL):
    """Group descending nonnegative eigenvalues into multiplicity clusters.

    Adjacent values within rel_tol of the largest eigenvalue merge; values
    below the absolute floor 1e-12 * max form the zero cluster.  Returns a
    list of (mean value, index list, is_zero).  A gap between clusters
    below 3 * rel_tol * max triggers an ambiguity warning.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        return []
    top = eigs[0]
    if top <= 0.0:
        return [(0.0, list(range(eigs.size)), True)]
    floor = ZERO_FLOOR_REL * top
    scale = rel_tol * top
    clusters = []
    current = [0]
    positive_count = int(np.sum(eigs > floor))
    for i in range(1, positive_count):
        if eigs[i - 1] - eigs[i] <= scale:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    if positive_count:
        clusters.append(current)
    out = [(float(np.mean(eigs[idx])), idx, False) for idx in clusters]
    for a, b in zip(out[:-1], out[1:]):
        gap = eigs[a[1][-1]] - eigs[b[1][0]]
        if gap < AMBIGUOUS_GAP_FACTOR * scale:
            warnings.warn(
                f"cluster gap {gap:.3e} is within 3x the grouping tolerance",
                AmbiguousClusterWarning, stacklevel=2)
    if positive_count < eigs.size:
        out.append((0.0, list(range(positive_count, eigs.size)), True))
    return out


def _enrich(raw, vectors, u_coeffs, norm_u, kind):
    clusters = []
    for value, idx, is_zero in raw:
        basis = vectors[:, idx]
        coef = basis.conj().T @ u_coeffs
        proj = basis @ coef
        pnorm = float(np.linalg.norm(proj))
        clusters.append(MultiplicityCluster(
            value=value, s=float(np.sqrt(max(value, 0.0))), dim=len(idx),
            indices=tuple(idx), basis=basis, projection_of_u=proj,
            projection_norm=pnorm, member=pnorm > MEMBERSHIP_REL * norm_u,
            kind=kind, is_zero=is_zero))
    return clusters


def sigma_membership(u: Symbol, rel_tol: float = DEFAULT_REL_TOL):
    """Cluster both squares and assign each essential value to one side.

    Up to 512 modes the dense pair is fully diagonalized; above that, the
    matrix-free squares give their top rank bound + 2 eigenpairs (64 for
    a non-rational symbol) by Lanczos.  Cross-checks: an essential value
    on both sides, or a matched pair of clusters whose dimensions do not
    differ by exactly one, is a structural contradiction and raises.
    Returns (clusters_h, clusters_k, zero_in_shifted,
    shifted_kernel_projection).
    """
    norm_u = u.l2_norm
    n = u.n_modes
    if n <= DENSE_EIG_MAX:
        pair = build_pair(u)
        es_h = hermitian_eigs(pair.h2)
        es_k = hermitian_eigs(pair.k2)
    else:
        if u.rational is not None:
            bound = max(u.rational.den.degree, u.rational.num.degree + 1)
            k = min(bound + 2, n - 2)
        else:
            k = min(64, n - 2)
        h2 = square_operator(u.coeffs)
        k2 = square_operator(shifted_coeffs(u))
        es_h = hermitian_eigs(h2, k=k)
        check_shifted_square(h2, k2, u.coeffs, es_h.values[0])
        es_k = hermitian_eigs(k2, k=k)
    raw_h = cluster_eigenvalues(es_h.values, rel_tol)
    raw_k = cluster_eigenvalues(es_k.values, rel_tol)
    clusters_h = _enrich(raw_h, es_h.vectors, u.coeffs, norm_u, "H")
    clusters_k = _enrich(raw_k, es_k.vectors, u.coeffs, norm_u, "K")

    top = max(es_h.values[0], 1e-300)
    match_tol = rel_tol * top
    pos_h = [c for c in clusters_h if not c.is_zero]
    pos_k = [c for c in clusters_k if not c.is_zero]
    # 0 sits in the shifted spectrum exactly when the shifted rank is one
    # short of the plain rank.  Ranks add the cluster dimensions over all
    # detected values (an essential value contributes its own dimension on
    # its side and the matched dimension, possibly zero, on the other),
    # which is far more robust than thresholding a kernel projection.
    rank_h = rank_k = 0
    for ch in pos_h:
        mk = [c for c in pos_k if abs(c.value - ch.value) <= match_tol]
        dim_k = mk[0].dim if mk else 0
        if ch.member:
            if mk and mk[0].member:
                raise SpectralInconsistencyError(
                    f"value {ch.s:.6g} claims membership on both sides")
            if ch.dim - dim_k != 1:
                raise SpectralInconsistencyError(
                    f"essential plain value {ch.s:.6g}: dims {ch.dim} vs {dim_k} "
                    "(difference must be 1)")
            rank_h += ch.dim
            rank_k += dim_k
    for ck in pos_k:
        mh = [c for c in pos_h if abs(c.value - ck.value) <= match_tol]
        dim_h = mh[0].dim if mh else 0
        if ck.member:
            if ck.dim - dim_h != 1:
                raise SpectralInconsistencyError(
                    f"essential shifted value {ck.s:.6g}: dims {ck.dim} vs {dim_h} "
                    "(difference must be 1)")
            rank_k += ck.dim
            rank_h += dim_h

    # The symbol is orthogonal to the kernel of the plain operator, so the
    # essential plain projections must add back to the symbol.
    res_h = u.coeffs - sum(c.projection_of_u for c in pos_h if c.member)
    if np.linalg.norm(res_h) > 1e-6 * norm_u:
        raise SpectralInconsistencyError(
            "essential plain projections do not reassemble the symbol "
            f"(residual {np.linalg.norm(res_h):.3e})")
    res_k = u.coeffs - sum(c.projection_of_u for c in pos_k if c.member)
    if rank_h not in (rank_k, rank_k + 1):
        raise SpectralInconsistencyError(
            f"plain rank {rank_h} vs shifted rank {rank_k}: "
            "must be equal or differ by one")
    zero_in_shifted = rank_h == rank_k + 1
    return clusters_h, clusters_k, zero_in_shifted, res_k


def extract_blaschke(num_vec: np.ndarray, den_vec: np.ndarray,
                     m: int) -> BlaschkeProduct:
    """Fit the pointwise ratio num(z)/den(z) on the circle as an inner factor.

    The ratio of an essential cluster has an exact representation
    exp(-i*psi) * P(z)/D(z) with P monic Schur of degree exactly m - 1 and
    D its reflection.  Grid points where the denominator nearly vanishes
    (both functions share those zeros) are masked out of the fit.
    """
    d = m - 1
    size = next_pow2(max(8 * (d + 1), 32))
    for attempt in range(2):
        nv = grid_transform(np.asarray(num_vec, dtype=complex), size).samples
        dv = grid_transform(np.asarray(den_vec, dtype=complex), size).samples
        points = np.exp(2j * np.pi * np.arange(size) / size)
        scale = float(np.max(np.abs(dv)))
        if scale == 0.0:
            raise InputError("ratio denominator vanishes identically")
        good = np.abs(dv) > 1e-6 * scale
        if int(good.sum()) >= 4 * d + 3:
            break
        size *= 4
    else:
        raise FitError("could not find enough well-conditioned ratio samples")
    ratio = nv[good] / dv[good]
    num, den, residual = fit_rational_samples(points[good], ratio, d, d)
    if (not np.isfinite(residual)
            or residual > RATIO_FIT_TOL * float(np.max(np.abs(ratio)))):
        raise FitError(f"inner-factor fit residual {residual:.3e} above tolerance")
    if num.degree != d:
        raise DegreeMismatchError(
            f"fitted inner factor has degree {num.degree}, expected {d}")
    lead = num.coeffs[-1]
    if abs(abs(lead) - 1.0) > UNIMODULAR_TOL:
        raise NotInnerError(
            f"leading coefficient modulus {abs(lead):.6f} is not 1")
    monic = num * (1.0 / lead)
    if not is_schur_poly(monic):
        raise NotInnerError("fitted numerator is not a Schur polynomial")
    reflected = conj_reflect(monic, d)
    mismatch = np.max(np.abs(den.padded(d + 1) - reflected.padded(d + 1)))
    if mismatch > UNIMODULAR_TOL * max(1.0, float(np.max(np.abs(reflected.coeffs)))):
        raise NotInnerError(
            f"fitted denominator is not the reflected numerator (gap {mismatch:.3e})")
    psi = normalize_angle(-float(np.angle(lead)))
    b = BlaschkeProduct(psi, monic)
    check = np.exp(2j * np.pi * np.arange(64) / 64)
    uni = float(np.max(np.abs(np.abs(b(check)) - 1.0)))
    if uni > UNIMODULAR_TOL:
        raise NotInnerError(f"fitted factor is off the unit circle by {uni:.3e}")
    return b


@dataclass(frozen=True, eq=False)
class ForwardDetails:
    """Inspection payload accompanying a forward analysis."""

    clusters_h: list
    clusters_k: list
    essential: list        # MultiplicityCluster per stored singular value
    kernel_projection: np.ndarray
    zero_in_shifted: bool


def forward(u: Symbol, rel_tol: float = DEFAULT_REL_TOL, details: bool = False):
    """Full spectral analysis of a symbol.

    Returns SpectralData, or (SpectralData, ForwardDetails) when details
    is requested.  Truncations above 512 modes form no N x N matrix (see
    sigma_membership).
    """
    if u.l2_norm == 0.0:
        raise InputError("symbol is numerically zero")
    clusters_h, clusters_k, zero_in_shifted, kernel_proj = sigma_membership(
        u, rel_tol)
    ess_h = [c for c in clusters_h if c.member and not c.is_zero]
    ess_k = [c for c in clusters_k if c.member and not c.is_zero]
    if zero_in_shifted:
        if len(ess_k) != len(ess_h) - 1:
            raise SpectralInconsistencyError(
                f"{len(ess_h)} plain vs {len(ess_k)} shifted essential values "
                "with a zero on the shifted side")
    elif len(ess_k) != len(ess_h):
        raise SpectralInconsistencyError(
            f"{len(ess_h)} plain vs {len(ess_k)} shifted essential values")
    merged = []
    for i, c in enumerate(ess_h):
        merged.append(c)
        if i < len(ess_k):
            merged.append(ess_k[i])
    values = np.array([c.s for c in merged])
    if np.any(np.diff(values) >= 0.0):
        raise SpectralInconsistencyError(
            "essential values do not strictly interlace plain/shifted/plain/...")
    psi = []
    for c in merged:
        proj = c.projection_of_u
        if c.kind == "H":
            b = extract_blaschke(c.s * proj, apply_H(u, proj), c.dim)
        else:
            b = extract_blaschke(apply_K(u, proj), c.s * proj, c.dim)
        psi.append(b)
    data = SpectralData(values, tuple(psi))
    if details:
        return data, ForwardDetails(clusters_h, clusters_k, merged,
                                    kernel_proj, zero_in_shifted)
    return data


@dataclass(frozen=True, eq=False)
class RealDiagnostics:
    """Self-adjoint case checks for a symbol with real coefficients."""

    lambdas: np.ndarray       # signed eigenvalues of the plain matrix
    mus: np.ndarray           # signed eigenvalues of the shifted matrix
    interlace_ok: bool
    balance_ok: bool          # plus/minus counts differ by at most 1 per value
    strings_ok: bool          # maximal runs of equal interleaved moduli are odd
    angles_ok: bool           # all fitted angles lie in {0, pi}
    angles: np.ndarray
    passed: bool
    failures: tuple


def _signed_eigs(matrix: np.ndarray) -> np.ndarray:
    """Signed eigenvalues of the real part, largest modulus first."""
    vals = np.linalg.eigvalsh(matrix.real.astype(float))
    return vals[np.argsort(np.abs(vals))[::-1]]


def real_diagnostics(u: Symbol, tol: float = 1e-6) -> RealDiagnostics:
    """Run the self-adjoint structure checks on a real-coefficient symbol.

    The plain matrix is real symmetric, so its signed eigenvalues lambda_j
    and those of the shifted matrix mu_k satisfy: moduli interlace
    |lambda_1| >= |mu_1| >= |lambda_2| >= ..., for each modulus the counts
    of positive and negative entries differ by at most one, maximal runs of
    equal interleaved moduli have odd length, and every fitted angle is 0
    or pi.
    """
    if np.max(np.abs(u.coeffs.imag)) > 1e-12 * max(u.l2_norm, 1e-300):
        raise InputError("real diagnostics require real coefficients")
    lambdas = _signed_eigs(dense_hankel(u.coeffs))
    mus = _signed_eigs(dense_hankel(shifted_coeffs(u)))
    top = float(abs(lambdas[0]))
    floor = REAL_ZERO_FLOOR_REL * max(top, 1e-300)
    lambdas = lambdas[np.abs(lambdas) > floor]
    mus = mus[np.abs(mus) > floor]

    failures = []
    interleaved = []
    for i in range(max(lambdas.size, mus.size)):
        if i < lambdas.size:
            interleaved.append(abs(lambdas[i]))
        if i < mus.size:
            interleaved.append(abs(mus[i]))
    interleaved = np.array(interleaved)
    slack = tol * max(top, 1e-300)
    interlace_ok = bool(np.all(np.diff(interleaved) <= slack))
    if not interlace_ok:
        failures.append("moduli interlacing")

    balance_ok = True
    for vals in (lambdas, mus):
        moduli = np.abs(vals)
        for v in np.unique(np.round(moduli / max(top, 1e-300) / 1e-8) * 1e-8):
            sel = np.abs(moduli / max(top, 1e-300) - v) <= 1e-8
            plus = int(np.sum(vals[sel] > 0))
            minus = int(np.sum(vals[sel] < 0))
            if abs(plus - minus) > 1:
                balance_ok = False
    if not balance_ok:
        failures.append("sign balance")

    strings_ok = True
    if interleaved.size:
        run = 1
        for a, b in zip(interleaved[:-1], interleaved[1:]):
            if abs(a - b) <= slack:
                run += 1
            else:
                if run % 2 == 0:
                    strings_ok = False
                run = 1
        if run % 2 == 0:
            strings_ok = False
    if not strings_ok:
        failures.append("odd string lengths")

    data = forward(u)
    angles = data.angles()
    dist = np.minimum(np.minimum(np.abs(angles), np.abs(angles - np.pi)),
                      np.abs(angles - 2 * np.pi))
    angles_ok = bool(np.max(dist) <= tol) if angles.size else True
    if not angles_ok:
        failures.append("angles in {0, pi}")

    return RealDiagnostics(lambdas, mus, interlace_ok, balance_ok, strings_ok,
                           angles_ok, angles, passed=not failures,
                           failures=tuple(failures))
