"""The forward spectral map: symbol to interlaced values and inner factors.

Pipeline: read the plain and shifted eigensystems off the symbol's
HankelPair (one SVD of each factor, checked and lifted by the pair), group
them into multiplicity clusters, pair the plain and shifted clusters of
each value and keep the side one dimension larger, onto which the symbol
projects, and recover the inner factor of each such essential cluster from
the pointwise ratio of the projection against the antilinear image of the
projection.

The essential values strictly interlace, plain side first.  An odd count
means the zero singular value sits on the shifted side; it is detected but
never stored, so the spectral data holds positive values only.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import bateman
from .algebra import (TRIM_REL, Poly, fit_rational_samples, grid_transform, is_schur,
                      next_pow2)
from .blaschke import BlaschkeProduct, normalize_angle
from .errors import (AmbiguousClusterWarning, DegreeMismatchError, FitError,
                     InputError, NotInnerError, SpectralInconsistencyError)
from .hankel import HankelPair, Symbol, build_pair

CLUSTER_REL_TOL = 1e-6
MEMBERSHIP_REL = 1e-8
REAL_ZERO_FLOOR_REL = 1e-8
AMBIGUOUS_GAP_FACTOR = 3.0
RATIO_FIT_TOL = 1e-6
UNIMODULAR_TOL = 1e-6
REAL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class MultiplicityCluster:
    """A group of nearly equal eigenvalues of one of the two squares."""

    value: float            # mean eigenvalue of the square
    s: float                # its square root
    dim: int
    basis: np.ndarray       # orthonormal columns spanning the cluster
    projection_of_u: np.ndarray
    projection_norm: float
    member: bool            # does the symbol project onto this cluster
    kind: str               # "H" for the plain square, "K" for the shifted one


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
        if not np.all(np.isfinite(s)):
            raise InputError("singular values must be finite")
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


def _tol(value: float, top: float, floor: float) -> float:
    """Distance within which eigenvalues near value count as equal."""
    return CLUSTER_REL_TOL * value + floor * top


def cluster_eigenvalues(eigs: np.ndarray, top: float, floor: float):
    """Group the positive descending eigenvalues into multiplicity clusters.

    top is s_1**2, the top of the plain square, for both squares, and floor
    the pair's zero_floor.  Adjacent values merge when their gap is within
    _tol of the larger one; values at or below floor * top are the kernel
    and form no cluster.  A gap between clusters below 3 * _tol triggers
    an ambiguity warning.  Returns a list of (mean value, index array).
    """
    eigs = np.asarray(eigs, dtype=float)
    eigs = eigs[eigs > floor * top]
    gaps, tols = -np.diff(eigs), _tol(eigs[:-1], top, floor)
    cuts = np.flatnonzero(gaps > tols)
    for gap in gaps[cuts][gaps[cuts] < AMBIGUOUS_GAP_FACTOR * tols[cuts]]:
        warnings.warn(
            f"cluster gap {gap:.3e} is within 3x the grouping tolerance",
            AmbiguousClusterWarning, stacklevel=2)
    groups = np.split(np.arange(eigs.size), cuts + 1) if eigs.size else []
    return [(float(np.mean(eigs[idx])), idx) for idx in groups]


def _enrich(raw, vectors, u_coeffs, norm_u, kind):
    clusters = []
    for value, idx in raw:
        basis = vectors[:, idx]
        coef = basis.conj().T @ u_coeffs
        proj = basis @ coef
        pnorm = float(np.linalg.norm(proj))
        clusters.append(MultiplicityCluster(
            value=value, s=float(np.sqrt(value)), dim=len(idx),
            basis=basis, projection_of_u=proj,
            projection_norm=pnorm, member=pnorm > MEMBERSHIP_REL * norm_u,
            kind=kind))
    return clusters


@dataclass(frozen=True, eq=False)
class ForwardDetails:
    """Inspection payload accompanying a forward analysis.

    pair is the HankelPair the clusters come from, and says how they were
    computed: pair.path is "rational" (the exact section's m x N strips)
    or "range" (a coefficient-only symbol's r x N strips on its range
    frame), pair.core_size is m or r, and eigenvalues at or below
    pair.zero_floor * s_1**2 were taken as zero.  forward fits the inner
    factors against pair.actions, the antilinear maps whose eigenvectors
    the clusters hold.
    """

    clusters_h: list
    clusters_k: list
    essential: list        # MultiplicityCluster per stored singular value
    pair: HankelPair

    @property
    def zero_in_shifted(self) -> bool:
        return len(self.essential) % 2 == 1


def sigma_membership(u: Symbol) -> ForwardDetails:
    """Cluster both squares and walk them once for the essential values.

    build_pair gives both factors: m x N strips on the core of a rational
    symbol, r x N strips on a range frame for a coefficient-only one.
    The pair's plain and shifted eigensystems square the singular values
    of each, after the identity check, with eigenvectors of length N.
    Clustering uses the pair's zero_floor.  One pass down both descending
    cluster lists pairs a plain and a shifted cluster within _tol as one
    value (an unmatched cluster has a match of dimension 0).
    As the paper proves, the two dimensions differ by exactly one; the
    larger side is essential, the smaller must not see the symbol, and the
    essential values alternate plain/shifted/plain/... from the top, or
    SpectralInconsistencyError is raised.  An odd essential count puts the
    zero on the shifted side.
    """
    norm_u = u.l2_norm
    pair = build_pair(u)
    es_h, es_k = pair.plain, pair.shifted
    top, floor = es_h.values[0], pair.zero_floor
    clusters_h = _enrich(cluster_eigenvalues(es_h.values, top, floor), es_h.vectors,
                         u.coeffs, norm_u, "H")
    clusters_k = _enrich(cluster_eigenvalues(es_k.values, top, floor), es_k.vectors,
                         u.coeffs, norm_u, "K")

    essential = []
    i = j = 0
    while i < len(clusters_h) or j < len(clusters_k):
        ch = clusters_h[i] if i < len(clusters_h) else None
        ck = clusters_k[j] if j < len(clusters_k) else None
        # the larger cluster stands alone unless the other one matches it
        if ch is not None and ck is not None:
            tol = _tol(max(ch.value, ck.value), top, floor)
            if ch.value > ck.value + tol:
                ck = None
            elif ck.value > ch.value + tol:
                ch = None
        i += ch is not None
        j += ck is not None
        dim_h, dim_k = (c.dim if c is not None else 0 for c in (ch, ck))
        ess, other = (ch, ck) if dim_h > dim_k else (ck, ch)
        if abs(dim_h - dim_k) != 1:
            raise SpectralInconsistencyError(
                f"value {ess.s:.6g}: plain and shifted dims {dim_h} vs {dim_k} "
                "(difference must be 1)")
        if other is not None and other.member:
            raise SpectralInconsistencyError(
                f"value {ess.s:.6g} claims membership on both sides")
        side = "plain" if ess.kind == "H" else "shifted"
        if ess.kind != "HK"[len(essential) % 2]:
            raise SpectralInconsistencyError(
                f"essential {side} value {ess.s:.6g} breaks the "
                "plain/shifted/plain/... interlacing")
        essential.append(ess)

    # The symbol is orthogonal to the kernel of the plain operator, so the
    # essential plain projections must add back to the symbol.
    res_h = u.coeffs - sum(c.projection_of_u for c in essential if c.kind == "H")
    if np.linalg.norm(res_h) > 1e-6 * norm_u:
        raise SpectralInconsistencyError(
            "essential plain projections do not reassemble the symbol "
            f"(residual {np.linalg.norm(res_h):.3e})")
    return ForwardDetails(clusters_h, clusters_k, essential, pair)


@functools.lru_cache(maxsize=32)
def _circle_powers(size: int, degree: int) -> np.ndarray:
    """z**j at the size-th roots of unity z (rows), j = 0..degree (columns)."""
    powers = np.exp(2j * np.pi * np.arange(size) / size)[:, None] ** np.arange(degree + 1)
    powers.flags.writeable = False
    return powers


def _raise_rows(error, failed: np.ndarray, label, describe) -> None:
    """Raise error naming the first failed row of a batch, if any failed.

    label(i) names row i (default "row i"); describe(i) gives the check
    and the number that tripped it.
    """
    if failed.any():
        rows = np.flatnonzero(failed)
        r = int(rows[0])
        name = f"row {r}" if label is None else label(r)
        more = f" ({rows.size} of {failed.size} rows failed)" if rows.size > 1 else ""
        raise error(f"{name}: {describe(r)}{more}")


def fit_circle_ratio(num_vecs: np.ndarray, den_vecs: np.ndarray, d: int,
                     label=None):
    """Fit the pointwise ratios num(z)/den(z) on the circle with degrees (d, d).

    num_vecs and den_vecs are (k, N) stacks of coefficient rows.  One FFT
    samples all 2k rows on a common grid of at least 8 (d + 1) roots of
    unity.  Each row masks the grid points where its denominator falls
    below 1e-6 of its peak (an inner ratio's two sides share those zeros);
    if any row keeps fewer than 4 d + 3 points, the grid is refined once by
    a factor 4.  One batched fit_rational_samples call fits every row.
    Returns the stacked (num, den, residual, ratio samples, mask); raises
    FitError, naming the row (label(i), default "row i"), when a fit
    misses its samples by more than 1e-6 of their largest modulus.
    """
    vecs = np.concatenate([num_vecs, den_vecs])
    k = vecs.shape[0] // 2
    need = 4 * d + 3
    size = next_pow2(max(8 * (d + 1), 32))
    for _ in range(2):
        samples = grid_transform(vecs, size)
        nv, dv = samples[:k], np.abs(samples[k:])
        peak = dv.max(axis=-1)
        _raise_rows(InputError, peak == 0.0, label,
                    lambda r: "ratio denominator vanishes identically")
        good = dv > 1e-6 * peak[:, None]
        kept = good.sum(axis=-1)
        if kept.min() >= need:
            break
        size *= 4
    else:
        _raise_rows(FitError, kept < need, label,
                    lambda r: f"only {kept[r]} of {size} ratio samples are "
                              f"well conditioned (need {need})")
    ratio = np.divide(nv, samples[k:], out=np.zeros_like(nv), where=good)
    points = _circle_powers(size, 1)[:, 1]
    num, den, residual = fit_rational_samples(points, ratio, d, d, use=good)
    limit = RATIO_FIT_TOL * np.abs(ratio).max(axis=-1)
    _raise_rows(FitError, ~(residual <= limit), label,
                lambda r: f"ratio fit residual {residual[r]:.3e} above "
                          f"tolerance {limit[r]:.3e}")
    return num, den, residual, ratio, good


def extract_blaschke(num_vecs: np.ndarray, den_vecs: np.ndarray, m: int,
                     label=None) -> list:
    """Fit the pointwise ratios num(z)/den(z) on the circle as inner factors.

    The ratio of an essential cluster of dimension m has an exact
    representation exp(-i*psi) * P(z)/D(z) with P monic Schur of degree
    exactly m - 1 and D its reflection.  All rows of the (k, N) stacks
    share one fit_circle_ratio call, and each check runs on all rows before
    the next: degree exactly m - 1 under the 1e-12 trim rule, a leading
    coefficient of unit modulus, Schur-Cohn on the monic rows, a
    denominator equal to the reflected numerator, and unimodularity at 64
    points (each within 1e-6).  A failed check raises, naming the first
    row that tripped it (label(i), default "row i") and the number.
    Returns one BlaschkeProduct per row.
    """
    d = m - 1
    num, den, _, _, _ = fit_circle_ratio(num_vecs, den_vecs, d, label)
    mag = np.abs(num)
    _raise_rows(DegreeMismatchError, mag[:, d] <= TRIM_REL * mag.max(axis=-1),
                label, lambda r: f"fitted inner factor has degree "
                                  f"{Poly(num[r]).degree}, expected {d}")
    k, lead = num.shape[0], num[:, d]
    _raise_rows(NotInnerError, np.abs(np.abs(lead) - 1.0) > UNIMODULAR_TOL, label,
                lambda r: f"leading coefficient modulus {abs(lead[r]):.6f} is not 1")
    monic = num * (1.0 / lead)[:, None]
    monic[:, d] = 1.0
    # the recursion runs row by row: on Python scalars it is about twice
    # as fast per row as on the stack for the few rows a batch holds
    schur = np.array([is_schur(row[-2::-1]) for row in monic])
    _raise_rows(NotInnerError, ~schur, label,
                lambda r: "fitted numerator is not a Schur polynomial")
    reflected = np.conj(monic[:, ::-1])
    mismatch = np.abs(den - reflected).max(axis=-1)
    allowed = UNIMODULAR_TOL * np.maximum(1.0, np.abs(reflected).max(axis=-1))
    _raise_rows(NotInnerError, mismatch > allowed, label,
                lambda r: "fitted denominator is not the reflected numerator "
                          f"(gap {mismatch[r]:.3e})")
    on_circle = np.abs(np.concatenate([monic, reflected]) @ _circle_powers(64, d).T)
    p_mod, d_mod = on_circle[:k], on_circle[k:]
    uni = np.abs(np.divide(p_mod, d_mod, out=np.full_like(p_mod, np.inf),
                           where=d_mod >= 1e-14) - 1.0).max(axis=-1)
    _raise_rows(NotInnerError, ~(uni <= UNIMODULAR_TOL), label,
                lambda r: f"fitted factor is off the unit circle by {uni[r]:.3e}")
    return [BlaschkeProduct(normalize_angle(a), Poly(p))
            for a, p in zip(-np.angle(lead), monic)]


def _inner_factors(info: ForwardDetails) -> tuple:
    """The BlaschkeProduct of every essential cluster, in order.

    Clusters of one dimension form one batch: their projections P go
    through their side's action as one block (one product F (A conj(P))
    per side on the rational core) and through one extract_blaschke call.
    """
    essential = info.essential
    plain, shifted = info.pair.actions
    groups = {}
    for r, c in enumerate(essential):
        groups.setdefault(c.dim, []).append(r)
    psi = [None] * len(essential)
    for dim, rows in sorted(groups.items()):
        batch = [essential[r] for r in rows]
        proj = np.array([c.projection_of_u for c in batch])
        scaled = np.array([[c.s] for c in batch]) * proj
        # plain rows fit s P / H(P), shifted rows K(P) / s P
        plain_rows = np.array([[c.kind == "H"] for c in batch])
        num = den = scaled
        if plain_rows.any():
            den = np.where(plain_rows, plain(proj.T).T, scaled)
        if not plain_rows.all():
            num = np.where(plain_rows, scaled, shifted(proj.T).T)

        def label(i, rows=rows, batch=batch):
            side = "plain" if batch[i].kind == "H" else "shifted"
            return f"value r = {rows[i] + 1} (s_r = {batch[i].s:.6g}, {side} side)"

        for r, b in zip(rows, extract_blaschke(num, den, dim, label)):
            psi[r] = b
    return tuple(psi)


def forward(u: Symbol, details: bool = False):
    """Full spectral analysis of a symbol.

    Returns SpectralData, or (SpectralData, ForwardDetails) when details
    is requested.  No N x N matrix is formed (see sigma_membership).  The
    inner factors are fitted in one batched pass per cluster dimension
    (_inner_factors): extract_blaschke runs once per distinct dimension,
    not once per value.
    """
    if u.l2_norm == 0.0:
        raise InputError("symbol is numerically zero")
    info = sigma_membership(u)
    data = SpectralData(np.array([c.s for c in info.essential]), _inner_factors(info))
    return (data, info) if details else data


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
    """Eigenvalues of a Hermitian matrix, largest modulus first."""
    vals = np.linalg.eigvalsh(matrix)
    return vals[np.argsort(np.abs(vals))[::-1]]


def real_diagnostics(u: Symbol) -> RealDiagnostics:
    """Run the self-adjoint structure checks on a real-coefficient symbol.

    The plain matrix is real symmetric, so its signed eigenvalues lambda_j
    and those of the shifted matrix mu_k satisfy: moduli interlace
    |lambda_1| >= |mu_1| >= |lambda_2| >= ..., for each modulus the counts
    of positive and negative entries differ by at most one, maximal runs of
    equal interleaved moduli have odd length, and every fitted angle is 0
    or pi, all to a tolerance of 1e-6 (of the top modulus for the moduli).
    One forward analysis gives the angles and its pair the signed
    eigenvalues, from the strips on the frame F: the plain matrix is F a0
    with range(F) holding its range, so its nonzero eigenvalues are those
    of the r x r Hermitian matrix a0 F (= F* G F), and likewise a1 F for
    the shifted one.
    """
    if u.l2_norm == 0.0:
        raise InputError("symbol is numerically zero")
    if np.max(np.abs(u.coeffs.imag)) > 1e-12 * u.l2_norm:
        raise InputError("real diagnostics require real coefficients")
    data, details = forward(u, details=True)
    pair = details.pair
    lambdas, mus = (_signed_eigs(a @ pair.frame) for a in (pair.a0, pair.a1))
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
    slack = REAL_TOL * max(top, 1e-300)
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

    angles = data.angles()
    dist = np.minimum(np.minimum(np.abs(angles), np.abs(angles - np.pi)),
                      np.abs(angles - 2 * np.pi))
    angles_ok = bool(np.max(dist) <= REAL_TOL) if angles.size else True
    if not angles_ok:
        failures.append("angles in {0, pi}")

    return RealDiagnostics(lambdas, mus, interlace_ok, balance_ok, strings_ok,
                           angles_ok, angles, passed=not failures,
                           failures=tuple(failures))
