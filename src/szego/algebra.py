"""Complex polynomial and rational arithmetic on the unit circle.

Coefficient convention is degree-0 first throughout.  Poly and
RationalFunction are the public types; the circle helpers below them
take coefficient arrays, with rows stacked along the last axis.  The
workhorses are grid_transform, the one map from coefficients to samples
at roots of unity, the determinant and first minors of a polynomial
matrix sampled on such a grid, and a least-squares rational fit used to
recover inner functions from pointwise ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg.lapack import ztbtrs

from .errors import InputError, NotAnalyticError

TRIM_REL = 1e-12
COPRIME_TOL = 1e-10
COMPANION_MAX_DEGREE = 64
MINOR_BLOCK_BYTES = 4 << 20
_EPS = np.finfo(float).eps


def next_pow2(n: int) -> int:
    """Smallest power of two that is >= max(n, 1)."""
    return 1 << max(int(n) - 1, 0).bit_length()


def trim_coeffs(c) -> np.ndarray:
    """Drop trailing coefficients below 1e-12 of the largest modulus.

    The zero polynomial comes back as an empty array.
    """
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    if c.size == 0:
        return c
    top = np.abs(c).max()
    if top == 0.0:
        return c[:0]
    keep = np.nonzero(np.abs(c) > TRIM_REL * top)[0]
    if keep.size == 0:
        return c[:0]
    return c[: keep[-1] + 1]


@dataclass(frozen=True, eq=False)
class Poly:
    """Polynomial with complex coefficients, degree-0 coefficient first.

    Normalized on construction: trailing near-zero coefficients (relative
    threshold 1e-12) are removed, so ``coeffs[-1]`` is significant and the
    zero polynomial has an empty coefficient array and degree -1.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = trim_coeffs(self.coeffs)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __bool__(self) -> bool:
        return self.coeffs.size > 0

    def __call__(self, z):
        if self.coeffs.size == 0:
            return np.zeros_like(np.asarray(z, dtype=complex))
        return npoly.polyval(z, self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(npoly.polyadd(self._c(), other._c()))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(npoly.polysub(self._c(), other._c()))

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self or not other:
                return Poly(np.zeros(0))
            return Poly(np.convolve(self.coeffs, other.coeffs))
        return Poly(self._c() * complex(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Poly":
        return Poly(-self._c())

    def _c(self) -> np.ndarray:
        return self.coeffs if self.coeffs.size else np.zeros(1, dtype=complex)

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=complex)
        out[: self.coeffs.size] = self.coeffs
        return out

    def roots(self) -> np.ndarray:
        if self.degree < 1:
            return np.zeros(0, dtype=complex)
        return npoly.polyroots(self.coeffs)

    @staticmethod
    def one() -> "Poly":
        return Poly(np.ones(1, dtype=complex))

    @staticmethod
    def zero() -> "Poly":
        return Poly(np.zeros(0))


def reflect_coeffs(c: np.ndarray, d: int) -> np.ndarray:
    """Coefficients of z**d * conj(p)(1/z) from those of p (at most d + 1).

    Coefficient k is the conjugate of coefficient d-k of p.  Only exact
    zeros are dropped from the top, however small the last one kept is.
    """
    if c.size > d + 1:
        raise InputError(f"reflection: degree {c.size - 1} exceeds bound {d}")
    out = np.zeros(d + 1, dtype=complex)
    out[d + 1 - c.size:] = np.conj(c[::-1])
    nonzero = np.flatnonzero(out)
    return out[: nonzero[-1] + 1] if nonzero.size else out[:0]


def is_schur(a) -> bool:
    """Decide whether z**d + a[0]*z**(d-1) + ... + a[d-1] has all roots in |z| < 1.

    a lists the non-leading coefficients from degree d-1 down to degree 0.
    Empty a (a constant polynomial) counts as Schur.  The Schur-Cohn step

        b_k = (a_k - a_d * conj(a_{d-k})) / (1 - |a_d|**2)

    maps degree-d Schur coefficient vectors onto degree-(d-1) ones.
    """
    a = np.asarray(a, dtype=complex)
    while a.size:
        last = a[-1]
        if abs(last) >= 1.0:
            return False
        head = a[:-1]
        a = (head - last * np.conj(head[::-1])) / (1.0 - abs(last) ** 2)
    return True


def root_free_on_closed_disc(c: np.ndarray, margin: float = 0.0) -> bool:
    """True if the polynomial with coefficients c has no root of modulus
    <= 1 + margin.  c is trimmed, as Poly.coeffs is: its last entry is
    significant, and the zero polynomial is the empty array.

    Companion-matrix roots for degree <= 64.  Above that the Schur-Cohn
    recursion counts the roots inside the disc: p((1 + margin) z) is root
    free there exactly when its reversal z**d p((1 + margin)/z) is Schur.
    """
    degree = c.size - 1
    if degree < 1:
        return bool(c.size)
    if degree <= COMPANION_MAX_DEGREE:
        return bool(np.min(np.abs(npoly.polyroots(c))) > 1.0 + margin)
    c = c * (1.0 + margin) ** np.arange(c.size)
    if c[0] == 0.0:
        return False
    return is_schur(c[1:] / c[0])


def series_divide(rhs: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Solve den * c = rhs modulo z**n for each column of the (n, k) rhs.

    den holds the denominator's coefficients with den[0] = 1, so this is
    a unit lower-triangular band Toeplitz system: one LAPACK banded
    forward substitution (ztbtrs, no pivoting) runs the coefficient
    recurrence on all columns.  The Fortran-ordered complex rhs is
    overwritten.
    """
    n = rhs.shape[0]
    d = min(den.size - 1, n - 1)
    if d >= 1:
        band = np.repeat(den[: d + 1, None], n, axis=1)
        rhs, _ = ztbtrs(band, rhs, uplo="L", diag="U", overwrite_b=True)
    return rhs


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """Quotient num/den of polynomials, analytic on the closed unit disc.

    The denominator is normalized to den(0) = 1 and validated to have no
    root of modulus <= 1.  Numerator and denominator are checked to be
    coprime (no common root within 1e-10) unless ``check_coprime`` is
    False; synthesized eigenspace components may share factors with the
    common denominator, so they skip the check.
    """

    num: Poly
    den: Poly

    def __init__(self, num: Poly, den: Poly, check_coprime: bool = True):
        if not den:
            raise NotAnalyticError("denominator is identically zero")
        d0 = den.coeffs[0] if den.coeffs.size else 0.0
        if abs(d0) < TRIM_REL * np.abs(den.coeffs).max():
            raise NotAnalyticError("denominator vanishes at z = 0")
        den = den * (1.0 / d0)
        num = num * (1.0 / d0)
        if not root_free_on_closed_disc(den.coeffs):
            raise NotAnalyticError("denominator has a root on the closed unit disc")
        if check_coprime and num and den.degree >= 1 \
                and max(num.degree, den.degree) <= COMPANION_MAX_DEGREE:
            nr, dr = num.roots(), den.roots()
            if nr.size and dr.size:
                dist = np.abs(nr[:, None] - dr[None, :])
                if dist.min() < COPRIME_TOL:
                    raise InputError("numerator and denominator share a root")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __call__(self, z):
        return self.num(z) / self.den(z)

    @property
    def rank_bound(self) -> int:
        """max(deg den, deg num + 1): the Hankel rank when num, den are coprime."""
        return max(self.den.degree, self.num.degree + 1)

    def taylor(self, n: int) -> np.ndarray:
        """First n Taylor coefficients at 0.

        They solve den * c = num modulo z**n (series_divide).
        """
        c = np.zeros((n, 1), dtype=complex)
        m = min(n, self.num.coeffs.size)
        c[:m, 0] = self.num.coeffs[:m]
        return series_divide(c, self.den.coeffs)[:, 0]

    @staticmethod
    def from_coeff_lists(num, den, check_coprime: bool = True) -> "RationalFunction":
        return RationalFunction(Poly(num), Poly(den), check_coprime=check_coprime)


def fold_coeffs(c: np.ndarray, m: int) -> np.ndarray:
    """Coefficients reduced modulo z**m - 1 and zero-padded to length m.

    Folds along the last axis, so a stack of coefficient rows folds in one
    call.  The reduction is exact at the M-th roots of unity, where z**M = 1.
    """
    c = np.asarray(c, dtype=complex)
    size = c.shape[-1]
    out = np.zeros(c.shape[:-1] + (-(-max(size, 1) // m) * m,), dtype=complex)
    out[..., :size] = c
    if out.shape[-1] == m:
        return out
    return out.reshape(c.shape[:-1] + (-1, m)).sum(axis=-2)


def grid_transform(c: np.ndarray, m: int) -> np.ndarray:
    """Samples at the M-th roots of unity of each coefficient row of c (exactly, via FFT).

    Rows stack along the last axis, so a (..., n) array gives (..., M)
    samples from one batched FFT.  Degrees >= M are handled by folding
    coefficients modulo M (fold_coeffs).
    """
    if m < 1 or (m & (m - 1)) != 0:
        raise InputError(f"grid size {m} is not a power of two")
    c = np.asarray(c, dtype=complex)
    # ifft zero-pads a shorter row itself, without fold_coeffs' copy
    return m * np.fft.ifft(c if c.shape[-1] <= m else fold_coeffs(c, m), m)


def polymatrix_det_minors(entries, degree_bound: int):
    """Determinant and all first minors of a matrix of polynomials, sampled
    at the M = next_pow2(2*degree_bound + 2) roots of unity.

    entries[k][j] is a coefficient array.  One batched grid_transform
    samples all q**2 entries.  The determinant and the q**2 minors, each a
    stack of index-deleted submatrices, are scalar determinants at every
    grid point, taken by batched np.linalg.det calls (one while the stack
    of submatrices stays under MINOR_BLOCK_BYTES, more otherwise).
    Returns the (M,) determinant samples and the (M, q, q) minor samples:
    minors[:, k, j] is the determinant of the matrix with row k and
    column j deleted (the plain minor, no cofactor sign); for q = 1 it is
    one.  The caller interpolates, so it can first multiply the samples
    by other polynomials of total degree below M.
    """
    q = len(entries)
    m = next_pow2(2 * degree_bound + 2)
    coeffs = np.empty((q, q, m), dtype=complex)
    for k, row in enumerate(entries):
        if len(row) != q:
            raise InputError("entry grid is not square")
        for j, entry in enumerate(row):
            coeffs[k, j] = fold_coeffs(entry, m)
    values = np.moveaxis(grid_transform(coeffs, m), -1, 0)
    minors = np.ones((m, q, q), dtype=complex)
    if q > 1:
        # keep[k] lists the indices other than k
        keep = np.array([[i for i in range(q) if i != k] for k in range(q)])
        rows = max(1, MINOR_BLOCK_BYTES // (16 * m * q * (q - 1) ** 2))
        for start in range(0, q, rows):
            ks = keep[start: start + rows]
            sub = values[:, ks[:, None, :, None], keep[None, :, None, :]]
            minors[:, start: start + ks.shape[0]] = np.linalg.det(sub)
    return np.linalg.det(values), minors


def fit_rational_samples(points: np.ndarray, values: np.ndarray,
                         num_deg: int, den_deg: int, use=None):
    """Least-squares rational fit num/den with den(0) = 1 at given points.

    Solves num(z_k) - values_k * den(z_k) = 0 in the least-squares sense
    for each row of the (k, M) stack values at once.  use is a boolean
    mask like values: a masked sample's equation is zeroed, which gives
    the same minimizer as dropping the sample.  One batched
    SVD gives the minimum-norm solution with gelsd's cutoff (singular
    values at or below eps * max(M, p) * sigma_1 count as zero, M the
    samples used, p the unknowns), so when the data has lower true degree
    the spurious common factors collapse to zero.  Returns the (k,
    num_deg + 1) and (k, den_deg + 1) coefficient stacks num and den, and
    the (k,) residual = max |num(z)/den(z) - values| over each row's used
    samples (inf when den nearly vanishes at one of them); no analyticity
    validation is performed here.
    """
    points = np.asarray(points, dtype=complex)
    values = np.asarray(values, dtype=complex)
    use = (np.ones(values.shape, dtype=bool) if use is None
           else np.asarray(use, dtype=bool))
    used = use.sum(axis=-1)
    n_unknowns = num_deg + den_deg + 1
    if used.min() < n_unknowns:
        raise InputError("not enough sample points for the requested degrees")
    values = np.where(use, values, 0.0)
    powers = np.ones((points.size, max(num_deg, den_deg) + 1), dtype=complex)
    powers[:, 1:] = points[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    pow_num, pow_den = powers[:, : num_deg + 1], powers[:, 1: den_deg + 1]
    a = np.empty(values.shape + (n_unknowns,), dtype=complex)
    a[..., : num_deg + 1] = pow_num
    a[..., num_deg + 1:] = -values[..., None] * pow_den
    a *= use[..., None]
    left, sv, right = np.linalg.svd(a, full_matrices=False)
    keep = sv > _EPS * np.maximum(used, n_unknowns)[:, None] * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    rhs = (values[:, None, :] @ left.conj())[:, 0] * inv
    x = (right.conj().transpose(0, 2, 1) @ rhs[..., None])[..., 0]
    num = x[:, : num_deg + 1]
    den = np.ones((x.shape[0], den_deg + 1), dtype=complex)
    den[:, 1:] = x[:, num_deg + 1:]
    den_vals = den[:, 1:] @ pow_den.T + 1.0
    bad = np.abs(den_vals) < 1e-14
    fitted = np.divide(num @ pow_num.T, den_vals, out=np.zeros_like(den_vals),
                       where=~bad)
    residual = np.max(np.where(use, np.abs(fitted - values), 0.0), axis=-1)
    residual[(bad & use).any(axis=-1)] = np.inf
    return num, den, residual
