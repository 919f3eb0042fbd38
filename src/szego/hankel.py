"""Truncated Hankel pairs: the operator of a symbol and of its left shift.

A symbol u(z) = sum c_n z**n is represented by its first N Fourier
coefficients, optionally backed by an exact rational form.  The Hankel
matrix G[n, k] = c_{n+k} acts antilinearly through h -> G conj(h); the
shifted matrix uses c_{n+k+1}.  Squares G G* and G~ G~* are Hermitian
positive semidefinite and satisfy the exact truncation identity

    (shifted square) = (square) - outer(u, conj(u)).

Matvecs run in O(N log N) through circulant embedding.  Up to N = 512
the squares are formed densely and fully diagonalized; above that they
stay matrix-free operators whose top eigenpairs come from Lanczos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .algebra import Poly, RationalFunction, grid_transform, next_pow2
from .errors import ConsistencyError, InputError, NumericalError

DENSE_EIG_MAX = 512
RESOLVED_TAIL_REL = 1e-8
BUILD_TAIL_REL = 1e-10
TRUNCATION_CAP = 8192
EIG_RESIDUAL_REL = 1e-10
ORTHONORMALITY_TOL = 1e-12
KU2_RESIDUAL_REL = 1e-10
IDENTITY_PROBES = 4


@dataclass(frozen=True, eq=False)
class Symbol:
    """Finitely many Fourier coefficients, plus an optional exact rational form."""

    coeffs: np.ndarray
    rational: RationalFunction | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise InputError("symbol needs at least one coefficient")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        if self.rational is not None:
            taylor = self.rational.taylor(c.size)
            scale = max(float(np.abs(c).max()), 1e-300)
            if np.max(np.abs(taylor - c)) > 1e-10 * scale:
                raise InputError("rational form disagrees with stored coefficients")

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    @property
    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    @property
    def resolved(self) -> bool:
        top = float(np.abs(self.coeffs).max())
        if top == 0.0:
            return True
        return abs(self.coeffs[-1]) <= RESOLVED_TAIL_REL * top

    def values_on_grid(self, m: int) -> np.ndarray:
        """Evaluate at the m-th roots of unity (m a power of two)."""
        return grid_transform(self.coeffs, m).samples

    @staticmethod
    def from_rational(rf: RationalFunction, n_modes: int | None = None) -> "Symbol":
        """Expand a rational symbol to a resolved truncation.

        The starting size is max(4 * rank_bound, 32) with
        rank_bound = max(deg den, deg num + 1); the size doubles (up to
        8192) until the trailing coefficient falls below 1e-10 of the
        largest, which implies the documented 1e-8 resolution bound.
        Polynomial symbols are exact at any size, so no doubling occurs.
        """
        rank_bound = max(rf.den.degree, rf.num.degree + 1)
        n = n_modes if n_modes is not None else max(4 * max(rank_bound, 1), 32)
        n = max(n, rf.num.degree + 1, 2)
        # lacunary series (denominator in z**m) have exact zeros between
        # live coefficients, so the tail is judged over a window of the
        # denominator's period, not the single trailing entry
        window = max(rf.den.degree, 1) + 1
        while True:
            c = rf.taylor(n)
            top = float(np.abs(c).max())
            if n_modes is not None or top == 0.0 or rf.den.degree == 0:
                break
            if np.abs(c[-window:]).max() <= BUILD_TAIL_REL * top or n >= TRUNCATION_CAP:
                break
            n *= 2
        return Symbol(c, rational=rf)


def resize_symbol(u: Symbol, n: int) -> Symbol:
    """Truncate or extend a symbol to exactly n coefficients.

    Extension uses the rational form when available and zero-pads
    otherwise; truncation drops the rational form since it no longer
    matches.
    """
    if n < 1:
        raise InputError("mode count must be positive")
    if n == u.n_modes:
        return u
    if u.rational is not None and n > u.n_modes:
        return Symbol(u.rational.taylor(n), rational=u.rational)
    out = np.zeros(n, dtype=complex)
    take = min(n, u.n_modes)
    out[:take] = u.coeffs[:take]
    return Symbol(out, rational=u.rational if n >= u.n_modes else None)


def shift_symbol(u: Symbol) -> Symbol:
    """Drop the constant term and shift: the symbol of (u - u(0)) / z."""
    if u.n_modes < 2:
        raise InputError("shift needs at least two stored coefficients")
    rat = None
    if u.rational is not None:
        p = u.rational.num - u.coeffs[0] * u.rational.den
        shifted = p.coeffs[1:] if p else p.coeffs
        rat = RationalFunction(Poly(shifted), u.rational.den, check_coprime=False)
    return Symbol(u.coeffs[1:], rational=rat)


def hankel_matvec(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_n = sum_k c_{n+k} x_k via circulant embedding, O(N log N)."""
    c = np.asarray(c, dtype=complex)
    x = np.asarray(x, dtype=complex)
    n = c.size
    if x.size != n:
        raise InputError("vector length does not match symbol truncation")
    if n == 1:
        return c * x
    size = next_pow2(2 * n - 1)
    conv = np.fft.ifft(np.fft.fft(c, size) * np.fft.fft(x[::-1], size))
    return conv[n - 1: 2 * n - 1]


class FastHankel:
    """Reusable FFT plan for repeated matvecs with one coefficient vector."""

    def __init__(self, c: np.ndarray):
        self.c = np.asarray(c, dtype=complex)
        self.n = self.c.size
        self.size = next_pow2(max(2 * self.n - 1, 2))
        self.fc = np.fft.fft(self.c, self.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex).reshape(self.n)
        conv = np.fft.ifft(self.fc * np.fft.fft(x[::-1], self.size))
        return conv[self.n - 1: 2 * self.n - 1]


def dense_hankel(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    return scipy.linalg.hankel(c, np.concatenate([c[-1:], np.zeros(c.size - 1)]))


def dense_square(c: np.ndarray) -> np.ndarray:
    """The Hermitian square G G* of dense_hankel(c), symmetrized."""
    gamma = dense_hankel(c)
    sq = gamma @ gamma.conj().T
    # symmetrized in place: one N x N temporary fewer at the peak of build_pair
    sq += sq.conj().T
    sq *= 0.5
    return sq


def square_operator(c: np.ndarray) -> scipy.sparse.linalg.LinearOperator:
    """Matrix-free G G* of the Hankel matrix of c (two FFT matvecs per apply)."""
    fh = FastHankel(c)

    def mv(x):
        return fh.matvec(np.conj(fh.matvec(np.conj(x))))

    return scipy.sparse.linalg.LinearOperator((fh.n, fh.n), matvec=mv, dtype=complex)


def exact_section(c: np.ndarray, m: int) -> np.ndarray:
    """The m x m section H[i, j] = c_{i+j} of the first 2m - 1 coefficients."""
    return scipy.linalg.hankel(c[:m], c[m - 1: 2 * m - 1])


def hankel_section(u: "Symbol", m: int) -> np.ndarray:
    """Exact m x m section H[i, j] = c_{i+j} from 2m - 1 coefficients.

    Unlike the zero-padded matrix of dense_hankel, this section of a
    rational symbol has rank bounded by the true Hankel rank with no
    truncation leakage, so it is the right object for rank certificates.
    """
    if m < 1:
        raise InputError("section size must be at least 1")
    return exact_section(resize_symbol(u, 2 * m - 1).coeffs, m)


def apply_H(u: Symbol, h: np.ndarray) -> np.ndarray:
    """The antilinear Hankel action: project(u * conj(h)) in coefficients."""
    return hankel_matvec(u.coeffs, np.conj(h))


def apply_K(u: Symbol, h: np.ndarray) -> np.ndarray:
    """The shifted action: left-shift of apply_H, exact on the truncation."""
    y = apply_H(u, h)
    return np.concatenate([y[1:], [0.0]])


def shifted_coeffs(u: Symbol) -> np.ndarray:
    """Coefficients of the left-shifted symbol, zero-padded to length N."""
    return np.concatenate([u.coeffs[1:], [0.0]])


@dataclass(frozen=True, eq=False)
class HankelPair:
    """Dense Hermitian squares of a symbol's truncated matrix and of its shift."""

    symbol: Symbol
    h2: np.ndarray
    k2: np.ndarray
    ku2_residual: float
    h2_norm: float


def _check_ku2(residual: float, h2_norm: float) -> float:
    if h2_norm > 0.0 and residual > KU2_RESIDUAL_REL * h2_norm:
        raise ConsistencyError(
            f"shifted-square identity residual {residual:.3e} exceeds "
            f"{KU2_RESIDUAL_REL:.1e} * {h2_norm:.3e}")
    return residual


def build_pair(u: Symbol) -> HankelPair:
    """Assemble the Hermitian squares of the plain and shifted matrices.

    The identity k2 = h2 - outer(u, conj(u)) holds exactly on the
    truncation; its numerical residual is stored and must stay below
    1e-10 times the norm of h2.
    """
    h2 = dense_square(u.coeffs)
    k2 = dense_square(shifted_coeffs(u))
    h2_norm = float(np.linalg.norm(h2, 2)) if u.n_modes > 1 else float(abs(h2[0, 0]))
    predicted = h2 - np.outer(u.coeffs, np.conj(u.coeffs))
    residual = _check_ku2(float(np.linalg.norm(k2 - predicted)), h2_norm)
    return HankelPair(u, h2, k2, residual, h2_norm)


def check_shifted_square(h2, k2, c: np.ndarray, h2_norm: float) -> float:
    """Matrix-free k2 = h2 - outer(c, conj(c)) on seeded unit probes x.

    Each ||k2 x - h2 x + c (c* x)|| must stay within build_pair's bound.
    """
    rng = np.random.default_rng(0)
    x = (rng.standard_normal((c.size, IDENTITY_PROBES))
         + 1j * rng.standard_normal((c.size, IDENTITY_PROBES)))
    x /= np.linalg.norm(x, axis=0)
    r = k2 @ x - h2 @ x + np.outer(c, np.conj(c) @ x)
    return _check_ku2(float(np.max(np.linalg.norm(r, axis=0))), h2_norm)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Descending nonnegative eigenvalues with orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray
    max_residual: float
    orthonormality: float


def _validate_eigs(apply_a, values, vectors, norm_a) -> tuple[float, float]:
    residual = 0.0
    for i in range(values.size):
        r = np.linalg.norm(apply_a(vectors[:, i]) - values[i] * vectors[:, i])
        residual = max(residual, float(r))
    gram = vectors.conj().T @ vectors
    ortho = float(np.max(np.abs(gram - np.eye(values.size))))
    if norm_a > 0.0 and residual > EIG_RESIDUAL_REL * norm_a:
        raise ConsistencyError(
            f"eigen residual {residual:.3e} exceeds {EIG_RESIDUAL_REL:.1e} * {norm_a:.3e}")
    if ortho > ORTHONORMALITY_TOL:
        raise ConsistencyError(f"eigenvector orthonormality off by {ortho:.3e}")
    return residual, ortho


def hermitian_eigs(a, k: int | None = None) -> EigenSystem:
    """Eigendecomposition of a Hermitian PSD matrix or linear operator.

    A dense matrix gets every eigenpair (numpy eigh); a matrix-free
    operator gets its top k by Lanczos (ARPACK eigsh), and k is required
    for an operator only.  Eigenvalues come back descending, clipped at
    zero; residual and orthonormality checks are enforced.
    """
    apply_a = lambda x: a @ x
    if isinstance(a, np.ndarray):
        if k is not None:
            raise InputError("a dense matrix gets all its eigenpairs, not the top k")
        n = a.shape[0]
        herm = float(np.max(np.abs(a - a.conj().T))) if n > 0 else 0.0
        scale = float(np.max(np.abs(a))) or 1.0
        if herm > 1e-12 * scale:
            raise InputError(f"matrix is not Hermitian (asymmetry {herm:.3e})")
        vals, vecs = np.linalg.eigh(a)
        order = np.argsort(vals)[::-1]
        vals = np.clip(vals[order], 0.0, None)
        vecs = vecs[:, order]
        res, ortho = _validate_eigs(apply_a, vals, vecs, vals[0] if vals.size else 0.0)
        return EigenSystem(vals, vecs, res, ortho)
    if k is None:
        raise InputError("matrix-free eigendecomposition needs an explicit k")
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(a, k=k, which="LA")
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalError(f"Lanczos did not converge: {exc}") from exc
    # Lanczos loses orthogonality between vectors of nearly equal
    # eigenvalues; a Rayleigh-Ritz pass in the returned subspace
    # restores it without changing the subspace.
    q_mat = np.linalg.qr(vecs)[0]
    t_mat = q_mat.conj().T @ apply_a(q_mat)
    t_mat = 0.5 * (t_mat + t_mat.conj().T)
    tvals, tvecs = np.linalg.eigh(t_mat)
    order = np.argsort(tvals)[::-1]
    vals = np.clip(tvals[order], 0.0, None)
    vecs = q_mat @ tvecs[:, order]
    res, ortho = _validate_eigs(apply_a, vals, vecs, vals[0] if vals.size else 0.0)
    return EigenSystem(vals, vecs, res, ortho)
