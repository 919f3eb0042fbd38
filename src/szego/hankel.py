"""Truncated Hankel pairs: the operator of a symbol and of its left shift.

A symbol u(z) = sum c_n z**n is represented by its first N Fourier
coefficients, optionally backed by an exact rational form.  The Hankel
matrix G[n, k] = c_{n+k} acts antilinearly through h -> G conj(h); the
shifted matrix uses c_{n+k+1}.  Their squares satisfy the exact
truncation identity G~ G~* = G G* - outer(u, conj(u)).  FastHankel is
the one Hankel type: it holds the FFT of a coefficient window, so G, G~
and the exact m x m section c_{i+j} are each a FastHankel, with matvecs
in O(N log N) by circulant embedding and dense() for the matrix itself.

build_pair returns factors, never squares, and hermitian_eigs takes one
SVD of a factor (the square-root method of Laub, Heath, Paige & Ward,
IEEE TAC 1987): eigenvector errors grow like eps s_1 / gap(s), not
eps s_1**2 / gap(s**2).  Every pair carries an orthonormal N x r frame F
and both factors as r x N strips on it.  A symbol with a rational form is
analyzed on the exact N x N section c_{i+j} and its shift c_{i+j+1}.
Both have rank at most m = max(deg den, deg num + 1) (Kronecker) and
factor through the range of the N x m observability strip O, whose
column j holds the Taylor coefficients of (den z**j mod z**m) / den: the
sequence n -> c_{n+j} obeys the denominator's recurrence from n = m on,
so c_{i+j} is sum_k O[i, k] c_{k+j}.  One thin QR O = F T gives the frame
(r = m), in O(N m**2).  A coefficient-only symbol of any size gets a
seeded range finder (Halko, Martinsson & Tropp, SIAM Rev. 2011, Alg. 4.2)
that grows F from batched FFT products of the zero-padded truncation G
and its shift G~; range(G) holds range(G~) (u = G e0).

The pair owns its eigen stage and its actions: HankelPair.plain and
.shifted take one hermitian_eigs SVD each, check the shifted-square
identity before either is returned, and lift the eigenvectors to length
N.  HankelPair.actions are the antilinear maps of the two matrices the
pair diagonalized (the exact section and its shift on the core, the FFT
products of G and G~ on a range frame), and the lifted pairs of a range
frame are checked against the squares of those same actions.  No other
module calls hermitian_eigs or applies H_u or K_u another way.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .algebra import RationalFunction, next_pow2, series_divide
from .errors import ConsistencyError, InputError, NumericalError

# the widest range frame (perfbench/tracing.py imports it under this name)
DENSE_EIG_MAX = 512
BUILD_TAIL_REL = 1e-10
TRUNCATION_CAP = 8192
EIG_RESIDUAL_REL = 1e-10
ORTHONORMALITY_TOL = 1e-12
KU2_RESIDUAL_REL = 1e-10
# kernel floors on s**2 / s_1**2: the core's factors are exact (rank <= m, no
# tail), a zero-padded truncation has spurious values at its tail's level
ZERO_FLOOR_REL = 1e-12
CORE_ZERO_FLOOR_REL = 1e-18
RANGE_BLOCK = 16
RANGE_PROBE_FACTOR = 10.0 * np.sqrt(2.0 / np.pi)
EIG_CHECK_BLOCK = 64
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, MMAP_BYTES = -1, -3, 4 << 20


def _pin_malloc_thresholds() -> None:
    """Map glibc blocks from 4 MiB (512 x 512 complex) apart; keep 8 MiB atop the heap.

    Freed memory below 4 MiB then stays in the process for the next dense
    matrix of the same size.  Under glibc's default thresholds, or with
    either one set alone (a set mmap threshold leaves the trim threshold
    at 128 KiB; a set trim threshold fixes the mmap threshold there),
    freed pages go back to the kernel and fault in again on reuse: one
    warm round of the flow benchmark's operations (seed 1, one BLAS
    thread) took 836 minor page faults with both set, against 267 000
    by default and 272 000 or 305 000 with one, and 3.3 s against 3.8 s.
    Blocks of 4 MiB and more still leave the resident set when freed.
    """
    if ("CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {})
            and os.confstr("CS_GNU_LIBC_VERSION")):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_BYTES)
        mallopt(M_TRIM_THRESHOLD, 2 * MMAP_BYTES)


_pin_malloc_thresholds()


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

    @staticmethod
    def from_rational(rf: RationalFunction, n_modes: int | None = None) -> "Symbol":
        """Expand a rational symbol to a resolved truncation.

        The starting size is max(4 * rank_bound, 32) with
        rank_bound = max(deg den, deg num + 1); the size doubles until the
        trailing coefficient falls below 1e-10 of the largest, which
        implies the documented 1e-8 resolution bound.  A symbol still
        unresolved at 8192 modes raises NumericalError.  Polynomial
        symbols are exact at any size, so no doubling occurs; an explicit
        n_modes is taken as given, and one below max(deg num + 1, 2) raises
        InputError naming that minimum.
        """
        least = max(rf.num.degree + 1, 2)
        if n_modes is not None and n_modes < 1:
            raise InputError("mode count must be positive")
        if n_modes is not None and n_modes < least:
            raise InputError(f"truncation {n_modes} is below the {least} modes "
                             "this rational symbol needs")
        n = n_modes if n_modes is not None else max(4 * max(rf.rank_bound, 1), 32)
        # lacunary series (denominator in z**m) have exact zeros between
        # live coefficients, so the tail is judged over a window of the
        # denominator's period, not the single trailing entry
        window = max(rf.den.degree, 1) + 1
        while True:
            c = rf.taylor(n)
            top = float(np.abs(c).max())
            if n_modes is not None or top == 0.0 or rf.den.degree == 0:
                break
            tail = float(np.abs(c[-window:]).max())
            if tail <= BUILD_TAIL_REL * top:
                break
            if n >= TRUNCATION_CAP:
                raise NumericalError(
                    "rational symbol unresolved at the truncation cap of "
                    f"{TRUNCATION_CAP} modes: trailing coefficients at "
                    f"{tail / top:.2e} of the largest, above {BUILD_TAIL_REL:.0e}")
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
    return Symbol(out)


class FastHankel:
    """The n x n Hankel matrix A[i, j] = c_{i+j} of a coefficient window c.

    n is len(c) by default, and coefficients past c count as zero, so
    FastHankel(c) is the zero-padded truncation G, FastHankel(c[1:], N)
    its shift G~ and FastHankel(c[:2m - 1], m) the exact m x m section.
    The window's FFT is taken once, on a circulant embedding of size at
    least 2n - 1, which holds the longest window with no wrap-around;
    matvec then runs in O(n log n), and dense() builds the matrix itself.
    """

    def __init__(self, c: np.ndarray, n: int | None = None):
        c = np.asarray(c, dtype=complex)
        self.n = c.size if n is None else n
        self.window = c[:2 * self.n - 1]
        self.fc = np.fft.fft(self.window, next_pow2(max(2 * self.n - 1, 2)))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector or an (n, k) block x, whose columns share one FFT pass."""
        x = np.asarray(x, dtype=complex)
        n = self.n
        if x.shape[0] != n:
            raise InputError("vector length does not match symbol truncation")
        fc = self.fc.reshape(self.fc.shape + (1,) * (x.ndim - 1))
        conv = np.fft.ifft(fc * np.fft.fft(x[::-1], fc.shape[0], axis=0), axis=0)
        return conv[n - 1: 2 * n - 1]

    def dense(self) -> np.ndarray:
        """The n x n matrix itself."""
        w = np.zeros(2 * self.n - 1, dtype=complex)
        w[:self.window.size] = self.window
        return scipy.linalg.hankel(w[:self.n], w[self.n - 1:])


def hankel_matvec(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_n = sum_k c_{n+k} x_k for a vector or an (N, k) block x, N = len(c)."""
    return FastHankel(c).matvec(x)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Descending nonnegative eigenvalues with orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray
    max_residual: float
    orthonormality: float


@dataclass(frozen=True, eq=False)
class HankelPair:
    """A symbol's Hankel matrix and its shift, as r x N strips on a frame.

    The frame F (N x r, orthonormal columns) carries the matrix and its
    shift as F a0 and F a1: exactly for the exact section on the rational
    core (r = m), and up to the finder's tolerance for the zero-padded
    truncation on a range frame (r at most N).  No square is stored.
    ops holds a range pair's FastHankel G and G~, the ones its frame was
    found with, and is empty on the core.  plain and shifted are the
    checked eigensystems of the two squares, each computed once, on first
    use.
    """

    symbol: Symbol
    a0: np.ndarray
    a1: np.ndarray
    ku2_residual: float
    frame: np.ndarray
    ops: tuple

    @property
    def path(self) -> str:
        """"rational" (the exact section's core) or "range" (coefficients only)."""
        return "range" if self.symbol.rational is None else "rational"

    @property
    def core_size(self) -> int:
        """The frame's width: m on the rational core, r on a range frame."""
        return self.frame.shape[1]

    @cached_property
    def actions(self) -> tuple:
        """The antilinear maps h -> A conj(h) of the plain and the shifted matrix.

        They are the matrices plain and shifted diagonalize: on the core the
        exact section F a0 and its shift F a1, in O(N m) per column; on a
        range frame the FFT products of the zero-padded truncation G and of
        G~, each from its own coefficients (a large c_0 then puts no
        rounding into G~).  Every H_u and K_u product goes through them.
        """
        if self.path == "range":
            return tuple(lambda h, op=op: op.matvec(np.conj(h)) for op in self.ops)
        frame, a0, a1 = self.frame, self.a0, self.a1
        return (lambda h: frame @ (a0 @ np.conj(h)),
                lambda h: frame @ (a1 @ np.conj(h)))

    @property
    def zero_floor(self) -> float:
        """Eigenvalues of a a* at or below this times s_1**2 are the kernel:
        1e-18 (s down to 1e-9 s_1) on the exact core, 1e-12 on a truncation."""
        return CORE_ZERO_FLOOR_REL if self.path == "rational" else ZERO_FLOOR_REL

    @cached_property
    def plain(self) -> EigenSystem:
        """Every eigenpair of the plain square, with vectors of length N.

        One SVD of a0 (hermitian_eigs); the identity residual must then be
        within 1e-10 of the top eigenvalue, s_1**2, or ConsistencyError.
        """
        eigs = hermitian_eigs(self.a0)
        top = eigs.values[0] if eigs.values.size else 0.0
        if top > 0.0 and self.ku2_residual > KU2_RESIDUAL_REL * top:
            raise ConsistencyError(
                f"shifted-square identity residual {self.ku2_residual:.3e} exceeds "
                f"{KU2_RESIDUAL_REL:.1e} * {top:.3e}")
        return self._lift(eigs, self.actions[0])

    @cached_property
    def shifted(self) -> EigenSystem:
        """Every eigenpair of the shifted square, after plain's identity check."""
        self.plain  # the identity check runs first
        return self._lift(hermitian_eigs(self.a1), self.actions[1])

    def _lift(self, es: EigenSystem, act) -> EigenSystem:
        """es of a strip's r x r square a a*, with each eigenvector y lifted to F y.

        A range frame holds range(G) only to the finder's tolerance, so its
        lifted pairs are checked by _validate_eigs, with hermitian_eigs'
        bounds, against the N-mode square A A* x = act(act(x)) of the
        pair's own action act (A is complex symmetric).
        """
        vectors = self.frame @ es.vectors
        if self.path != "range":
            return replace(es, vectors=vectors)
        top = es.values[0] if es.values.size else 0.0
        res, ortho = _validate_eigs(lambda x: act(act(x)), es.values, vectors, top)
        return EigenSystem(es.values, vectors, res, ortho)


def _rational_core(u: Symbol) -> tuple:
    """Frame F and the strips of the exact section and its shift on it.

    O = F T is the thin QR of the N x m observability strip and R the
    m x (N + 1) strip R[i, j] = c_{i+j}, so the section is F A0 and its
    shift F A1, with A0 = T R0 and A1 = T R1 (m x N) and R0, R1 the
    columns 0..N-1 and 1..N of R.  Returns (F, A0, A1).
    """
    rf = u.rational
    n, m = u.n_modes, rf.rank_bound
    # column j starts as den z**j mod z**m: the lower triangle of den's Toeplitz
    obs = np.zeros((n, m), dtype=complex, order="F")
    top = min(n, m)
    obs[:top] = scipy.linalg.toeplitz(rf.den.padded(m + 1)[:m], np.zeros(m))[:top]
    frame, tri = np.linalg.qr(series_divide(obs, rf.den.coeffs))
    c = rf.taylor(n + m)
    strip = tri @ scipy.linalg.hankel(c[:m], c[m - 1:])
    return frame, strip[:, :n], strip[:, 1:]


def _range_frame(ops) -> np.ndarray:
    """Orthonormal N x r frame Q holding the range of each Hankel matrix in ops.

    Halko, Martinsson & Tropp's adaptive range finder (SIAM Rev. 2011,
    Alg. 4.2) on seeded blocks of RANGE_BLOCK complex Gaussian columns w:
    the residual of each matrix's FFT product A w off Q adds its left
    singular vectors above tol = EIG_RESIDUAL_REL * s / RANGE_PROBE_FACTOR,
    s being a running lower bound on s_1(A): the larger of max ||A w|| / ||w||
    (about ||A||_F / sqrt(N), far below s_1 when the values cluster) and
    ||A conj(u1)|| = ||A* u1|| (A is complex symmetric), one power step from
    the top left singular vector u1 of the block A w.  A fresh block within
    tol for every A ends the search: ||(I - Q Q*) A|| <= EIG_RESIDUAL_REL * s
    then fails with probability 10**-RANGE_BLOCK (their eq. 4.3).  A frame
    wider than DENSE_EIG_MAX raises NumericalError.
    """
    rng = np.random.default_rng(0)
    n = ops[0].n
    frame = np.zeros((n, 0), dtype=complex)
    tops = [0.0] * len(ops)
    grown = True
    while grown:
        grown = False
        probe = (rng.standard_normal((n, RANGE_BLOCK))
                 + 1j * rng.standard_normal((n, RANGE_BLOCK))) / np.sqrt(2.0)
        scale = np.linalg.norm(probe, axis=0)
        for i, op in enumerate(ops):
            block = op.matvec(probe)
            u1 = np.linalg.svd(block, full_matrices=False)[0][:, 0]
            tops[i] = max(tops[i], float(np.max(np.linalg.norm(block, axis=0) / scale)),
                          float(np.linalg.norm(op.matvec(np.conj(u1)))))
            block -= frame @ (frame.conj().T @ block)
            residual = float(np.linalg.norm(block, axis=0).max())
            tol = EIG_RESIDUAL_REL * tops[i] / RANGE_PROBE_FACTOR
            if residual <= tol:
                continue
            left, sv, _ = np.linalg.svd(block, full_matrices=False)
            width = frame.shape[1] + int(np.sum(sv > tol))
            if width > DENSE_EIG_MAX:
                raise NumericalError(
                    f"range frame of width {width} passes the cap of {DENSE_EIG_MAX} "
                    f"(probe residual {residual:.3e} above {tol:.3e})")
            # a direction of small singular value carries the projection's
            # rounding divided by that value: project it out again
            fresh = left[:, sv > tol]
            fresh -= frame @ (frame.conj().T @ fresh)
            frame = np.hstack([frame, np.linalg.qr(fresh)[0]])
            grown = True
    return frame


def build_pair(u: Symbol) -> HankelPair:
    """Assemble the factors of the plain and shifted matrices.

    A symbol with a rational form gets the m x N strips of its exact
    N x N section and of its shift on the frame F of the section's range
    (_rational_core).  A coefficient-only symbol of any size gets the
    r x N strips of the zero-padded truncation G and its shift G~ on one
    range frame F of both (_range_frame), whose ranges nest because
    G~ G~* = G G* - u u* and u = G e0.  The identity
    a1 a1* = a0 a0* - outer(b, conj(b)), with b = F* u, holds exactly on
    the truncation (on any frame of it, to the finder's tolerance) and up
    to the section's tail c_N..c_{2N-1} on the exact section;
    its numerical (Frobenius) residual is stored, and these Gram products
    are formed for nothing else.  It must stay below 1e-10 times
    ||a0 a0*||, which is s_1**2: HankelPair.plain checks it before either
    eigensystem is returned.
    """
    ops = ()
    if u.rational is not None:
        frame, a0, a1 = _rational_core(u)
    else:
        ops = FastHankel(u.coeffs), FastHankel(u.coeffs[1:], u.n_modes)
        frame = _range_frame(ops)
        # G and G~ are complex symmetric: each strip Q* A = (A conj(Q))^T is
        # one FFT product, and a zero G~ (a constant symbol) gives zeros
        a0, a1 = (op.matvec(np.conj(frame)).T for op in ops)
    b = frame.conj().T @ u.coeffs
    gap = a0 @ a0.conj().T
    gap -= np.outer(b, np.conj(b))
    gap -= a1 @ a1.conj().T
    return HankelPair(u, a0, a1, float(np.linalg.norm(gap)), frame, ops)


def _validate_eigs(apply_a, values, vectors, norm_a) -> tuple[float, float]:
    """Largest residual ||A v - lambda v|| and largest entry of |V* V - I|.

    Both run over blocks of EIG_CHECK_BLOCK columns V_b: one product
    A V_b and one Gram block V_b* V each, no N x N temporary.
    """
    residual = ortho = 0.0
    for start in range(0, values.size, EIG_CHECK_BLOCK):
        block = slice(start, start + EIG_CHECK_BLOCK)
        v_b = vectors[:, block]
        r = apply_a(v_b) - v_b * values[block]
        residual = max(residual, float(np.max(np.linalg.norm(r, axis=0))))
        gram = v_b.conj().T @ vectors
        gram[:, block] -= np.eye(gram.shape[0])
        ortho = max(ortho, float(np.max(np.abs(gram))))
    if norm_a > 0.0 and residual > EIG_RESIDUAL_REL * norm_a:
        raise ConsistencyError(
            f"eigen residual {residual:.3e} exceeds {EIG_RESIDUAL_REL:.1e} * {norm_a:.3e}")
    if ortho > ORTHONORMALITY_TOL:
        raise ConsistencyError(f"eigenvector orthonormality off by {ortho:.3e}")
    return residual, ortho


def hermitian_eigs(a: np.ndarray) -> EigenSystem:
    """Every eigenpair of the Hermitian square a a* of an r x N factor, r <= N.

    One LAPACK SVD of a (gesdd) gives them: the eigenvalues are the
    squared singular values, descending, and the eigenvectors the left
    singular vectors.  It takes the r x N strips of build_pair, on the
    core or on a range frame, and never forms a a*.  The
    residual check ||a (a* v) - lambda v|| <= 1e-10 lambda_max and the
    orthonormality check |V* V - I| <= 1e-12 run over column blocks and
    are enforced.
    """
    vecs, svals, _ = np.linalg.svd(a, full_matrices=False)
    vals = svals * svals
    res, ortho = _validate_eigs(lambda x: a @ (a.conj().T @ x), vals, vecs,
                                vals[0] if vals.size else 0.0)
    return EigenSystem(vals, vecs, res, ortho)
