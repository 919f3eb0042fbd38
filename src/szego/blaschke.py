"""Finite Blaschke products and the Schur root-location test.

A finite Blaschke product is stored as (angle, P) with P a monic
polynomial whose roots all lie in the open unit disc.  The function on
the circle is

    Psi(z) = exp(-i*angle) * P(z) / D(z),      D(z) = z**d * conj(P)(1/z),

with d = deg P, so D's coefficients are P's conjugated and reversed
(algebra.reflect_coeffs); Psi has modulus one for |z| = 1.  Membership
of P in the Schur class is decided by the Schur-Cohn coefficient
recursion of ``algebra.is_schur``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .algebra import Poly, is_schur, reflect_coeffs
from .errors import InputError, NumericalError

TWO_PI = 2.0 * math.pi


def normalize_angle(psi: float) -> float:
    """Reduce an angle to [0, 2*pi), mapping 2*pi to 0."""
    psi = math.fmod(float(psi), TWO_PI)
    if psi < 0.0:
        psi += TWO_PI
    if psi >= TWO_PI - 1e-15:
        psi = 0.0
    return psi


@dataclass(frozen=True, eq=False)
class BlaschkeProduct:
    """Inner rational function exp(-i*angle) * P/D with P monic Schur."""

    angle: float
    p: Poly

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise InputError(f"Blaschke angle must be finite, got {self.angle}")
        psi = normalize_angle(self.angle)
        p = self.p
        if p.degree < 0:
            raise InputError("Blaschke numerator must be nonzero")
        lead = p.coeffs[-1]
        if abs(lead - 1.0) > 1e-8:
            raise InputError("Blaschke numerator must be monic")
        if abs(lead - 1.0) > 0:
            p = p * (1.0 / lead)
        # the non-leading coefficients of the monic p, highest degree first
        if not is_schur(p.coeffs[-2::-1]):
            raise InputError("Blaschke numerator is not a Schur polynomial")
        object.__setattr__(self, "angle", psi)
        object.__setattr__(self, "p", p)

    @property
    def degree(self) -> int:
        return self.p.degree

    @property
    def d(self) -> Poly:
        return Poly(reflect_coeffs(self.p.coeffs, self.p.degree))

    @property
    def phase(self) -> complex:
        return complex(np.exp(-1j * self.angle))

    def __call__(self, z):
        """Evaluate exp(-i*angle) * P(z)/D(z)."""
        denom = self.d(z)
        if np.min(np.abs(np.atleast_1d(denom))) < 1e-14:
            raise NumericalError("Blaschke evaluation at a pole (|z| > 1 region)")
        return self.phase * self.p(z) / denom

    @staticmethod
    def constant(angle: float) -> "BlaschkeProduct":
        return BlaschkeProduct(angle, Poly.one())


def from_zeros(zeros, angle: float) -> BlaschkeProduct:
    """Expand prod (z - p_j) from zeros in the open disc."""
    zeros = np.asarray(list(zeros), dtype=complex)
    if zeros.size and np.max(np.abs(zeros)) >= 1.0:
        raise InputError("Blaschke zero with modulus >= 1")
    if zeros.size == 0:
        return BlaschkeProduct(angle, Poly.one())
    return BlaschkeProduct(angle, Poly(npoly.polyfromroots(zeros)))
