"""Closed forms attached to a pair of interlaced singular-value lists.

Given rho_1 > sigma_1 > rho_2 > ... > rho_q > sigma_q >= 0, the squared
norms of the eigenspace projections of the symbol have the product forms

    tau_j**2   = (rho_j**2 - sigma_j**2) * prod_{k != j} (rho_j**2 - sigma_k**2) / (rho_j**2 - rho_k**2)
    kappa_j**2 = (rho_j**2 - sigma_j**2) * prod_{k != j} (sigma_j**2 - rho_k**2) / (sigma_j**2 - sigma_k**2)

and the resolvent generating function

    J(x) = prod_j (1 - x*sigma_j**2) / (1 - x*rho_j**2)
         = 1 + x * sum_j tau_j**2 / (1 - x*rho_j**2).

The identity suite (simple sums, double sums, the norm balance, and the
zero-sigma variant) is exposed as a residual report so every other module
can cross-check its spectra against these closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

INTERLACE_REL_GAP = 1e-12


@dataclass(frozen=True, eq=False)
class InterlacedValues:
    """Two descending lists rho, sigma of equal length q, strictly interlaced."""

    rho: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if rho.ndim != 1 or sigma.shape != rho.shape or rho.size == 0:
            raise InputError("rho and sigma must be equal-length nonempty 1-d lists")
        merged = np.empty(2 * rho.size)
        merged[0::2] = rho
        merged[1::2] = sigma
        if merged[-1] < 0.0:
            raise InputError("sigma_q must be nonnegative")
        gap_floor = INTERLACE_REL_GAP * merged[0]
        if np.any(np.diff(merged) >= -gap_floor):
            raise InputError("interlacing rho_1 > sigma_1 > rho_2 > ... violated")
        rho.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma", sigma)

    @property
    def q(self) -> int:
        return self.rho.size

    @property
    def sigma_q_zero(self) -> bool:
        return self.sigma[-1] == 0.0

    @staticmethod
    def from_singular_values(s) -> "InterlacedValues":
        """Split a strictly decreasing positive list into (rho, sigma).

        Odd positions (1st, 3rd, ...) are rho, even are sigma; an odd
        count gets the virtual trailing sigma_q = 0.
        """
        s = np.asarray(s, dtype=float)
        if s.size == 0:
            raise InputError("empty singular value list")
        if s.size % 2 == 1:
            s = np.concatenate([s, [0.0]])
        return InterlacedValues(s[0::2], s[1::2])


def tau_squares(v: InterlacedValues) -> np.ndarray:
    """Squared projection norms onto the rho eigenspaces; all positive."""
    r2 = v.rho ** 2
    s2 = v.sigma ** 2
    out = np.empty(v.q)
    for j in range(v.q):
        num = np.prod(r2[j] - s2[np.arange(v.q) != j])
        den = np.prod(r2[j] - r2[np.arange(v.q) != j])
        out[j] = (r2[j] - s2[j]) * num / den if v.q > 1 else r2[j] - s2[j]
    if np.any(out <= 0.0):
        raise NumericalError("tau squares must be positive for interlaced data")
    return out


def kappa_squares(v: InterlacedValues) -> np.ndarray:
    """Squared projection norms onto the sigma eigenspaces; all positive."""
    r2 = v.rho ** 2
    s2 = v.sigma ** 2
    out = np.empty(v.q)
    for j in range(v.q):
        num = np.prod(s2[j] - r2[np.arange(v.q) != j])
        den = np.prod(s2[j] - s2[np.arange(v.q) != j])
        out[j] = (r2[j] - s2[j]) * num / den if v.q > 1 else r2[j] - s2[j]
    if np.any(out <= 0.0):
        raise NumericalError("kappa squares must be positive for interlaced data")
    return out


def j_of_x(v: InterlacedValues, x: float) -> float:
    """The generating function J(x) = prod (1 - x*sigma**2)/(1 - x*rho**2).

    Validates the partial-fraction identity J(x) = 1 + x * sum tau**2/(1 - x*rho**2)
    to 1e-12 relative on every call; x must stay away from the poles 1/rho**2.
    """
    r2 = v.rho ** 2
    s2 = v.sigma ** 2
    dr = 1.0 - x * r2
    if np.min(np.abs(dr)) < 1e-12:
        raise NumericalError(f"j_of_x evaluated too close to a pole 1/rho**2 (x={x})")
    value = float(np.prod((1.0 - x * s2) / dr))
    partial = 1.0 + x * float(np.sum(tau_squares(v) / dr))
    scale = max(abs(value), 1.0)
    if abs(value - partial) > 1e-12 * scale:
        raise NumericalError(
            f"product and partial-fraction forms of J disagree: {value} vs {partial}")
    return value


@dataclass(frozen=True)
class IdentityReport:
    """Max absolute residuals of the closed-form identity suite."""

    simple_tau: float
    simple_kappa: float
    double_tau: float
    double_kappa: float
    norm_balance: float
    zero_sigma: float | None

    @property
    def max_residual(self) -> float:
        vals = [self.simple_tau, self.simple_kappa, self.double_tau,
                self.double_kappa, self.norm_balance]
        if self.zero_sigma is not None:
            vals.append(self.zero_sigma)
        return max(vals)


def identity_residuals(v: InterlacedValues) -> IdentityReport:
    """Evaluate the full identity suite and report max absolute residuals.

    Simple sums: sum_j tau_j**2/(rho_j**2 - sigma_k**2) = 1 for every k and
    sum_j kappa_j**2/(rho_k**2 - sigma_j**2) = 1 for every k.  Double sums:
    sum_j tau_j**2/((rho_j**2 - sigma_k**2)(rho_j**2 - sigma_r**2)) = delta_{kr}/kappa_k**2
    and the kappa counterpart with value delta_{kr}/tau_k**2.  Norm balance:
    1 - sum tau_j**2/rho_j**2 = prod sigma_j**2/rho_j**2.  When sigma_q = 0:
    sum_j tau_j**2/rho_j**4 = (1/rho_1**2) * prod_{j<q} sigma_j**2/rho_{j+1}**2.
    """
    r2 = v.rho ** 2
    s2 = v.sigma ** 2
    tau2 = tau_squares(v)
    kap2 = kappa_squares(v)
    q = v.q

    diff = r2[None, :] - s2[:, None]          # diff[k, j] = rho_j**2 - sigma_k**2
    simple_tau = float(np.max(np.abs(np.sum(tau2[None, :] / diff, axis=1) - 1.0)))
    simple_kappa = float(np.max(np.abs(np.sum(kap2[:, None] / diff, axis=0) - 1.0)))

    double_tau = 0.0
    double_kappa = 0.0
    for k in range(q):
        for r in range(q):
            target = (1.0 / kap2[k]) if k == r else 0.0
            lhs = np.sum(tau2 / ((r2 - s2[k]) * (r2 - s2[r])))
            double_tau = max(double_tau, abs(lhs - target))
            target = (1.0 / tau2[k]) if k == r else 0.0
            lhs = np.sum(kap2 / ((r2[k] - s2) * (r2[r] - s2)))
            double_kappa = max(double_kappa, abs(lhs - target))

    norm_balance = abs(1.0 - np.sum(tau2 / r2) - np.prod(s2 / r2))

    zero_sigma = None
    if v.sigma_q_zero:
        lhs = np.sum(tau2 / r2 ** 2)
        rhs = np.prod(s2[:-1] / r2[1:]) / r2[0]
        zero_sigma = float(abs(lhs - rhs))

    return IdentityReport(simple_tau, simple_kappa, float(double_tau),
                          float(double_kappa), float(norm_balance), zero_sigma)
