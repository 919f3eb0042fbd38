"""Time evolution on truncated symbols, exact and direct.

The cubic flow i du/dt = P(|u|^2 u) (P = nonnegative-frequency projection)
is integrated two ways: by classical RK4 on the Fourier coefficients with
a dealiased nonlinearity, and exactly through spectral data, where each
inner factor only picks up a rotating phase.  The commuting fields
generated by the resolvent quantities J(y) = ((I + y H_u^2)^{-1} 1 | 1)
get the same treatment.

Every resolvent, for the fields and for the J(y) probes of the conserved
quantities, goes through _resolvents: one Hermitian product G G* of the
n x n Hankel section (BLAS zherk, upper triangle only) and a Cholesky
factorization of I + y G G* per y.  That matrix is Hermitian with
spectrum in [1, 1 + y s_1^2], so it is positive definite with condition
number at most 1 + y s_1^2: Cholesky needs no pivoting and cannot break
down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import zherk

from . import bateman
from .algebra import RationalFunction, grid_transform, next_pow2
from .errors import InputError, StepSizeError
from .forward_map import SpectralData, forward
from .hankel import FastHankel, Symbol, hankel_matvec
from .inverse_map import synthesize

PROBE_YS = (0.1, 1.0, 10.0)
DT_NORM_LIMIT = 0.1
DRIFT_LIMIT = 1e-5
CONSERVED_LABELS = ("l2_sq", "momentum", "energy") + \
    tuple(f"j_{y:g}" for y in PROBE_YS)


def _flow(y: float | None):
    """The flow of the hierarchy that y selects: the cubic flow for None,
    the field generated by J(y) for y > 0.

    Returns the coefficient right-hand side, the speeds at which the
    inner factors turn (the r-th angle moves at (-1)^(r-1) times the r-th
    speed) and a label.  The right-hand sides are looked up here, at call
    time, so that rebinding them in this module reaches every flow.
    """
    if y is None:
        return _cubic_rhs, lambda data: data.s ** 2, "cubic"
    y = float(y)
    if y <= 0:
        raise InputError("hierarchy parameter y must be positive")
    return ((lambda c: _hierarchy_rhs(c, y)),
            (lambda data: -2.0 * y * bateman.j_of_x(data.interlaced(), -y)
             / (1.0 + y * data.s ** 2)),
            f"hierarchy(y={y:g})")


def szego_rhs(u: Symbol, y: float | None = None) -> Symbol:
    """Right-hand side of the flow y selects, truncated to N modes.

    The cubic flow's is -i P(|u|^2 u).  The field generated by J(y) is
    2i y w H_u(w) with w = (I + y H^2)^{-1} e_0; the pointwise product of
    the two analytic factors is a coefficient convolution.
    """
    rhs, _, _ = _flow(y)
    return Symbol(rhs(u.coeffs))


def _cubic_rhs(c: np.ndarray) -> np.ndarray:
    n = c.size
    m = next_pow2(3 * n)  # |u|^2 u has frequencies down to -(n-1) and up to 2n-2
    vals = grid_transform(c, m)
    w = vals * vals * np.conj(vals)
    coeffs = np.fft.fft(w) / m
    return -1j * coeffs[:n]


def _resolvents(c: np.ndarray, ys) -> list:
    """w = (I + y H_u^2)^{-1} e_0 for each y, by Cholesky.

    H_u^2 = G G* with G the n x n Hankel section; one zherk forms its
    upper triangle.  I + y G G* is Hermitian with spectrum in
    [1, 1 + y s_1^2], so it is positive definite: the factorization needs
    no pivoting and cannot break down.
    """
    n = c.size
    # G is symmetric: G.T is G in Fortran order, which zherk takes uncopied
    h2 = zherk(1.0, FastHankel(c).dense().T)
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    out = []
    for y in ys:
        a = y * h2
        a.flat[::n + 1] += 1.0
        factor = cho_factor(a, overwrite_a=True, check_finite=False)
        out.append(cho_solve(factor, e0, check_finite=False))
    return out


def _hierarchy_rhs(c: np.ndarray, y: float) -> np.ndarray:
    [w] = _resolvents(c, (y,))
    hw = hankel_matvec(c, np.conj(w))
    prod = np.convolve(w, hw)[:c.size]
    return 2j * y * prod


@dataclass(frozen=True, eq=False)
class ConservedRecord:
    """Snapshot of the conserved quantities tracked along a flow."""

    l2_sq: float
    momentum: float
    energy: float
    j_probes: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.l2_sq, self.momentum, self.energy],
                               self.j_probes])

    def labels(self) -> list:
        return list(CONSERVED_LABELS)


def energy_from_values(u: Symbol) -> float:
    """Quartic energy (1/4) mean |u|^4 over the circle, dealiased."""
    m = next_pow2(max(4 * u.n_modes, 8))
    vals = grid_transform(u.coeffs, m)
    return float(0.25 * np.mean(np.abs(vals) ** 4))


def conserved_quantities(u: Symbol) -> ConservedRecord:
    """Mass, momentum, quartic energy and the resolvent probes J(y)."""
    c = u.coeffs
    l2 = float(np.sum(np.abs(c) ** 2))
    mom = float(np.sum(np.arange(c.size) * np.abs(c) ** 2))
    energy = energy_from_values(u)
    probes = np.array([w[0].real for w in _resolvents(c, PROBE_YS)])
    return ConservedRecord(l2, mom, energy, probes)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """RK4 trajectory with conserved-quantity bookkeeping."""

    times: np.ndarray            # recorded times, first is 0, last is t_final
    states: np.ndarray           # (n_records, n_modes) coefficient rows
    conserved: tuple             # ConservedRecord per recorded time
    drift: dict                  # max drift per conserved label, relative
    dt: float
    field_label: str

    @property
    def max_drift(self) -> float:
        return max(self.drift.values())

    def state(self, i: int) -> Symbol:
        return Symbol(self.states[i])


def direct_evolve(u0: Symbol, t_final: float, dt: float,
                  y: float | None = None) -> Trajectory:
    """Integrate the cubic flow (or the hierarchy field for given y) by RK4.

    The step taken is dt_eff = t_final / round(t_final / dt) (at least one
    step when t_final > 0); refuses it when dt_eff * sum |c|^2 > 0.1, or
    dt * sum |c|^2 > 0.1 when no step is taken.  Conserved quantities are
    recorded every max(1, steps // 100) steps and at the end; if any drifts
    by more than 1e-5 (relative to max(initial value, 1)) the step size was
    too coarse and a StepSizeError reports the offenders.
    """
    if t_final < 0 or dt <= 0:
        raise InputError("need t_final >= 0 and dt > 0")
    steps = max(1, int(round(t_final / dt))) if t_final > 0 else 0
    dt_eff = t_final / steps if steps else 0.0
    l2 = float(np.sum(np.abs(u0.coeffs) ** 2))
    step, name = (dt_eff, "dt_eff") if steps else (dt, "dt")
    if step * l2 > DT_NORM_LIMIT:
        raise StepSizeError(
            f"{name} * |u|^2 = {step * l2:.3e} exceeds {DT_NORM_LIMIT}"
            f" ({name} = {step:.3e}); shrink dt")
    record_every = max(1, steps // 100)

    rhs, _, label = _flow(y)

    c = u0.coeffs.astype(complex).copy()
    times = [0.0]
    states = [c.copy()]
    records = [conserved_quantities(Symbol(c))]
    for step in range(steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt_eff * k1)
        k3 = rhs(c + 0.5 * dt_eff * k2)
        k4 = rhs(c + dt_eff * k3)
        c = c + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % record_every == 0 or step == steps - 1:
            times.append((step + 1) * dt_eff)
            states.append(c.copy())
            records.append(conserved_quantities(Symbol(c)))

    base = records[0].as_vector()
    scale = np.maximum(np.abs(base), 1.0)
    worst = np.zeros_like(base)
    for rec in records[1:]:
        worst = np.maximum(worst, np.abs(rec.as_vector() - base) / scale)
    drift = dict(zip(records[0].labels(), worst))
    if worst.size and worst.max() > DRIFT_LIMIT:
        bad = ", ".join(f"{k}={v:.3e}" for k, v in drift.items()
                        if v > DRIFT_LIMIT)
        raise StepSizeError(f"conserved quantities drifted: {bad}")
    return Trajectory(np.array(times), np.array(states), tuple(records),
                      drift, dt_eff, label)


def exact_evolve(data: SpectralData, t: float,
                 y: float | None = None) -> SpectralData:
    """Push spectral data forward by time t under the flow y selects.

    Each inner factor rotates rigidly.  Under the cubic flow the r-th
    phase parameter moves as psi_r -> psi_r + (-1)^(r-1) s_r^2 t
    (1-indexed), so plain positions advance and shifted positions
    retreat.  Under the field generated by J(y) it moves as
    psi_r -> psi_r - omega_r t with omega_r = (-1)^(r-1) 2 y J / (1 + y s_r^2)
    and J = prod (1 + y sigma^2) / (1 + y rho^2).
    """
    _, speed, _ = _flow(y)
    signs = (-1.0) ** np.arange(data.n)
    return data.with_angles(data.angles() + signs * speed(data) * t)


def exact_trajectory(data: SpectralData, times, n_modes: int,
                     y: float | None = None) -> np.ndarray:
    """The (T, n_modes) Taylor coefficients of the exact flow at each time.

    data's phases are rotated to each time (exact_evolve) and the symbol
    is synthesized from them and expanded.
    """
    return np.array([synthesize(exact_evolve(data, float(t), y)).rational.taylor(n_modes)
                     for t in times])


@dataclass(frozen=True, eq=False)
class FlowComparison:
    """Direct-vs-exact comparison of the same flow."""

    trajectory: Trajectory
    gaps: np.ndarray             # relative coefficient gap per recorded time
    max_gap: float
    drift: dict


def compare_flows(u0: Symbol, t_final: float, dt: float,
                  y: float | None = None) -> FlowComparison:
    """Integrate directly and through spectral data, and measure the gap.

    The exact route analyzes u0 once, rotates the phases to each recorded
    time, synthesizes, and compares Taylor coefficients against the RK4
    state at the truncation size of u0.
    """
    data0 = forward(u0)
    traj = direct_evolve(u0, t_final, dt, y=y)
    exact = exact_trajectory(data0, traj.times, u0.n_modes, y)
    gaps = np.linalg.norm(exact - traj.states, axis=1) / max(u0.l2_norm, 1e-300)
    return FlowComparison(traj, gaps, float(gaps.max()), traj.drift)


@dataclass(frozen=True, eq=False)
class TravelingWaveReport:
    """Spectral shape and rigid-rotation check for a traveling-wave symbol."""

    symbol: Symbol
    data: SpectralData
    rho: float
    sigma: float
    speed: float                 # predicted c
    omega: float                 # predicted omega
    fitted_speed: float
    fitted_omega: float
    shape_ok: bool
    shape_failures: tuple
    rotation_residual: float

    @property
    def fit_gap(self) -> float:
        scale = max(abs(self.omega), 1.0)
        return max(abs(self.fitted_speed - self.speed),
                   abs(self.fitted_omega - self.omega)) / scale


def traveling_wave(alpha: complex, ell: int, n_wave: int, p: complex,
                   t_final: float = 0.1, dt: float = 1e-3) -> TravelingWaveReport:
    """Build u = alpha z^ell / (1 - p z^n_wave) and verify it travels rigidly.

    Predicted spectrum: rho = |alpha|/(1-|p|^2) with a monomial inner
    factor of degree ell, and (for p != 0) sigma = rho |p| with one of
    degree n_wave - ell - 1.  Mode n then rotates as
    c_n(t) = exp(-i (omega + n c) t) c_n(0) with c = (rho^2 - sigma^2)/n_wave
    and omega = rho^2 - ell c; (c, omega) are refitted from the phase
    drift of the active modes.
    """
    if ell < 0 or n_wave <= ell:
        raise InputError("need 0 <= ell < n_wave")
    if abs(p) >= 1.0:
        raise InputError("wave parameter p must lie inside the unit disc")
    if alpha == 0:
        raise InputError("leading coefficient alpha must be nonzero")
    num = np.zeros(ell + 1, dtype=complex)
    num[ell] = alpha
    den = np.zeros(n_wave + 1, dtype=complex)
    den[0] = 1.0
    den[n_wave] = -p
    u = Symbol.from_rational(RationalFunction.from_coeff_lists(num, den))

    rho = abs(alpha) / (1.0 - abs(p) ** 2)
    sigma = rho * abs(p)
    if p == 0:
        speed = 0.0
        omega = rho ** 2
    else:
        speed = (rho ** 2 - sigma ** 2) / n_wave
        omega = rho ** 2 - ell * speed

    data = forward(u)
    failures = []
    expect_n = 1 if p == 0 else 2
    if data.n != expect_n:
        failures.append(f"expected {expect_n} spectral values, found {data.n}")
    else:
        want_s = [rho] if p == 0 else [rho, sigma]
        for i, (got, want) in enumerate(zip(data.s, want_s)):
            if abs(got - want) > 1e-8 * max(want, 1.0):
                failures.append(f"s_{i + 1} = {got:.12g}, expected {want:.12g}")
        want_deg = [ell] if p == 0 else [ell, n_wave - ell - 1]
        for i, (b, deg) in enumerate(zip(data.psi, want_deg)):
            if b.degree != deg:
                failures.append(
                    f"inner factor {i + 1} has degree {b.degree}, expected {deg}")
                continue
            lower = b.p.padded(deg + 1)[:deg]
            if lower.size and np.max(np.abs(lower)) > 1e-6:
                failures.append(f"inner factor {i + 1} is not a monomial")

    traj = direct_evolve(u, t_final, dt)
    c0 = traj.states[0]
    ct = traj.states[-1]
    t_end = float(traj.times[-1])
    norm = max(u.l2_norm, 1e-300)
    active = np.nonzero(np.abs(c0) > 1e-8 * norm)[0]

    def unwrapped_rate(n_mode: int) -> float:
        theta = -np.angle(ct[n_mode] / c0[n_mode])
        expected = (omega + n_mode * speed) * t_end
        theta += 2.0 * math.pi * round((expected - theta) / (2.0 * math.pi))
        return theta / t_end

    if active.size == 0:
        raise InputError("symbol has no active modes")
    if p == 0 or active.size == 1:
        fitted_speed = 0.0
        fitted_omega = unwrapped_rate(int(active[0]))
    else:
        n1, n2 = int(active[0]), int(active[1])
        r1, r2 = unwrapped_rate(n1), unwrapped_rate(n2)
        fitted_speed = (r2 - r1) / (n2 - n1)
        fitted_omega = r1 - n1 * fitted_speed

    phases = np.exp(-1j * (fitted_omega + np.arange(c0.size) * fitted_speed) * t_end)
    residual = float(np.max(np.abs(ct - phases * c0))) / norm
    return TravelingWaveReport(u, data, rho, sigma, speed, omega,
                               fitted_speed, fitted_omega,
                               not failures, tuple(failures), residual)
