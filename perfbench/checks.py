"""Checks of every benchmark operation's output.

Each check compares an output with an independent computation or with a
property the method must have; none compares with stored output.  The
reference quantities come from this file: Taylor coefficients from the
impulse response of num/den (scipy.signal.lfilter), singular values of
exact Hankel sections from scipy.linalg.svdvals, flow rotation rates and
conserved quantities from their closed forms.  Every check returns a list
of problems, empty when the output passes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.signal

from szego.blaschke import BlaschkeProduct
from szego.forward_map import SpectralData
from szego.inverse_map import synthesize

# Acceptance criterion 1 of the repository.
S_REL_TOL = 1e-8
ANGLE_TOL = 1e-6
P_COEFF_TOL = 1e-6
# large_n: values against exact sections, relative to the top value.
SPECTRUM_TOL = 1e-8
RANK_REL = 1e-9
RECONSTRUCTION_TOL = 1e-8
# large_n: best_approx distance against s_2, and the approximant's rank cut.
APPROX_TOL = 1e-7
APPROX_RANK_REL = 1e-7
# flow: RK4 against exact rotation, and conserved-quantity drift.
FLOW_GAP_TOL = 1e-6
DRIFT_TOL = 1e-8


def taylor(num, den, n: int) -> np.ndarray:
    """First n Taylor coefficients of num/den: the filter's impulse response."""
    impulse = np.zeros(n, dtype=complex)
    impulse[0] = 1.0
    return scipy.signal.lfilter(np.asarray(num, dtype=complex),
                                np.asarray(den, dtype=complex), impulse)


def section(c: np.ndarray, m: int) -> np.ndarray:
    """Exact m x m Hankel section [c_{i+j}] from 2m - 1 coefficients."""
    return scipy.linalg.hankel(c[:m], c[m - 1: 2 * m - 1])


def angle_gap(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


# ---------------------------------------------------------------- roundtrip

def check_roundtrip(want: SpectralData, got: SpectralData) -> list:
    """forward(synthesize(d)) must give back d: same n, s, angles, P."""
    if got.n != want.n:
        return [f"n = {got.n}, expected {want.n}"]
    problems = []
    s_rel = float(np.max(np.abs(np.asarray(got.s) - want.s) / want.s))
    if not s_rel < S_REL_TOL:
        problems.append(f"relative s gap {s_rel:.3e}")
    for i, (bg, bw) in enumerate(zip(got.psi, want.psi)):
        gap = angle_gap(bg.angle, bw.angle)
        if not gap < ANGLE_TOL:
            problems.append(f"angle {i} off by {gap:.3e}")
        if bg.degree != bw.degree:
            problems.append(f"Blaschke degree {bg.degree} at {i}, expected {bw.degree}")
            continue
        pad = bw.degree + 1
        pgap = float(np.max(np.abs(bg.p.padded(pad) - bw.p.padded(pad))))
        if not pgap < P_COEFF_TOL:
            problems.append(f"Blaschke coefficients {i} off by {pgap:.3e}")
    return problems


# ------------------------------------------------------------------ large_n

def check_spectrum(item, data: SpectralData) -> list:
    """Values at odd positions are singular values of the exact section,
    values at even positions of the shifted one, and together they use up
    the ranks of both sections (every value of a generic symbol is simple
    and essential)."""
    m = item.symbol.n_modes
    c = taylor(item.num, item.den, 2 * m)
    plain = scipy.linalg.svdvals(section(c, m))
    shifted = scipy.linalg.svdvals(section(c[1:], m))
    top = float(plain[0])
    rank = int(np.sum(plain > RANK_REL * top) + np.sum(shifted > RANK_REL * top))
    if data.n != rank:
        return [f"n = {data.n}, but the sections have ranks adding to {rank}"]
    problems = []
    for i, s in enumerate(data.s):
        ref = plain if i % 2 == 0 else shifted
        gap = float(np.min(np.abs(ref - s)))
        if not gap <= SPECTRUM_TOL * top:
            problems.append(f"s_{i + 1} = {s:.15g} is {gap:.3e} from the section's values")
    if item.closed_form_r is not None:
        r = item.closed_form_r
        want = np.array([1.0, r]) / (1.0 - r * r)
        if data.n != 2 or not np.max(np.abs(data.s - want)) <= SPECTRUM_TOL * want[0]:
            problems.append(f"s = {data.s}, closed form {want}")
    return problems


def check_reconstruction(item, data: SpectralData) -> list:
    """synthesize(forward(u)) must reproduce u's coefficients."""
    back = synthesize(data).u.coeffs
    c = taylor(item.num, item.den, back.size)
    gap = float(np.linalg.norm(back - c) / np.linalg.norm(c))
    if not gap < RECONSTRUCTION_TOL:
        return [f"reconstruction off by {gap:.3e} (relative l2)"]
    return []


def check_approximation(item, approx) -> list:
    """best_approx(u, 1): the Hankel distance |Gamma_u - Gamma_r| equals s_2
    and Gamma_r has rank one, both from exact sections of the working size.

    The approximant r differs from u by a polynomial of that size, so
    beyond it r continues as u does.
    """
    r = np.asarray(approx.r.coeffs)
    m = r.size
    c = taylor(item.num, item.den, 2 * m - 1)
    r_ext = np.concatenate([r, c[m:]])
    s_u = scipy.linalg.svdvals(section(c, m))
    target = float(s_u[1])
    distance = float(scipy.linalg.svdvals(section(c - r_ext, m))[0])
    floor = APPROX_RANK_REL * float(s_u[0])
    problems = []
    if target <= floor:
        # u itself has rank one, so it is its own best approximation
        if not distance <= floor:
            problems.append(f"distance {distance:.15g} for a rank-one symbol")
    elif not abs(distance - target) <= APPROX_TOL * target:
        problems.append(f"distance {distance:.15g}, s_2 = {target:.15g}")
    s_r = scipy.linalg.svdvals(section(r_ext, m))
    rank = int(np.sum(s_r > floor))
    if rank > 1:
        problems.append(f"approximant has rank {rank}")
    return problems


def check_large_n(item, out) -> list:
    data, approx = out
    return (check_spectrum(item, data) + check_reconstruction(item, data)
            + check_approximation(item, approx))


# --------------------------------------------------------------------- flow

def rotated(data: SpectralData, t: float, y: float | None) -> SpectralData:
    """Spectral data after time t of the cubic flow (y None) or of the
    flow generated by J(y): each inner factor rotates rigidly.

    Cubic: psi_r + (-1)**(r-1) s_r**2 t.  J(y): psi_r - omega_r t with
    omega_r = (-1)**(r-1) 2 y J / (1 + y s_r**2) and
    J = prod (1 + y sigma**2) / (1 + y rho**2).
    """
    s = np.asarray(data.s)
    signs = (-1.0) ** np.arange(s.size)
    if y is None:
        shift = signs * s ** 2 * t
    else:
        rho2, sigma2 = s[0::2] ** 2, s[1::2] ** 2
        j = float(np.prod(1.0 + y * sigma2) / np.prod(1.0 + y * rho2))
        shift = -signs * 2.0 * y * j / (1.0 + y * s ** 2) * t
    psi = tuple(BlaschkeProduct(b.angle + d, b.p) for b, d in zip(data.psi, shift))
    return SpectralData(s, psi)


def conserved(c: np.ndarray, y: float = 1.0) -> np.ndarray:
    """Mass, momentum, quartic energy and the resolvent probe
    J = <(I + y H H*)^-1 e_0, e_0> of a coefficient vector."""
    n = c.size
    m = 1 << (4 * n - 1).bit_length()
    vals = m * np.fft.ifft(c, m)
    gamma = scipy.linalg.hankel(c)
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    probe = np.linalg.solve(np.eye(n) + y * (gamma @ gamma.conj().T), e0)[0].real
    power = np.abs(c) ** 2
    return np.array([power.sum(), (np.arange(n) * power).sum(),
                     0.25 * np.mean(np.abs(vals) ** 4), probe])


def check_one_flow(item, cmp, y: float | None) -> list:
    states = np.asarray(cmp.trajectory.states)
    times = np.asarray(cmp.trajectory.times)
    n = item.symbol.n_modes
    norm = float(np.linalg.norm(item.symbol.coeffs))
    label = "cubic" if y is None else f"y={y:g}"
    problems = []
    if states.shape != (times.size, n) or times.size < 2:
        return [f"{label}: trajectory of shape {states.shape} at {times.size} times"]
    worst = 0.0
    for t, state in zip(times, states):
        exact = synthesize(rotated(item.data, float(t), y)).rational
        ref = taylor(exact.num.coeffs, exact.den.coeffs, n)
        worst = max(worst, float(np.linalg.norm(state - ref)) / norm)
    if not worst < FLOW_GAP_TOL:
        problems.append(f"{label}: RK4 vs exact rotation gap {worst:.3e}")
    base = conserved(states[0])
    scale = np.maximum(np.abs(base), 1.0)
    drift = max(float(np.max(np.abs(conserved(s) - base) / scale)) for s in states[1:])
    if not drift < DRIFT_TOL:
        problems.append(f"{label}: conserved-quantity drift {drift:.3e}")
    return problems


def check_flow(item, out, hierarchy_y: float) -> list:
    cubic, hierarchy = out
    return check_one_flow(item, cubic, None) + check_one_flow(item, hierarchy, hierarchy_y)
