"""Acceptance gate: one test (and one pass/fail line under pytest -v) per criterion.

Each criterion pins its own tolerances; nothing here is shared state, so a
failure localizes to exactly one numbered property.  Criteria 1, 4 and 9
run the `szego verify` suite that defines their property on the same
seeded draws, and pin the suite's thresholds; criteria 6 and 8 also run
the flow and aak suites, so every suite of `szego verify` runs here.
"""

import time

import numpy as np

from szego import forward_map, verify
from szego.aak import best_approx
from szego.algebra import Poly, RationalFunction
from szego.bateman import j_of_x
from szego.blaschke import from_zeros
from szego.forward_map import SpectralData, forward
from szego.hankel import FastHankel, Symbol, hankel_matvec, resize_symbol
from szego.inverse_map import synthesize
from szego.szego_flow import (compare_flows, direct_evolve,
                              energy_from_values, traveling_wave)
from szego.verify import random_low_rank, random_spectral_data

HAND = Symbol(np.array([3.0, 2.0], dtype=complex))
RANK_ONE = RationalFunction(Poly([0.75]), Poly([1.0, -0.5]))


def report(num, ok, detail):
    mark = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {mark} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def report_suite(num, suite, seed, count, pinned, time_limit=np.inf):
    """Run one verify suite; every one of its count cases must pass."""
    t0 = time.monotonic()
    cases = verify.run([suite], seed=seed)
    elapsed = time.monotonic() - t0
    failed = [(c.name, c.detail) for c in cases if not c.passed]
    ok = pinned and len(cases) == count and not failed and elapsed < time_limit
    report(num, ok, f"{suite} suite: {len(cases) - len(failed)}/{len(cases)} "
                    f"pass in {elapsed:.1f}s, thresholds pinned: {pinned}, "
                    f"failures: {failed!r}")


def test_criterion_01_roundtrip_bijection():
    pinned = (verify.ROUNDTRIP_S_TOL, verify.ROUNDTRIP_ANGLE_TOL,
              verify.ROUNDTRIP_P_TOL, verify.CONSISTENCY_TOL) \
        == (1e-8, 1e-6, 1e-6, 1e-9)
    report_suite(1, "roundtrip", 1, 50, pinned, time_limit=30.0)


def test_criterion_02_rank_one_closed_form():
    data = forward(Symbol.from_rational(RANK_ONE))
    gap = float(np.max(np.abs(data.s - [1.0, 0.5])))
    report(2, data.n == 2 and gap < 1e-9, f"s = {data.s}, gap {gap:.2e}")


def test_criterion_03_multiplicity_two():
    u = resize_symbol(Symbol(np.array([0.0, 1.0])), 8)
    data, details = forward(u, details=True)
    members = [c for c in details.clusters_h if c.member]
    dim = members[0].dim if members else 0
    circle = np.exp(2j * np.pi * np.arange(16) / 16)
    psi_gap = float(np.max(np.abs(data.psi[0](circle) - circle)))
    analyze_ok = (data.n == 1 and abs(data.s[0] - 1.0) < 1e-8
                  and len(members) == 1 and dim == 2
                  and psi_gap < 1e-8)

    monomial = from_zeros(np.array([0.0]), 0.0)
    result = synthesize(SpectralData(np.array([1.0]), (monomial,)))
    target = np.zeros(4, dtype=complex)
    target[1] = 1.0
    synth_gap = float(np.max(np.abs(result.rational.taylor(4) - target)))
    report(3, analyze_ok and synth_gap < 1e-9,
           f"dim {dim}, inner-factor gap {psi_gap:.2e}, "
           f"reconstruction gap {synth_gap:.2e}")


def test_criterion_04_closed_form_identity_suite():
    pinned = (verify.HAND_TOL, verify.IDENTITY_TOL) == (1e-12, 1e-10)
    report_suite(4, "bateman", 4, 101, pinned)


def test_criterion_05_energy_identity():
    u = resize_symbol(HAND, 8)
    grid = energy_from_values(u)
    alternating = forward(u).energy()
    hand_gap = max(abs(grid - 241.0 / 4.0), abs(alternating - 241.0 / 4.0))

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        w = random_low_rank(rng)
        e_grid = energy_from_values(w)
        e_data = forward(w).energy()
        worst = max(worst, abs(e_grid - e_data) / max(1.0, abs(e_grid)))
    report(5, hand_gap < 1e-10 and worst < 1e-8,
           f"hand gap {hand_gap:.2e}, worst of 20 random {worst:.2e}")


def test_criterion_06_flow_agreement():
    rng = np.random.default_rng(6)
    symbols = [
        Symbol(np.array([0.0, 1.0], dtype=complex)),
        Symbol.from_rational(
            RationalFunction.from_coeff_lists([0.0, 0.75], [1.0, 0.0, -0.5])),
    ]
    for _ in range(3):
        _, result = random_spectral_data(rng, n_max=2, d_max=1, min_root=1.3,
                                         s_range=(0.5, 1.2))
        symbols.append(result.u)
    t0 = time.monotonic()
    worst_gap = worst_drift = 0.0
    for u0 in symbols:
        u = resize_symbol(u0, 128)
        cmp = compare_flows(u, 1.0, 1e-3)
        worst_gap = max(worst_gap, cmp.max_gap * u.l2_norm)
        worst_drift = max(worst_drift, max(cmp.drift.values()))
    elapsed = time.monotonic() - t0
    ok = worst_gap < 1e-6 and worst_drift < 1e-8 and elapsed < 60.0
    report(6, ok, f"5 symbols at 128 modes: gap {worst_gap:.2e}, "
                  f"drift {worst_drift:.2e}, {elapsed:.1f}s")
    report_suite(6, "flow", 6, 5, True)


def test_criterion_07_hierarchy_speeds():
    t = 1e-3
    worst = 0.0
    for u0 in (HAND, Symbol.from_rational(RANK_ONE)):
        u = resize_symbol(u0, 128)
        data0 = forward(u)
        for y in (0.5, 2.0):
            j = j_of_x(data0.interlaced(), -y)
            omega = ((-1.0) ** np.arange(data0.n)
                     * 2.0 * y * j / (1.0 + y * data0.s ** 2))
            traj = direct_evolve(u, t, 1e-5, y=y)
            data_t = forward(traj.state(-1))
            raw = data0.angles() - data_t.angles()
            fd = ((raw + np.pi) % (2.0 * np.pi) - np.pi) / t
            worst = max(worst, float(np.max(np.abs(fd - omega) / np.abs(omega))))
    report(7, worst < 1e-5,
           f"two symbols, y in (0.5, 2): worst relative speed gap {worst:.2e}")


def test_criterion_08_best_rank_one_distance():
    result = best_approx(HAND, 1)
    cert = result.certificate
    ok = abs(cert.op_norm - 1.0) < 1e-7 and cert.rank == 1
    report(8, ok, f"distance {cert.op_norm:.12g}, rank {cert.rank}")
    report_suite(8, "aak", 8, 8, True)


def test_criterion_09_real_symbol_diagnostics():
    pinned = (forward_map.REAL_TOL, forward_map.REAL_ZERO_FLOOR_REL) \
        == (1e-6, 1e-8)
    report_suite(9, "real", 9, 20, pinned)


def test_criterion_10_fast_matvec():
    rng = np.random.default_rng(10)
    c = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    c /= np.linalg.norm(c)
    x /= np.linalg.norm(x)
    gap = float(np.max(np.abs(FastHankel(c).dense() @ x - hankel_matvec(c, x))))

    n = 4096
    c_big = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x_big = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dense = FastHankel(c_big).dense()
    t_dense = min(_timed(lambda: dense @ x_big) for _ in range(5))
    t_fast = min(_timed(lambda: hankel_matvec(c_big, x_big)) for _ in range(5))
    speedup = t_dense / t_fast
    ok = gap < 1e-12 and speedup >= 10.0
    report(10, ok, f"N=256 gap {gap:.2e}; N=4096 dense {t_dense * 1e3:.2f}ms "
                   f"vs fast {t_fast * 1e3:.2f}ms ({speedup:.0f}x)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_11_traveling_wave():
    rep = traveling_wave(1.0, 1, 2, 0.5, t_final=0.5, dt=1e-3)
    data, details = forward(rep.symbol, details=True)
    members_h = [c for c in details.clusters_h if c.member]
    circle = np.exp(2j * np.pi * np.arange(16) / 16)
    m = members_h[0].dim if members_h else 0
    inner_gap = float(np.max(np.abs(
        np.abs(data.psi[0](circle)) - np.abs(circle ** (m - 1))))) if m else np.inf
    monomial_gap = float(np.max(np.abs(
        data.psi[0].p.padded(m) - np.eye(m)[m - 1]))) if m else np.inf
    ok = (rep.shape_ok and len(members_h) == 1
          and monomial_gap < 1e-8 and inner_gap < 1e-8
          and rep.fit_gap < 1e-6 and rep.rotation_residual < 1e-6)
    report(11, ok, f"one plain cluster of dim {m}, inner factor z^{m - 1} "
                   f"to {monomial_gap:.1e}, rotation fit {rep.fit_gap:.2e}, "
                   f"residual {rep.rotation_residual:.2e}")
