"""Seeded property suites, shared by the CLI runner and the test battery.

Each suite draws its inputs deterministically from a seed, then checks
module invariants: the closed-form identity battery, round trips of the
spectral map, the approximation certificates, flow agreement, and the
real-symbol diagnostics.  Cases run one after another and come back in
the order their suites list them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import aak as aak_mod
from . import bateman
from .algebra import Poly, RationalFunction
from .blaschke import BlaschkeProduct, from_zeros
from .errors import NumericalError, SzegoError
from .forward_map import SpectralData, forward, real_diagnostics
from .hankel import Symbol, resize_symbol
from .inverse_map import compare_spectral, consistency_report, synthesize
from .szego_flow import compare_flows, traveling_wave

SUITE_NAMES = ("bateman", "roundtrip", "aak", "flow", "real")


@dataclass(frozen=True)
class VerifyCase:
    suite: str
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------- generators

def random_interlaced(rng, q_max: int = 6) -> bateman.InterlacedValues:
    """Interlaced lists in [0.1, 10] with gaps of at least 2% of the top."""
    while True:
        q = int(rng.integers(1, q_max + 1))
        vals = np.sort(rng.uniform(0.1, 10.0, 2 * q))[::-1]
        if q == 1 or np.min(-np.diff(vals)) >= 0.02 * vals[0]:
            break
    rho = vals[0::2].copy()
    sigma = vals[1::2].copy()
    if rng.random() < 0.3:
        sigma[-1] = 0.0
    return bateman.InterlacedValues(rho, sigma)


def random_blaschke(rng, d_max: int = 2, radius: float = 0.7) -> BlaschkeProduct:
    d = int(rng.integers(0, d_max + 1))
    angle = float(rng.uniform(0.0, 2.0 * np.pi))
    if d == 0:
        return BlaschkeProduct.constant(angle)
    r = radius * np.sqrt(rng.random(d))
    th = rng.uniform(0.0, 2.0 * np.pi, d)
    return from_zeros(r * np.exp(1j * th), angle)


def random_spectral_data(rng, n_max: int = 4, d_max: int = 2,
                         min_root: float = 1.03, max_tries: int = 80,
                         s_range=(3.0, 10.0)):
    """A data set plus its synthesis, redrawn until well conditioned.

    Top value drawn from s_range, successive ratios in [0.35, 0.9] (with
    the default range every value stays in [0.1, 10] with relative gaps
    of 10% or more); Blaschke zeros within radius 0.7.  Draws whose
    determinant has a root with modulus below min_root are rejected,
    keeping the reconstruction stable.
    """
    for _ in range(max_tries):
        n = int(rng.integers(1, n_max + 1))
        s = [float(rng.uniform(*s_range))]
        for _ in range(n - 1):
            s.append(s[-1] * float(rng.uniform(0.35, 0.9)))
        psi = tuple(random_blaschke(rng, d_max) for _ in range(n))
        try:
            data = SpectralData(np.array(s), psi)
            result = synthesize(data)
        except SzegoError:
            continue
        if result.min_root_modulus is not None and result.min_root_modulus < min_root:
            continue
        return data, result
    raise NumericalError("could not draw a well-conditioned spectral data set")


def random_low_rank(rng, max_rank: int = 3) -> Symbol:
    """Random rational symbol of Hankel rank at most max_rank."""
    rank = int(rng.integers(1, max_rank + 1))
    poles = 0.6 * np.sqrt(rng.random(rank)) * \
        np.exp(2j * np.pi * rng.random(rank))
    den = np.ones(1, dtype=complex)
    for a in poles:
        den = np.convolve(den, np.array([1.0, -a]))
    while True:
        num = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
        if np.max(np.abs(num)) >= 0.3:
            break
    return Symbol.from_rational(
        RationalFunction(Poly(num), Poly(den), check_coprime=False))


def random_real_symbol(rng) -> Symbol:
    """Random real rational (or polynomial) symbol with real poles."""
    deg = int(rng.integers(1, 4))
    while True:
        num = rng.uniform(-2.0, 2.0, deg)
        if np.max(np.abs(num)) >= 0.3:
            break
    if rng.random() < 0.3:
        return Symbol(num.astype(complex))
    roots = rng.uniform(-0.7, 0.7, deg)
    den = np.ones(1)
    for a in roots:
        den = np.convolve(den, np.array([1.0, -a]))
    return Symbol.from_rational(
        RationalFunction.from_coeff_lists(num, den, check_coprime=False))


# -------------------------------------------------------------------- suites

def _bateman_cases(seed: int, count: int = 100):
    rng = np.random.default_rng(seed)
    draws = [random_interlaced(rng) for _ in range(count)]

    def hand():
        v = bateman.InterlacedValues(np.array([4.0, 1.0]), np.array([2.0, 0.0]))
        tau2 = bateman.tau_squares(v)
        kap2 = bateman.kappa_squares(v)
        gap = max(np.max(np.abs(tau2 - [12.8, 0.2])),
                  np.max(np.abs(kap2 - [9.0, 4.0])))
        return gap < 1e-12, f"hand values off by {gap:.2e}"

    cases = [("hand rho=(4,1) sigma=(2,0)", hand)]

    def make(i, v):
        def run():
            rep = bateman.identity_residuals(v)
            for x in (-10.0, -1.0, -0.1, 0.5 / v.rho[0] ** 2):
                bateman.j_of_x(v, x)
            ok = rep.max_residual < 1e-10
            return ok, f"q={v.q} max residual {rep.max_residual:.2e}"
        return (f"identities #{i}", run)

    cases.extend(make(i, v) for i, v in enumerate(draws))
    return cases


def _roundtrip_cases(seed: int, count: int = 50):
    rng = np.random.default_rng(seed)
    draws = [random_spectral_data(rng) for _ in range(count)]

    def make(i, data, result):
        def run():
            got = forward(result.u)
            s_rel, ang, pco = compare_spectral(got, data)
            cons = consistency_report(result).max_residual
            ok = s_rel < 1e-8 and ang < 1e-6 and pco < 1e-6 and cons < 1e-9
            return ok, (f"n={data.n} N={result.total_degree} s_rel={s_rel:.2e} "
                        f"angle={ang:.2e} P={pco:.2e} consistency={cons:.2e}")
        return (f"roundtrip #{i}", run)

    return [make(i, d, r) for i, (d, r) in enumerate(draws)]


def _aak_cases(seed: int):
    rng = np.random.default_rng(seed)
    randoms = [random_low_rank(rng, 3) for _ in range(3)]
    perturb_rng = np.random.default_rng(seed + 1)
    ratio_rng = np.random.default_rng(seed + 2)
    rng4 = np.random.default_rng(seed + 3)
    for _ in range(40):
        rand_data, rand_result = random_spectral_data(rng4, n_max=1, d_max=2)
        if rand_data.psi[0].degree == 2:
            break

    def hand():
        u = Symbol(np.array([3.0, 2.0]))
        res = aak_mod.best_approx(u, 1)
        gap = abs(res.certificate.op_norm - 1.0)
        ok = gap <= 1e-7 and res.certificate.rank == 1
        return ok, (f"|opnorm-1|={gap:.2e} rank={res.certificate.rank}")

    def perturb():
        u = Symbol(np.array([3.0, 2.0]))
        res = aak_mod.best_approx(u, 1)
        best = aak_mod.perturbation_sanity(res, 200, rng=perturb_rng)
        ok = best >= res.s * (1.0 - 1e-9)
        return ok, f"closest perturbed distance {best:.9f} vs s={res.s}"

    def already_rank_one():
        u = Symbol.from_rational(
            RationalFunction.from_coeff_lists([0.75], [1.0, -0.5]))
        res = aak_mod.best_approx(u, 1)
        gap = float(np.max(np.abs(res.r.coeffs - resize_symbol(
            u, res.r.n_modes).coeffs)))
        ok = res.s == 0.0 and gap == 0.0
        return ok, f"distance {res.s}, coefficient gap {gap:.2e}"

    def make_random(i, u):
        def run():
            res = aak_mod.best_approx(u, 1)
            ok = res.s == 0.0 or res.certificate.distance_gap <= 1e-7
            return ok, (f"s={res.s:.6f} rel gap "
                        f"{res.certificate.distance_gap:.2e} "
                        f"rank={res.certificate.rank}")
        return (f"random rank<=3 #{i}", run)

    def ratio_monomial():
        u = resize_symbol(Symbol(np.array([0.0, 1.0])), 4)
        data, det = forward(u, details=True)
        cluster = next(c for c in det.clusters_h if c.member and not c.is_zero)
        samples = aak_mod.ratio_certificate(u, cluster, rng=ratio_rng)
        worst = max(max(s.fit_residual, s.unimodularity, s.reflection_gap)
                    for s in samples)
        return True, f"m={cluster.dim} worst residual {worst:.2e}"

    def ratio_random():
        data, det = forward(rand_result.u, details=True)
        cluster = next(c for c in det.clusters_h if c.member and not c.is_zero)
        samples = aak_mod.ratio_certificate(rand_result.u, cluster, rng=ratio_rng)
        worst = max(max(s.fit_residual, s.unimodularity, s.reflection_gap)
                    for s in samples)
        return True, f"m={cluster.dim} worst residual {worst:.2e}"

    cases = [("hand 3+2z k=1", hand),
             ("perturbation sanity", perturb),
             ("rank-one already k=1", already_rank_one)]
    cases.extend(make_random(i, u) for i, u in enumerate(randoms))
    cases.append(("ratio certificate monomial", ratio_monomial))
    cases.append(("ratio certificate random", ratio_random))
    return cases


def _flow_cases(seed: int):
    rng = np.random.default_rng(seed)
    _, rand_result = random_spectral_data(rng, n_max=2, d_max=1, min_root=1.3,
                                          s_range=(0.5, 1.2))

    def monomial():
        u = resize_symbol(Symbol(np.array([0.0, 1.0])), 16)
        cmp = compare_flows(u, float(np.pi), 1e-3)
        final = Symbol(cmp.trajectory.states[-1])
        target = np.zeros(16, dtype=complex)
        target[1] = -1.0
        end_gap = float(np.linalg.norm(final.coeffs - target))
        ok = cmp.max_gap < 1e-6 and end_gap < 1e-6
        return ok, f"max gap {cmp.max_gap:.2e}, u(pi) vs -z {end_gap:.2e}"

    def rank_two():
        u = resize_symbol(Symbol.from_rational(
            RationalFunction.from_coeff_lists([0.0, 0.75], [1.0, 0.0, -0.5])), 64)
        cmp = compare_flows(u, 0.5, 1e-3)
        ok = cmp.max_gap < 1e-6 and max(cmp.drift.values()) < 1e-8
        return ok, (f"max gap {cmp.max_gap:.2e} drift "
                    f"{max(cmp.drift.values()):.2e}")

    def hierarchy_constant():
        u = resize_symbol(Symbol(np.array([0.5])), 8)
        cmp = compare_flows(u, 0.05, 1e-4, y=1.0)
        ok = cmp.max_gap < 1e-8
        return ok, f"max gap {cmp.max_gap:.2e}"

    def random_flow():
        u = resize_symbol(rand_result.u, 64)
        cmp = compare_flows(u, 0.2, 5e-4)
        ok = cmp.max_gap < 1e-6 and max(cmp.drift.values()) < 1e-8
        return ok, (f"max gap {cmp.max_gap:.2e} drift "
                    f"{max(cmp.drift.values()):.2e}")

    def wave():
        rep = traveling_wave(1.0, 1, 3, 0.35 + 0.2j, t_final=0.2)
        ok = rep.shape_ok and rep.fit_gap < 1e-6 and rep.rotation_residual < 1e-6
        return ok, (f"shape={rep.shape_ok} fit gap {rep.fit_gap:.2e} "
                    f"rotation {rep.rotation_residual:.2e}")

    return [("monomial half turn", monomial),
            ("rank two", rank_two),
            ("hierarchy constant", hierarchy_constant),
            ("random symbol", random_flow),
            ("traveling wave", wave)]


def _real_cases(seed: int, count: int = 20):
    rng = np.random.default_rng(seed)
    draws = [random_real_symbol(rng) for _ in range(count)]

    def make(i, u):
        def run():
            rep = real_diagnostics(u)
            detail = "ok" if rep.passed else "; ".join(rep.failures)
            return rep.passed, f"n_values={rep.lambdas.size + rep.mus.size} {detail}"
        return (f"real symbol #{i}", run)

    return [make(i, u) for i, u in enumerate(draws)]


_BUILDERS = {
    "bateman": _bateman_cases,
    "roundtrip": _roundtrip_cases,
    "aak": _aak_cases,
    "flow": _flow_cases,
    "real": _real_cases,
}


def run(suites=None, seed: int = 0) -> list:
    """Run the named suites (all by default); returns ordered VerifyCase list.

    Each suite draws its case inputs from its own seed.  A case that
    raises becomes a failed VerifyCase whose detail names the exception.
    """
    if suites is None:
        suites = SUITE_NAMES
    jobs = []
    for offset, name in enumerate(suites):
        if name not in _BUILDERS:
            raise ValueError(f"unknown suite {name!r}; pick from {SUITE_NAMES}")
        for case_name, fn in _BUILDERS[name](seed + 1000 * offset):
            jobs.append((name, case_name, fn))

    results = []
    for suite, case_name, fn in jobs:
        try:
            passed, detail = fn()
        except Exception as exc:  # report, never crash the runner
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(VerifyCase(suite, case_name, bool(passed), detail))
    return results
