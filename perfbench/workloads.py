"""Seeded inputs and the timed operation of each benchmark workload.

Every workload builds one *round* of inputs from its seed; a run repeats
whole rounds, so each run attempts the same operations in the same
proportions whatever the seed and the run length.  The program sees only
the generated inputs: spectral data, or symbols with an exact rational
form.

Rounds are stratified by input properties that fix the cost of an
operation (truncation size, number of values), so that the median and
the tail fall inside one group of similar operations instead of jumping
between groups from one seed to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The operations call through the module objects, so that the spans the
# tracer installs in those modules also see the benchmark's own calls.
from szego import aak, forward_map, inverse_map, szego_flow
from szego.algebra import Poly, RationalFunction
from szego.forward_map import SpectralData
from szego.hankel import Symbol, resize_symbol
from szego.verify import random_spectral_data

WORKLOADS = ("roundtrip", "large_n", "flow")

# ---------------------------------------------------------------- roundtrip
#
# The synthesized symbol's coefficients decay like rho**-n, with rho the
# smallest root modulus of the synthesis determinant, so rho decides the
# truncation Symbol.from_rational settles at.  Measured on 300 draws: 256
# modes below rho = 1.19, 128 up to 1.46, 64 up to 2.31, 32 above.  The
# bands below leave gaps around those switch points, so a band maps to
# one truncation.  rho is a property of the data, not of the program.
RT_BANDS = {
    "N32": (2.4, np.inf),
    "N64": (1.5, 2.1),
    "N128": (1.22, 1.40),
    "N256": (1.10, 1.18),
}
RT_MIN_ROOT = 1.10          # keeps every truncation on the dense path (<= 512)
# Short spectra (q <= 2) from the criterion-1 generator.  Sorted by cost,
# the 20 operations of a round are 4 + 8 cheap ones (N = 32, 64), so the
# median sits inside the N = 64 group, and 6 dense N = 256 ones, which
# hold the tail.
RT_SHORT_QUOTA = {"N32": 4, "N64": 8, "N128": 2, "N256": 3}
# Long spectra (q >= 3) bring the q**2 minors of polymatrix_det_minors.
# They are drawn with Blaschke degree <= 1 because degree-2 factors make
# long data so ill-conditioned that the generator almost never returns
# one.  Total degree <= 8 keeps the starting size of from_rational at 32,
# so the band decides the truncation as for short spectra.  Share: 3/20.
RT_LONG_QUOTA = {"N256": 3}
RT_LONG_MAX_DEGREE = 8
MAX_DRAWS = 20000


def _band(data, result) -> str | None:
    rho = result.min_root_modulus
    rho = np.inf if rho is None else rho
    for name, (lo, hi) in RT_BANDS.items():
        if lo <= rho < hi:
            return name
    return None


def _fill(rng, quota: dict, cell, **generator_args) -> list:
    """Draws (data, synthesis) pairs until every cell has its quota.

    cell(data, synthesis) names the cell of a draw, or None to skip it.
    """
    left = dict(quota)
    picked = []
    for _ in range(MAX_DRAWS):
        if not any(left.values()):
            return picked
        data, result = random_spectral_data(rng, **generator_args)
        name = cell(data, result)
        if left.get(name, 0) > 0:
            left[name] -= 1
            picked.append((data, result))
    raise RuntimeError(f"generator did not fill the quota {quota} in {MAX_DRAWS} draws")


def roundtrip_inputs(seed: int) -> list:
    """One round: 17 short and 3 long spectral data sets."""
    short = _fill(np.random.default_rng([seed, 0]), RT_SHORT_QUOTA, _band,
                  n_max=4, d_max=2, min_root=RT_MIN_ROOT)
    long = _fill(np.random.default_rng([seed, 1]), RT_LONG_QUOTA,
                 lambda d, r: _band(d, r) if d.q >= 3
                 and d.total_degree <= RT_LONG_MAX_DEGREE else None,
                 n_max=6, d_max=1, min_root=RT_MIN_ROOT)
    return [data for data, _ in short + long]


def roundtrip_op(data: SpectralData) -> SpectralData:
    return forward_map.forward(inverse_map.synthesize(data).u)


# ------------------------------------------------------------------ large_n
#
# Slots of (Hankel rank, dominant pole radius range).  Radii 0.96-0.975
# make from_rational settle at N = 1024, above the dense cutoff of 512;
# 0.98 would give 2048.  best_approx works at N = 1024 for radii below
# about 0.969, so the round's median is one of the two N = 1024
# operations.  Above that its working size grows with the radius (1281
# at 0.975, at 1.7 times the cost), so the third slot's radius is fixed
# and its seed varies only the pole's angle, the other poles and the
# numerator.
LARGE_N_SLOTS = ((1, 0.960, 0.964), (2, 0.960, 0.964), (3, 0.975, 0.975))
SECONDARY_POLE_RADIUS = 0.6


@dataclass(frozen=True, eq=False)
class LargeNInput:
    """A rational symbol, with the coefficient lists it was built from."""

    symbol: Symbol
    num: np.ndarray
    den: np.ndarray
    rank: int
    closed_form_r: float | None    # set for 1/(1 - r z)


def _rational_symbol(num, den) -> Symbol:
    return Symbol.from_rational(
        RationalFunction(Poly(num), Poly(den), check_coprime=False))


def large_n_inputs(seed: int) -> list:
    """One round: 1/(1 - r z), then seeded rank-2 and rank-3 symbols."""
    rng = np.random.default_rng([seed, 2])
    items = []
    for rank, lo, hi in LARGE_N_SLOTS:
        radius = float(rng.uniform(lo, hi))
        if rank == 1:
            num = np.ones(1, dtype=complex)
            den = np.array([1.0, -radius], dtype=complex)
            items.append(LargeNInput(_rational_symbol(num, den), num, den, 1, radius))
            continue
        poles = np.concatenate([
            [radius * np.exp(2j * np.pi * rng.random())],
            SECONDARY_POLE_RADIUS * np.sqrt(rng.random(rank - 1))
            * np.exp(2j * np.pi * rng.random(rank - 1))])
        den = np.ones(1, dtype=complex)
        for a in poles:
            den = np.convolve(den, np.array([1.0, -a]))
        num = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
        num *= 1.0 / np.max(np.abs(num))
        items.append(LargeNInput(_rational_symbol(num, den), num, den, rank, None))
    return items


def large_n_op(item: LargeNInput):
    return forward_map.forward(item.symbol), aak.best_approx(item.symbol, 1)


# --------------------------------------------------------------------- flow
#
# Symbols from the criterion-6 generator at a resolving truncation.  Four
# of the five operations of a round run at N = 128, so the median sits
# in the middle of that group; the N = 256 one is five times as
# expensive.  Each one
# synthesizes about 150 rotated copies of its data, so all three have the
# same shape of data, two values and one Blaschke factor of degree one:
# the cost of a slot does not depend on the seed.
FLOW_SIZES = (128, 128, 128, 128, 256)
FLOW_TOTAL_DEGREE = 2
CUBIC_RUN = (0.5, 1e-3)             # (t_final, dt): 500 RK4 steps, 101 records
HIERARCHY_Y = 1.0
HIERARCHY_RUN = (0.05, 1e-3)        # 50 dense O(N**3) steps, 51 records


@dataclass(frozen=True, eq=False)
class FlowInput:
    """A start symbol with the spectral data it was synthesized from."""

    data: SpectralData
    symbol: Symbol


def flow_inputs(seed: int) -> list:
    drawn = _fill(np.random.default_rng([seed, 3]), {"slot": len(FLOW_SIZES)},
                  lambda d, r: "slot" if d.n == 2
                  and d.total_degree == FLOW_TOTAL_DEGREE else None,
                  n_max=2, d_max=1, min_root=1.3, s_range=(0.5, 1.2))
    return [FlowInput(data, resize_symbol(result.u, n_modes))
            for (data, result), n_modes in zip(drawn, FLOW_SIZES)]


def flow_op(item: FlowInput):
    cubic = szego_flow.compare_flows(item.symbol, *CUBIC_RUN)
    hierarchy = szego_flow.compare_flows(item.symbol, *HIERARCHY_RUN, y=HIERARCHY_Y)
    return cubic, hierarchy


INPUTS = {"roundtrip": roundtrip_inputs, "large_n": large_n_inputs,
          "flow": flow_inputs}
OPS = {"roundtrip": roundtrip_op, "large_n": large_n_op, "flow": flow_op}
