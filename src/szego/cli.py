"""Command-line front end: analysis, synthesis, flows, approximation, verify.

File formats are JSON with explicit [re, im] pairs (lossless for doubles
since Python emits shortest round-trip representations).  Exit codes:
0 ok, 1 verification failure, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np
import scipy.linalg

from . import verify as verify_mod
from .aak import best_approx
from .algebra import Poly, RationalFunction
from .bateman import identity_residuals, kappa_squares, tau_squares
from .blaschke import BlaschkeProduct
from .errors import InputError, NumericalError
from .forward_map import SpectralData, forward
from .hankel import FastHankel, Symbol, resize_symbol
from .inverse_map import roundtrip, synthesize
from .szego_flow import (CONSERVED_LABELS, compare_flows, conserved_quantities,
                         direct_evolve, exact_trajectory, traveling_wave)

FILE_VERSION = 1


# ------------------------------------------------------------------ file I/O

def _pairs_to_complex(obj, what: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what}: expected a list of [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise InputError(f"{what}: expected a nonempty list of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what}: values must be finite")
    return arr[:, 0] + 1j * arr[:, 1]


def _complex_to_pairs(c: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(c, dtype=complex)]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    version = doc.get("version")
    if version != FILE_VERSION:
        raise InputError(f"{path}: unsupported version {version!r}")
    return doc


def load_symbol(path: str, trunc: int | None = None) -> Symbol:
    """A symbol from 'coeffs', from 'rational' (expanded to its stored
    'truncation' or a resolved one), or from both as symbol_payload
    writes them, in which case Symbol checks that the two agree."""
    doc = _load_json(path)
    if "coeffs" not in doc and "rational" not in doc:
        raise InputError(f"{path}: need 'coeffs' or 'rational'")
    rf = None
    if "rational" in doc:
        rat = doc["rational"]
        if not isinstance(rat, dict) or "num" not in rat or "den" not in rat:
            raise InputError(f"{path}: 'rational' needs 'num' and 'den'")
        num = _pairs_to_complex(rat["num"], "num")
        den = _pairs_to_complex(rat["den"], "den")
        if abs(den[0] - 1.0) > 1e-12:
            raise InputError(f"{path}: rational denominator must have den[0] = 1")
        rf = RationalFunction(Poly(num), Poly(den))
    if "coeffs" not in doc:
        stored = doc.get("truncation")
        if stored is not None and trunc is None:
            trunc = int(stored)
        return Symbol.from_rational(rf, n_modes=trunc)
    u = Symbol(_pairs_to_complex(doc["coeffs"], "coeffs"), rational=rf)
    if trunc is not None:
        u = resize_symbol(u, int(trunc))
    return u


def symbol_payload(u: Symbol) -> dict:
    doc = {"version": FILE_VERSION, "coeffs": _complex_to_pairs(u.coeffs)}
    if u.rational is not None:
        num = u.rational.num.coeffs if u.rational.num else np.zeros(1, dtype=complex)
        doc["rational"] = {"num": _complex_to_pairs(num),
                           "den": _complex_to_pairs(u.rational.den.coeffs)}
        doc["truncation"] = u.n_modes
    return doc


def load_spectral(path: str) -> SpectralData:
    doc = _load_json(path)
    items = doc.get("data")
    if not isinstance(items, list) or not items:
        raise InputError(f"{path}: 'data' must be a nonempty list")
    s = []
    psi = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise InputError(f"{path}: data[{i}] must be an object")
        try:
            s.append(float(item["s"]))
            angle = float(item["psi"])
            p = _pairs_to_complex(item["P"], f"data[{i}].P")
        except KeyError as exc:
            raise InputError(f"{path}: data[{i}] is missing {exc}") from exc
        psi.append(BlaschkeProduct(angle, Poly(p)))
    return SpectralData(np.array(s), tuple(psi))


def spectral_payload(data: SpectralData) -> dict:
    items = []
    for s, b in zip(data.s, data.psi):
        items.append({"s": float(s), "psi": float(b.angle),
                      "P": _complex_to_pairs(b.p.padded(b.degree + 1))})
    return {"version": FILE_VERSION, "data": items}


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _parse_complex_arg(text: str, what: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise InputError(f"{what}: expected 're' or 're,im', got {text!r}")


# ----------------------------------------------------------------- commands

def _path_text(path: str, core_size: int) -> str:
    return f"{path}, core m = {core_size}"


def cmd_analyze(args) -> int:
    u = load_symbol(args.input, args.trunc)
    data, details = forward(u, details=True)
    interlaced = data.interlaced()
    tau2 = tau_squares(interlaced)
    kap2 = kappa_squares(interlaced)
    print(f"symbol: {u.n_modes} modes, |u| = {u.l2_norm:.12g}")
    pair = details.pair
    print(f"forward path: {_path_text(pair.path, pair.core_size)}, "
          f"zero floor {np.sqrt(pair.zero_floor):.0e} s_1")
    print(f"spectral values: n = {data.n}")
    h_idx = k_idx = 0
    bateman_gap = 0.0
    for r, (s, b) in enumerate(zip(data.s, data.psi), start=1):
        cluster = details.essential[r - 1]
        side = "plain" if cluster.kind == "H" else "shifted"
        if cluster.kind == "H":
            closed = tau2[h_idx]
            h_idx += 1
        else:
            closed = kap2[k_idx]
            k_idx += 1
        gap = abs(cluster.projection_norm ** 2 - closed) / max(closed, 1e-300)
        bateman_gap = max(bateman_gap, gap)
        print(f"  s_{r} = {s:.12g}  [{side}, dim {cluster.dim}]  "
              f"psi = {b.angle:.12g}  deg P = {b.degree}")
        print(f"       P = {np.array2string(b.p.padded(b.degree + 1), precision=10)}")
    rep = identity_residuals(interlaced)
    print(f"projection norms vs closed forms: max relative gap {bateman_gap:.3e}")
    print(f"identity residuals: max {rep.max_residual:.3e}")
    print(f"energy: {data.energy():.12g}")
    if args.out:
        _write_json(args.out, spectral_payload(data))
        print(f"wrote {args.out}")
    return 0


def cmd_synthesize(args) -> int:
    data = load_spectral(args.input)
    result = synthesize(data)
    u = result.u
    print(f"reconstructed symbol: {u.n_modes} modes, |u| = {u.l2_norm:.12g}")
    print(f"total degree N = {result.total_degree} "
          f"(denominator degree {result.q_poly.degree}), "
          f"det(0) = {result.det_at_zero.real:.12g}")
    if result.min_root_modulus is not None:
        print(f"smallest denominator root modulus: {result.min_root_modulus:.12g}")
    print(f"circle condition max|Q|/min|Q| = {result.circle_condition:.6g}")
    m = 4 * max(result.total_degree, 1)
    sv = scipy.linalg.svdvals(FastHankel(resize_symbol(u, 2 * m - 1).coeffs, m).dense())
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    print(f"rank certificate: numerical Hankel rank {rank} "
          f"(expected {result.total_degree})")
    print(f"decomposition gap: {result.two_decomposition_gap:.3e}")
    if args.out:
        _write_json(args.out, symbol_payload(u))
        print(f"wrote {args.out}")
    return 0


def _csv_rows(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_evolve(args) -> int:
    u = load_symbol(args.input, args.trunc)
    n = u.n_modes
    y = args.hierarchy_y
    coeff_header = []
    for i in range(n):
        coeff_header.extend([f"c{i}_re", f"c{i}_im"])
    header = ["t"] + coeff_header + list(CONSERVED_LABELS)

    def row(t, coeffs, record):
        vals = [t]
        for c in coeffs:
            vals.extend([c.real, c.imag])
        vals.extend(record.as_vector().tolist())
        return vals

    if args.mode == "direct":
        traj = direct_evolve(u, args.t_final, args.dt, y=y)
        rows = [row(t, traj.states[i], traj.conserved[i])
                for i, t in enumerate(traj.times)]
        print(f"integrated {traj.field_label} to t = {args.t_final} "
              f"in steps of {traj.dt:.3g}")
        print(f"max conserved drift: {traj.max_drift:.3e}")
    elif args.mode == "exact":
        if args.samples < 0:
            raise InputError(f"--samples must be nonnegative, got {args.samples}")
        times = np.linspace(0.0, args.t_final, args.samples + 1)
        states = exact_trajectory(forward(u), times, n, y)
        rows = [row(float(t), c, conserved_quantities(Symbol(c)))
                for t, c in zip(times, states)]
        print(f"sampled exact evolution at {len(times)} times")
    else:
        cmp = compare_flows(u, args.t_final, args.dt, y=y)
        traj = cmp.trajectory
        header.append("exact_gap")
        rows = []
        for i, t in enumerate(traj.times):
            vals = row(float(t), traj.states[i], traj.conserved[i])
            vals.append(float(cmp.gaps[i]))
            rows.append(vals)
        print(f"max direct-vs-exact gap: {cmp.max_gap:.3e}")
        print(f"max conserved drift: {traj.max_drift:.3e}")
    if args.out:
        _csv_rows(args.out, header, rows)
        print(f"wrote {args.out}")
    return 0


def cmd_approx(args) -> int:
    u = load_symbol(args.input, args.trunc)
    result = best_approx(u, args.k)
    cert = result.certificate
    print(f"target distance s_{args.k} = {result.s:.12g}")
    print(f"achieved |Gamma_u - Gamma_r| = {cert.op_norm:.12g} "
          f"(relative gap {cert.distance_gap:.3e})")
    print(f"rank of the approximation: {cert.rank} (threshold {cert.rank_threshold:.3e})")
    print(f"unimodularity of the quotient on the grid: {cert.phi_unimodularity:.3e}")
    print(f"projected tail: {cert.tail:.3e} at truncation {cert.truncation}")
    print(f"approx path: {_path_text(cert.path, cert.core_size)}")
    if args.out:
        _write_json(args.out, symbol_payload(result.r))
        print(f"wrote {args.out}")
    return 0


def cmd_travelwave(args) -> int:
    alpha = _parse_complex_arg(args.alpha, "--alpha")
    p = _parse_complex_arg(args.p, "--p")
    rep = traveling_wave(alpha, args.ell, args.wave_n, p,
                         t_final=args.t_final, dt=args.dt)
    print(f"predicted: rho = {rep.rho:.12g}, sigma = {rep.sigma:.12g}, "
          f"c = {rep.speed:.12g}, omega = {rep.omega:.12g}")
    print(f"fitted:    c = {rep.fitted_speed:.12g}, omega = {rep.fitted_omega:.12g}")
    print(f"rotation residual: {rep.rotation_residual:.3e}")
    if rep.shape_ok:
        print("spectral shape: ok")
        return 0
    print("spectral shape: FAILED")
    for line in rep.shape_failures:
        print(f"  {line}")
    return 1


def cmd_verify(args) -> int:
    suites = args.suite or None
    if suites is not None and "all" in suites:
        suites = None
    cases = verify_mod.run(suites, seed=args.seed)
    failed = [c for c in cases if not c.passed]
    for c in cases:
        mark = "PASS" if c.passed else "FAIL"
        print(f"{mark} [{c.suite}] {c.name}: {c.detail}")
    print(f"{len(cases) - len(failed)}/{len(cases)} cases passed (seed {args.seed})")
    if args.json:
        doc = {"seed": args.seed, "passed": not failed,
               "cases": [{"suite": c.suite, "name": c.name,
                          "passed": c.passed, "detail": c.detail}
                         for c in cases]}
        _write_json(args.json, doc)
    return 1 if failed else 0


def cmd_roundtrip(args) -> int:
    u = load_symbol(args.input, args.trunc)
    rep = roundtrip(u)
    print(f"coefficient residual: {rep.coeff_residual:.3e} "
          f"(relative {rep.coeff_relative:.3e})")
    print(f"singular values: max relative gap {rep.s_relative:.3e}")
    print(f"angles: max gap {rep.angle_gap:.3e}")
    print(f"Blaschke coefficients: max gap {rep.p_coeff_gap:.3e}")
    ok = rep.coeff_relative < 1e-6 and rep.spectral_max < 1e-6
    print("round trip: ok" if ok else "round trip: FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szego",
        description="Spectral analysis and reconstruction for Hankel symbols")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--trunc", type=int, default=None,
                       help="override the truncation size")

    p = sub.add_parser("analyze", help="symbol file -> spectral data")
    p.add_argument("input")
    p.add_argument("--out", help="write the spectral data as JSON")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="spectral data file -> symbol")
    p.add_argument("input")
    p.add_argument("--out", help="write the reconstructed symbol as JSON")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("evolve", help="integrate the cubic flow (or hierarchy)")
    p.add_argument("input")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--mode", choices=("direct", "exact", "compare"),
                   default="direct")
    p.add_argument("--hierarchy-y", type=float, default=None,
                   help="integrate the commuting field at this y instead")
    p.add_argument("--samples", type=int, default=50,
                   help="number of samples in exact mode")
    p.add_argument("--out", help="write the trajectory as CSV")
    add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("approx", help="best Hankel approximation of rank <= k")
    p.add_argument("input")
    p.add_argument("k", type=int)
    p.add_argument("--out", help="write the approximation as JSON")
    add_common(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("travelwave", help="traveling-wave construction and check")
    p.add_argument("--alpha", required=True, help="complex amplitude 're' or 're,im'")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--wave-n", type=int, required=True)
    p.add_argument("--p", required=True, help="complex parameter 're' or 're,im'")
    p.add_argument("--t-final", type=float, default=0.1)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=cmd_travelwave)

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument("--suite", action="append",
                   choices=verify_mod.SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write a machine-readable summary")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roundtrip", help="symbol -> data -> symbol residuals")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
