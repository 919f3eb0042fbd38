"""Per-layer spans and counts around the public functions of each szego module.

The package is not edited: ``Tracer.install`` rebinds each traced function
wherever a szego module holds it (``from .hankel import build_pair`` makes
a second binding in forward_map), and ``uninstall`` puts the originals
back.  Every call becomes a span (name, start, end, parent span,
operation index) kept in memory; a span's self time is its duration minus
the durations of the traced spans directly inside it.  The Lanczos
matvecs are only counted, because they are too many and too short to
time one by one.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

import szego  # noqa: F401  (loads every module that holds a binding)
from szego.hankel import DENSE_EIG_MAX

MIB = float(1 << 20)


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _dense_pair_bytes(tracer, args, kwargs):
    # gamma, gamma_shift, h2, k2 and the outer product, complex128 N x N
    n = args[0].n_modes
    tracer.counts["hankel.dense_pair_bytes"] += 5 * 16 * n * n


def _eig_path(tracer, args, kwargs):
    a, k = args[0], _arg(args, kwargs, 1, "k")
    dense = isinstance(a, np.ndarray) and (k is None or a.shape[0] <= DENSE_EIG_MAX)
    tracer.counts["hankel.hermitian_eigs.dense_calls" if dense
                  else "hankel.hermitian_eigs.lanczos_calls"] += 1


def _doublings(tracer, args, kwargs, result):
    # the starting size documented by Symbol.from_rational
    rf, n_modes = args[0], _arg(args, kwargs, 1, "n_modes")
    if n_modes is not None:
        return
    rank_bound = max(rf.den.degree, rf.num.degree + 1)
    start = max(4 * max(rank_bound, 1), 32, rf.num.degree + 1, 2)
    tracer.counts["hankel.from_rational.doublings"] += max(
        0, round(math.log2(result.n_modes / start)))


def _scalar_dets(tracer, args, kwargs):
    q = len(args[0])
    m = 1 << (2 * _arg(args, kwargs, 1, "degree_bound") + 1).bit_length()
    tracer.counts["algebra.scalar_dets"] += m * (1 + q * q)


def _taylor_coeffs(tracer, args, kwargs):
    tracer.counts["algebra.taylor.coeffs"] += _arg(args, kwargs, 1, "n")


def _truncation(tracer, args, kwargs, result):
    tracer.counts["aak.truncation"] += result.certificate.truncation


# (module, attribute, span name, hook before the call, hook after it)
SPANS = (
    ("szego.hankel", "build_pair", "hankel.build_pair", _dense_pair_bytes, None),
    ("szego.hankel", "hermitian_eigs", "hankel.hermitian_eigs", _eig_path, None),
    ("szego.hankel", "Symbol.from_rational", "hankel.from_rational", None, _doublings),
    ("szego.forward_map", "forward", "forward_map.forward", None, None),
    ("szego.forward_map", "sigma_membership", "forward_map.sigma_membership", None, None),
    ("szego.forward_map", "cluster_eigenvalues", "forward_map.cluster_eigenvalues",
     None, None),
    ("szego.forward_map", "extract_blaschke", "forward_map.extract_blaschke", None, None),
    ("szego.inverse_map", "synthesize", "inverse_map.synthesize", None, None),
    ("szego.inverse_map", "build_cmatrix", "inverse_map.build_cmatrix", None, None),
    ("szego.algebra", "polymatrix_det_minors", "algebra.polymatrix_det_minors",
     _scalar_dets, None),
    ("szego.algebra", "RationalFunction.taylor", "algebra.taylor", _taylor_coeffs, None),
    ("szego.algebra", "fit_rational_samples", "algebra.fit_rational_samples", None, None),
    ("szego.algebra", "grid_transform", "algebra.grid_transform", None, None),
    ("szego.aak", "best_approx", "aak.best_approx", None, _truncation),
    ("szego.aak", "schmidt_vector", "aak.schmidt_vector", None, None),
    ("szego.aak", "_certify", "aak.certify", None, None),
    ("szego.szego_flow", "compare_flows", "szego_flow.compare_flows", None, None),
    ("szego.szego_flow", "direct_evolve", "szego_flow.direct_evolve", None, None),
    ("szego.szego_flow", "_cubic_rhs", "szego_flow.cubic_rhs", None, None),
    ("szego.szego_flow", "_hierarchy_rhs", "szego_flow.hierarchy_rhs", None, None),
    ("szego.szego_flow", "conserved_quantities", "szego_flow.conserved_quantities",
     None, None),
)
COUNTED = (
    ("szego.hankel", "hankel_matvec", "hankel.fft_matvecs"),
    ("szego.hankel", "FastHankel.matvec", "hankel.fft_matvecs"),
)

# Per-layer metrics, per operation: (name, unit, kind, key).  "ms" and
# "self_ms" are span times, "calls" span counts, "count" hook counts.
PER_LAYER = (
    ("hankel.build_pair.ms", "ms", "ms", "hankel.build_pair"),
    ("hankel.build_pair.calls", "count", "calls", "hankel.build_pair"),
    ("hankel.dense_pair_mb", "MiB", "count", "hankel.dense_pair_bytes"),
    ("hankel.hermitian_eigs.ms", "ms", "ms", "hankel.hermitian_eigs"),
    ("hankel.hermitian_eigs.dense_calls", "count", "count",
     "hankel.hermitian_eigs.dense_calls"),
    ("hankel.hermitian_eigs.lanczos_calls", "count", "count",
     "hankel.hermitian_eigs.lanczos_calls"),
    ("hankel.fft_matvecs", "count", "count", "hankel.fft_matvecs"),
    ("hankel.from_rational.ms", "ms", "ms", "hankel.from_rational"),
    ("hankel.from_rational.doublings", "count", "count", "hankel.from_rational.doublings"),
    ("forward_map.forward.self_ms", "ms", "self_ms", "forward_map.forward"),
    ("forward_map.sigma_membership.self_ms", "ms", "self_ms",
     "forward_map.sigma_membership"),
    ("forward_map.cluster_eigenvalues.ms", "ms", "ms", "forward_map.cluster_eigenvalues"),
    ("forward_map.extract_blaschke.ms", "ms", "ms", "forward_map.extract_blaschke"),
    ("forward_map.extract_blaschke.calls", "count", "calls",
     "forward_map.extract_blaschke"),
    ("inverse_map.synthesize.self_ms", "ms", "self_ms", "inverse_map.synthesize"),
    ("inverse_map.synthesize.calls", "count", "calls", "inverse_map.synthesize"),
    ("inverse_map.build_cmatrix.ms", "ms", "ms", "inverse_map.build_cmatrix"),
    ("algebra.polymatrix_det_minors.ms", "ms", "ms", "algebra.polymatrix_det_minors"),
    ("algebra.scalar_dets", "count", "count", "algebra.scalar_dets"),
    ("algebra.taylor.ms", "ms", "ms", "algebra.taylor"),
    ("algebra.taylor.coeffs", "count", "count", "algebra.taylor.coeffs"),
    ("algebra.fit_rational_samples.ms", "ms", "ms", "algebra.fit_rational_samples"),
    ("algebra.grid_transform.ms", "ms", "ms", "algebra.grid_transform"),
    ("aak.best_approx.self_ms", "ms", "self_ms", "aak.best_approx"),
    ("aak.schmidt_vector.ms", "ms", "ms", "aak.schmidt_vector"),
    ("aak.certify.ms", "ms", "ms", "aak.certify"),
    ("aak.truncation", "modes", "count", "aak.truncation"),
    ("szego_flow.compare_flows.self_ms", "ms", "self_ms", "szego_flow.compare_flows"),
    ("szego_flow.direct_evolve.self_ms", "ms", "self_ms", "szego_flow.direct_evolve"),
    ("szego_flow.cubic_rhs.ms", "ms", "ms", "szego_flow.cubic_rhs"),
    ("szego_flow.hierarchy_rhs.ms", "ms", "ms", "szego_flow.hierarchy_rhs"),
    ("szego_flow.rhs.calls", "count", "rhs_calls", None),
    ("szego_flow.conserved_quantities.ms", "ms", "ms", "szego_flow.conserved_quantities"),
    ("szego_flow.conserved_quantities.calls", "count", "calls",
     "szego_flow.conserved_quantities"),
)


class Tracer:
    """Spans and counts of the traced szego functions, kept in memory."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.spans = []          # (id, parent id or -1, name, start, end, operation)
        self.operation = -1      # set by the timed loop before each operation
        self._open = []          # [span id, seconds of traced children]
        self._next_id = 0
        self._undo = []

    def _span(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            parent = tracer._open[-1] if tracer._open else None
            tracer._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                took = end - start
                tracer.seconds[name] += took
                tracer.self_seconds[name] += took - frame[1]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[1] += took
                tracer.spans.append((frame[0], parent[0] if parent else -1, name,
                                     start, end, tracer.operation))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        return traced

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _rebind(self, module_name, attr, make):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            self._undo.append((cls, meth, raw))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "szego" or name.startswith("szego.")) \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def install(self):
        for module, attr, name, before, after in SPANS:
            self._rebind(module, attr,
                         lambda fn, n=name, b=before, a=after: self._span(n, fn, b, a))
        for module, attr, key in COUNTED:
            self._rebind(module, attr, lambda fn, k=key: self._counter(k, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, operations: int) -> dict:
        """Every per-layer metric, per operation, as {name: (value, unit)}."""
        out = {}
        for name, unit, kind, key in PER_LAYER:
            if kind == "ms":
                value = 1e3 * self.seconds[key]
            elif kind == "self_ms":
                value = 1e3 * self.self_seconds[key]
            elif kind == "calls":
                value = self.calls[key]
            elif kind == "rhs_calls":
                value = (self.calls["szego_flow.cubic_rhs"]
                         + self.calls["szego_flow.hierarchy_rhs"])
            else:
                value = self.counts[key]
            if unit == "MiB":
                value /= MIB
            out[name] = (value / operations, unit)
        return out
