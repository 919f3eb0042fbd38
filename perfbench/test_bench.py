"""Tests of the benchmark's own checks, statistics and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each check must accept the program's real output and reject one that is
off by a little more than its tolerance.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from szego import algebra, forward_map, hankel
from szego.forward_map import SpectralData
from szego.hankel import Symbol, resize_symbol
from szego.verify import random_spectral_data

import checks
import run
import tracing
import worker
import workloads

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def scaled(data: SpectralData, factor: float) -> SpectralData:
    return SpectralData(np.asarray(data.s) * factor, data.psi)


def turned(data: SpectralData, angle: float) -> SpectralData:
    angles = data.angles()
    angles[0] += angle
    return data.with_angles(angles)


@pytest.fixture(scope="module")
def roundtrip_case():
    rng = np.random.default_rng(3)
    data, _ = random_spectral_data(rng, n_max=4, d_max=2, min_root=1.1)
    return data, workloads.roundtrip_op(data)


def test_roundtrip_check_accepts_real_output(roundtrip_case):
    assert checks.check_roundtrip(*roundtrip_case) == []


def test_roundtrip_check_rejects_scaled_values(roundtrip_case):
    want, got = roundtrip_case
    assert checks.check_roundtrip(want, scaled(got, 1.0 + 1e-6))


def test_roundtrip_check_rejects_turned_angle(roundtrip_case):
    want, got = roundtrip_case
    assert checks.check_roundtrip(want, turned(got, 1e-5))


@pytest.fixture(scope="module", params=["one_over_one_minus_rz", "rank_two"])
def large_n_case(request):
    # the large_n checks at a small size: the same code paths, in seconds
    if request.param == "rank_two":
        num = np.array([1.0, 0.4 - 0.3j])
        den = np.convolve([1.0, -0.7j], [1.0, -0.3 + 0.2j])
        item = workloads.LargeNInput(workloads._rational_symbol(num, den),
                                     num, den, 2, None)
    else:
        num = np.ones(1, dtype=complex)
        den = np.array([1.0, -0.5], dtype=complex)
        item = workloads.LargeNInput(workloads._rational_symbol(num, den),
                                     num, den, 1, 0.5)
    return item, workloads.large_n_op(item)


def test_large_n_check_accepts_real_output(large_n_case):
    assert checks.check_large_n(*large_n_case) == []


def test_large_n_check_rejects_scaled_values(large_n_case):
    item, (data, approx) = large_n_case
    assert checks.check_large_n(item, (scaled(data, 1.0 + 1e-6), approx))


def test_large_n_check_rejects_turned_angle(large_n_case):
    item, (data, approx) = large_n_case
    assert checks.check_large_n(item, (turned(data, 1e-5), approx))


def test_large_n_check_rejects_moved_approximant(large_n_case):
    item, (data, approx) = large_n_case
    r = np.array(approx.r.coeffs)
    r[1] += 1e-5
    moved = dataclasses.replace(approx, r=Symbol(r))
    assert checks.check_large_n(item, (data, moved))


@pytest.fixture(scope="module")
def flow_case():
    rng = np.random.default_rng(6)
    data, result = random_spectral_data(rng, n_max=2, d_max=1, min_root=1.3,
                                        s_range=(0.5, 1.2))
    item = workloads.FlowInput(data, resize_symbol(result.u, 64))
    return item, workloads.flow_op(item)


def test_flow_check_accepts_real_output(flow_case):
    assert checks.check_flow(*flow_case, workloads.HIERARCHY_Y) == []


@pytest.mark.parametrize("which", [0, 1])
def test_flow_check_rejects_moved_state(flow_case, which):
    item, out = flow_case
    cmp = out[which]
    states = np.array(cmp.trajectory.states)
    states[states.shape[0] // 2, 3] += 1e-5
    moved = dataclasses.replace(
        cmp, trajectory=dataclasses.replace(cmp.trajectory, states=states))
    out = (moved, out[1]) if which == 0 else (out[0], moved)
    assert checks.check_flow(item, out, workloads.HIERARCHY_Y)


def test_tail_needs_ten_samples_beyond_it():
    assert worker.tail_ms(list(range(499))) is None
    assert worker.tail_ms(list(range(500))) == 489
    assert worker.tail_ms([1.0] * 9) is None
    assert worker.tail_ms([]) is None
    need = worker.MIN_OPS["roundtrip"] * (1 - worker.TAIL_PERCENTILE / 100)
    assert need >= worker.MIN_BEYOND


def test_tracer_times_each_layer_and_restores_the_package(roundtrip_case):
    def bindings():
        return (forward_map.forward, forward_map.build_pair,
                hankel.Symbol.__dict__["from_rational"],
                algebra.RationalFunction.__dict__["taylor"])

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.roundtrip_op(roundtrip_case[0])
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(before, bindings()))
    metrics = tracer.metrics(1)
    assert metrics["inverse_map.synthesize.calls"][0] == 1
    assert metrics["hankel.build_pair.calls"][0] == 1
    assert metrics["hankel.hermitian_eigs.dense_calls"][0] == 2
    assert metrics["forward_map.forward.self_ms"][0] > 0
    assert metrics["algebra.scalar_dets"][0] > 0
    for name, total in tracer.seconds.items():
        assert 0 <= tracer.self_seconds[name] <= total
    ids = {span[0] for span in tracer.spans}
    assert all(span[1] == -1 or span[1] in ids for span in tracer.spans)


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in tracing.PER_LAYER]
    units = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MiB"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == units
