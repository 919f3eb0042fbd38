import numpy as np
import pytest

from szego.algebra import RationalFunction
from szego.errors import InputError, StepSizeError
from szego.forward_map import forward
from szego.hankel import FastHankel, Symbol, resize_symbol
from szego.inverse_map import synthesize
from szego.szego_flow import (PROBE_YS, _resolvents, compare_flows,
                              conserved_quantities, direct_evolve,
                              exact_evolve, szego_rhs, traveling_wave)

_RNG0 = np.random.default_rng(0)
RESOLVENT_CASES = {
    "hand": np.array([3.0, 2.0, 0, 0, 0, 0, 0, 0], dtype=complex),
    "rank_two": resize_symbol(Symbol.from_rational(
        RationalFunction.from_coeff_lists([0.0, 0.75], [1.0, 0.0, -0.5])),
        128).coeffs,
    "gaussian": _RNG0.standard_normal(64) + 1j * _RNG0.standard_normal(64),
}


def test_cubic_rhs_hand_values(hand_symbol):
    rhs = szego_rhs(resize_symbol(hand_symbol, 4))
    assert np.max(np.abs(rhs.coeffs - (-1j) * np.array([51.0, 44.0, 12.0, 0.0]))) < 1e-10
    rhs2 = szego_rhs(resize_symbol(Symbol(np.array([1.0, 1.0])), 4))
    assert np.max(np.abs(rhs2.coeffs - (-1j) * np.array([3.0, 3.0, 1.0, 0.0]))) < 1e-10


def test_monomial_rotates_exactly():
    u = resize_symbol(Symbol(np.array([0.0, 1.0])), 16)
    data = forward(u)
    half_turn = synthesize(exact_evolve(data, float(np.pi)))
    target = np.zeros(8, dtype=complex)
    target[1] = -1.0
    assert np.max(np.abs(half_turn.rational.taylor(8) - target)) < 1e-9


def test_direct_matches_exact_on_monomial():
    u = resize_symbol(Symbol(np.array([0.0, 1.0])), 16)
    cmp = compare_flows(u, float(np.pi), 1e-3)
    assert cmp.max_gap < 1e-6
    assert max(cmp.drift.values()) < 1e-8


def test_direct_matches_exact_rank_two():
    u = resize_symbol(Symbol.from_rational(
        RationalFunction.from_coeff_lists([0.0, 0.75], [1.0, 0.0, -0.5])), 64)
    cmp = compare_flows(u, 0.5, 1e-3)
    assert cmp.max_gap < 1e-6
    assert max(cmp.drift.values()) < 1e-8


def test_step_size_guard(hand_symbol):
    u = resize_symbol(hand_symbol, 8)   # squared norm 13
    with pytest.raises(StepSizeError):
        direct_evolve(u, 0.1, 0.01)
    # dt = 0.09 passes, but the one step that reaches t = 0.13 is 0.13 long
    with pytest.raises(StepSizeError, match="dt_eff"):
        direct_evolve(resize_symbol(Symbol(np.array([1.0])), 8), 0.13, 0.09)


@pytest.mark.parametrize("name", sorted(RESOLVENT_CASES))
def test_resolvents_match_a_dense_solve(name):
    c = RESOLVENT_CASES[name]
    g = FastHankel(c).dense()
    e0 = np.eye(c.size)[0]
    ys = PROBE_YS + (1.0,)
    for y, w in zip(ys, _resolvents(c, ys)):
        want = np.linalg.solve(np.eye(c.size) + y * (g @ g.conj().T), e0)
        assert np.linalg.norm(w - want) <= 1e-12 * np.linalg.norm(want)


def test_resolvents_of_a_constant_symbol():
    alpha = 0.6 - 0.8j
    c = np.zeros(8, dtype=complex)
    c[0] = alpha
    for y, w in zip(PROBE_YS, _resolvents(c, PROBE_YS)):
        want = np.zeros(8, dtype=complex)
        want[0] = 1.0 / (1.0 + y * abs(alpha) ** 2)
        assert np.max(np.abs(w - want)) < 1e-14


def test_flow_resolvents_take_no_general_solve(monkeypatch, hand_symbol):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve was called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    conserved_quantities(resize_symbol(hand_symbol, 8))
    direct_evolve(resize_symbol(Symbol(np.array([0.5])), 8), 0.01, 1e-3, y=1.0)


def test_conserved_record_labels(hand_symbol):
    rec = conserved_quantities(resize_symbol(hand_symbol, 8))
    assert rec.labels() == ["l2_sq", "momentum", "energy",
                            "j_0.1", "j_1", "j_10"]
    assert abs(rec.l2_sq - 13.0) < 1e-12
    assert abs(rec.momentum - 4.0) < 1e-12
    assert abs(rec.energy - 241.0 / 4.0) < 1e-10


def test_hierarchy_exact_matches_direct_rank_one():
    u = resize_symbol(Symbol(np.array([0.5])), 8)
    cmp = compare_flows(u, 0.05, 1e-4, y=1.0)
    assert cmp.max_gap < 1e-8


def test_hierarchy_field_rank_one_direction():
    # constant symbol alpha: field = 2 i y alpha / (1 + y alpha^2)^2
    alpha, y = 0.5, 1.0
    field = szego_rhs(resize_symbol(Symbol(np.array([alpha])), 8), y)
    expect = 2j * y * alpha / (1.0 + y * alpha ** 2) ** 2
    assert abs(field.coeffs[0] - expect) < 1e-12
    assert np.max(np.abs(field.coeffs[1:])) < 1e-12


def test_hierarchy_rejects_nonpositive_y(hand_symbol):
    with pytest.raises(InputError):
        szego_rhs(resize_symbol(hand_symbol, 8), 0.0)
    with pytest.raises(InputError):
        exact_evolve(forward(hand_symbol), 0.1, -1.0)


def test_traveling_wave_hand_report():
    rep = traveling_wave(1.0, 1, 3, 0.35 + 0.2j, t_final=0.2)
    assert rep.shape_ok, rep.shape_failures
    mod2 = 0.35 ** 2 + 0.2 ** 2
    rho = 1.0 / (1.0 - mod2)
    sigma = rho * np.sqrt(mod2)
    assert abs(rep.rho - rho) < 1e-9
    assert abs(rep.sigma - sigma) < 1e-9
    assert abs(rep.speed - (rho ** 2 - sigma ** 2) / 3.0) < 1e-9
    assert abs(rep.omega - (rho ** 2 - rep.speed)) < 1e-9
    assert rep.fit_gap < 1e-6
    assert rep.rotation_residual < 1e-6


def test_traveling_wave_rejects_bad_geometry():
    with pytest.raises(InputError):
        traveling_wave(1.0, 3, 3, 0.5)      # ell must stay below the period
    with pytest.raises(InputError):
        traveling_wave(1.0, 0, 3, 1.2)      # parameter outside the disc
