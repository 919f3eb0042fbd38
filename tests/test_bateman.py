import numpy as np
import pytest

from szego.bateman import InterlacedValues, j_of_x, kappa_squares, tau_squares
from szego.errors import InputError, NumericalError
from szego.verify import random_interlaced


def test_single_pair():
    # q = 1: tau^2 = rho^2 - sigma^2 and kappa^2 = rho^2 - sigma^2
    v = InterlacedValues(np.array([2.0]), np.array([0.5]))
    assert abs(tau_squares(v)[0] - 3.75) < 1e-14
    assert abs(kappa_squares(v)[0] - 3.75) < 1e-14


def test_interlacing_is_validated():
    with pytest.raises(InputError):
        InterlacedValues(np.array([1.0, 4.0]), np.array([2.0, 0.5]))
    with pytest.raises(InputError):
        InterlacedValues(np.array([4.0, 1.0]), np.array([0.5, 2.0]))
    with pytest.raises(InputError):
        InterlacedValues(np.array([4.0]), np.array([-1.0]))


def test_from_singular_values_odd_appends_zero():
    v = InterlacedValues.from_singular_values(np.array([4.0, 2.0, 1.0]))
    assert np.allclose(v.rho, [4.0, 1.0])
    assert np.allclose(v.sigma, [2.0, 0.0])
    assert v.sigma_q_zero
    w = InterlacedValues.from_singular_values(np.array([4.0, 2.0]))
    assert np.allclose(w.rho, [4.0])
    assert np.allclose(w.sigma, [2.0])
    assert not w.sigma_q_zero


def test_j_of_x_at_zero_is_one():
    v = InterlacedValues(np.array([4.0, 1.0]), np.array([2.0, 0.0]))
    assert abs(j_of_x(v, 0.0) - 1.0) < 1e-14


def test_j_of_x_two_forms_agree(rng):
    for _ in range(10):
        v = random_interlaced(rng)
        r2, s2 = v.rho ** 2, v.sigma ** 2
        tau2 = tau_squares(v)
        for x in (-10.0, -1.0, -0.1, 0.5 / v.rho[0] ** 2):
            product = float(np.prod((1.0 - x * s2) / (1.0 - x * r2)))
            partial = 1.0 + x * float(np.sum(tau2 / (1.0 - x * r2)))
            value = j_of_x(v, x)
            scale = max(1.0, abs(value))
            assert abs(value - product) < 1e-10 * scale
            assert abs(value - partial) < 1e-10 * scale


def test_j_of_x_refuses_points_near_poles():
    v = InterlacedValues(np.array([2.0]), np.array([1.0]))
    with pytest.raises(NumericalError):
        j_of_x(v, 0.25 + 1e-14)    # 1/rho^2 = 0.25
