"""Sextic functional, stationarity residual, and the constant chain."""

import numpy as np
import pytest

from tscircle import (
    TAU,
    constant_from_t0,
    constant_function,
    el_residual,
    l2_norm,
    lambda0_value,
    modulate,
    quotient,
    random_function,
    rotate,
    t0_value,
    ts_functional,
)
from tscircle.errors import ConfigError
from tscircle.spectral import CircleFunction

T1_REF = 0.104851232881558  # int J_1^6 rho drho, independent head+tail value


def test_functional_at_constants():
    one = constant_function(1.0)
    phi = ts_functional(one)
    assert phi == pytest.approx(TAU * lambda0_value(), rel=1e-12)


def test_functional_fifth_degree_homogeneity():
    f = random_function(4, seed=0, decay=0.8)
    a = 1.37
    assert ts_functional(a * f) == pytest.approx(
        a ** 6 * ts_functional(f), rel=1e-12)


def test_functional_rotation_invariance():
    f = random_function(5, seed=1, decay=0.8)
    assert ts_functional(rotate(f, 1.234)) == pytest.approx(
        ts_functional(f), rel=1e-12)


def test_functional_modulation_invariance():
    # multiplying by a plane wave leaves |F|^6 invariant (translation of
    # the field), hence the functional too; the modulated function is
    # bandwidth ~25, where the default-cutoff tail model is good to ~1e-8
    f = random_function(4, seed=2, decay=0.85)
    g = modulate(f, np.array([0.9, -0.3]))
    assert ts_functional(g) == pytest.approx(ts_functional(f), rel=1e-7)


def test_pure_mode_lambda_is_t1():
    # f = e^{i theta}: the single admissible weight is int J_1^6 rho drho
    f = CircleFunction(np.array([0.0, 0.0, 1.0], dtype=complex))
    rep = el_residual(f)
    assert rep.lambda_fit == pytest.approx(TAU ** 4 * T1_REF, rel=1e-6)
    # e^{i theta} is a critical point in its own right
    assert rep.residual_rel < 1e-9


def test_el_residual_constants():
    rep = el_residual(constant_function(1.0))
    assert rep.residual_l2 / rep.lambda_fit < 1e-10
    assert rep.leakage < 1e-12
    assert rep.lambda_fit == pytest.approx(lambda0_value(), rel=1e-12)
    assert rep.lambda_from_quotient == pytest.approx(rep.lambda_fit, rel=1e-9)


def test_el_residual_generic_function_is_not_critical():
    rep = el_residual(random_function(6, seed=3, decay=0.8))
    assert rep.residual_rel > 1e-3


def test_quotient_scale_invariance():
    f = random_function(5, seed=4, decay=0.8)
    assert quotient(3.7 * f) == pytest.approx(quotient(f), rel=1e-12)


def test_quotient_of_constants_formula():
    one = constant_function(1.0)
    assert quotient(one) == pytest.approx(constant_from_t0(t0_value()),
                                          rel=1e-10)


def test_zero_function_rejected():
    z = CircleFunction(np.zeros(3, dtype=complex))
    with pytest.raises(ConfigError):
        quotient(z)
    with pytest.raises(ConfigError):
        el_residual(z)
