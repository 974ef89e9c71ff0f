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
from tscircle.bessel import RadialGrid, default_grid, six_bessel_integral
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


@pytest.mark.parametrize("P", [200.0, 400.0])
@pytest.mark.parametrize("r", [1.0, 3.0])
def test_translated_constant_sees_the_tail_defect(P, r):
    # Translating the field by xi multiplies f = 1 by e^{i x.xi}, whose
    # coefficients are i^n J_n(r) e^{-in beta}, r = |xi|: to second order a
    # move on the unit sphere from the constant u by an angle t along the
    # translation direction v in span(e_{+1}, e_{-1}), with
    # t^2 = |c_1|^2 + |c_-1|^2 = 2 (r/2)^2 = r^2/2.  Phi has derivative
    # 6 Re<Q, .> and second derivative 6 Re<DQ[.], .>, and Q(u) = lambda u,
    # DQ[v] = mu lambda v with mu = 5 a_1/T0, so
    #     Phi(cos t u + sin t v) = lambda (1 + 3 t^2 (mu - 1)) + O(t^4)
    # and the relative change is 3 (r^2/2)(mu - 1) = -(3/2) r^2 (1 - 5 a_1/T0).
    # For the exact Phi both sides are 0; the two-term tail breaks both alike.
    grid = default_grid(P)
    one = constant_function(1.0)
    change = ts_functional(modulate(one, (r, 0.0)), grid=grid) / \
        ts_functional(one, grid=grid) - 1.0
    a1 = six_bessel_integral(0, 0, 1, 0, 0, 1, grid)
    want = -1.5 * r * r * (1.0 - 5.0 * a1 / t0_value(grid))
    assert change == pytest.approx(want, rel=0.01)


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


def test_gaussian_caps_approach_the_concentration_limit():
    """Caps c_n = exp(-n^2/(2 sigma^2)), |n| <= 6 sigma, concentrate at
    theta = 0 as sigma grows, and their quotients fall towards the 1D
    Strichartz constant (Gaussians attain it: Foschi, JEMS 2007).

    Derivation in this normalization: F(x) = int f(theta) e^{-i x . omega}
    dtheta with ||f||^2 = int |f|^2 dtheta.  Near theta = 0, x . omega =
    x1 (1 - theta^2/2) + x2 theta + O(theta^3), so with (x, t) = (x2,
    -x1/2), whose Jacobian is dx1 dx2 = 2 dx dt, |F| tends to |E g|, E g(x,
    t) = int g(xi) e^{-i(x xi + t xi^2)} dxi, and ||F||_6^6 -> 2 ||E g||_6^6.
    For g = exp(-xi^2/2), |E g|^2 = 2 pi (1 + 4t^2)^{-1/2} exp(-x^2/(1 +
    4t^2)); integrating its cube over x gives (2 pi)^3 sqrt(pi/3)/(1 + 4t^2)
    and then over t a factor pi/2, while ||g||^6 = pi^{3/2}.  So
    L^6 = 2 (2 pi)^3/(2 sqrt 3) and L = 2^{1/6} (2 pi)^{1/2} 12^{-1/12}.
    The gaps to L fall like sigma^-2, so (4 q_8 - q_4)/3 extrapolates."""
    limit = 2.0 ** (1 / 6) * TAU ** 0.5 * 12.0 ** (-1 / 12)
    assert limit == pytest.approx(2.2873353, abs=5e-8)
    grid = RadialGrid(12800.0)
    q = {}
    for sigma in (2, 4, 8):
        n = np.arange(-6 * sigma, 6 * sigma + 1)
        cap = CircleFunction(np.exp(-n ** 2 / (2.0 * sigma ** 2)))
        q[sigma] = quotient(cap, grid)
    assert q[2] > q[4] > q[8] > limit
    assert abs((4.0 * q[8] - q[4]) / 3.0 - limit) < 5e-5 * limit
