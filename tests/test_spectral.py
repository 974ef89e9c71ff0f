"""Coefficient-space core: synthesis, analysis, inner products, symmetries.

Oracles are direct O(N*M) trigonometric sums and closed forms; the library
side uses padded FFTs, so agreement here is a genuine cross-check.
"""

import numpy as np
import pytest
import sympy

from tscircle import (
    TAU,
    CircleFunction,
    analyze,
    conjugate_reflect,
    constant_function,
    demodulate,
    inner_product,
    l2_norm,
    modulate,
    random_function,
    rotate,
    synthesize,
    weighted_norm,
)
from tscircle.errors import PreconditionError
from tscircle.regularity import square_wave


def direct_sum(f, thetas):
    n = np.arange(-f.N, f.N + 1)
    return np.exp(1j * np.outer(thetas, n)) @ f.coeffs


def test_synthesize_matches_direct_sum():
    for seed in range(5):
        f = random_function(7, seed=seed, decay=0.8)
        M = 64
        thetas = TAU * np.arange(M) / M
        np.testing.assert_allclose(synthesize(f, M), direct_sum(f, thetas),
                                   rtol=0, atol=1e-12)


def test_analyze_inverts_synthesize():
    for seed in range(5):
        f = random_function(9, seed=seed, decay=0.7)
        g = analyze(synthesize(f, 64), 9)
        np.testing.assert_allclose(g.coeffs, f.coeffs, rtol=0, atol=1e-13)


def test_analyze_rejects_undersampling():
    f = random_function(9, seed=0, decay=1.0)
    with pytest.raises(PreconditionError):
        analyze(synthesize(f, 12), 9)


def test_parseval():
    for seed in range(5):
        f = random_function(8, seed=seed, decay=0.9)
        M = 256
        samples = synthesize(f, M)
        quad = TAU * np.mean(np.abs(samples) ** 2)
        assert abs(quad - l2_norm(f) ** 2) < 1e-10 * l2_norm(f) ** 2


def test_inner_product_direct():
    f = random_function(6, seed=1, decay=0.8)
    g = random_function(4, seed=2, decay=0.8)
    # <f, g> = 2 pi sum c_n conj(d_n), by hand over the common band
    acc = 0.0 + 0.0j
    for n in range(-6, 7):
        acc += f.coeff(n) * np.conj(g.coeff(n))
    assert abs(inner_product(f, g) - TAU * acc) < 1e-12


def test_inner_product_ignores_zero_padding():
    # <Q, f> sums over the shared band only: Q at 17 coefficients or padded
    # with zeros to 81 gives the same bits, and so does a Q whose modes
    # beyond f's band are not zero, in either slot
    for seed in range(50):
        f = random_function(8, seed=seed)
        wide = random_function(40, seed=100 + seed)
        Q = wide.truncated(8)
        want = inner_product(Q, f)
        assert inner_product(Q.padded(40), f) == want
        assert inner_product(wide, f) == want
        assert inner_product(f, Q.padded(40)) == inner_product(f, Q)


def test_weighted_norm_closed_form():
    f = CircleFunction(np.array([0.5j, 2.0, -1.0 + 1j]))  # modes -1, 0, 1
    s = 0.75
    expect = np.sqrt(TAU * (2.0 ** s * 0.25 + 4.0 + 2.0 ** s * 2.0))
    assert abs(weighted_norm(f, s) - expect) < 1e-14


def test_rotation_is_pointwise_shift():
    f = random_function(5, seed=3, decay=0.9)
    t = 0.7331
    M = 128
    thetas = TAU * np.arange(M) / M
    np.testing.assert_allclose(synthesize(rotate(f, t), M),
                               direct_sum(f, thetas + t), atol=1e-12)


def test_modulation_is_plane_wave_multiplication():
    f = random_function(5, seed=4, decay=0.9)
    xi = np.array([1.3, -0.4])
    g = modulate(f, xi)
    M = 4 * g.N + 8
    thetas = TAU * np.arange(M) / M
    wave = np.exp(1j * (np.cos(thetas) * xi[0] + np.sin(thetas) * xi[1]))
    np.testing.assert_allclose(synthesize(g, M),
                               wave * direct_sum(f, thetas), atol=1e-10)


def test_conjugate_reflect_is_antipodal_conjugation():
    # d_n = (-1)^n conj(c_{-n});  pointwise: g(theta) = conj(f(theta + pi))
    f = random_function(6, seed=5, decay=0.85)
    g = conjugate_reflect(f)
    M = 96
    thetas = TAU * np.arange(M) / M
    lhs = direct_sum(g, thetas)
    rhs = np.conj(direct_sum(f, thetas + np.pi))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # involution
    np.testing.assert_allclose(conjugate_reflect(g).coeffs, f.coeffs, atol=0)


def test_conjugate_reflect_preserves_norm():
    f = random_function(7, seed=6, decay=0.8)
    assert abs(l2_norm(conjugate_reflect(f)) - l2_norm(f)) < 1e-14


def test_arithmetic_and_truncation():
    f = random_function(4, seed=7, decay=0.9)
    g = random_function(6, seed=8, decay=0.9)
    h = f + g
    assert h.N == 6
    for n in range(-6, 7):
        assert abs(h.coeff(n) - (f.coeff(n) + g.coeff(n))) < 1e-15
    d = (2.0 * f) - f - f
    assert l2_norm(d) < 1e-14
    t = g.truncated(2)
    assert t.N == 2 and t.coeff(3) == 0


def test_constant_function_value():
    one = constant_function(1.0)
    assert one.N == 0
    assert abs(l2_norm(one) ** 2 - TAU) < 1e-14


def test_square_wave_matches_sympy_integrals():
    # sign(cos theta): cosine amplitudes from explicit piecewise integrals
    # (sympy.fourier_series mishandles sign() -- it returns half the mass)
    theta = sympy.symbols("theta", real=True)
    sq = square_wave(7)
    for n in (1, 2, 3, 4, 5, 7):
        pos = sympy.integrate(sympy.cos(n * theta),
                              (theta, -sympy.pi / 2, sympy.pi / 2))
        neg = sympy.integrate(sympy.cos(n * theta),
                              (theta, sympy.pi / 2, 3 * sympy.pi / 2))
        coef = float((pos - neg) / sympy.pi)
        got = sq.coeff(n) + sq.coeff(-n)  # cos amplitude
        assert abs(got.real - coef) < 1e-12
        assert abs(got.imag) < 1e-15


def test_demodulate_inverts_modulate():
    # a modulated constant comes back centered, with xi recovered exactly
    g = modulate(constant_function(1.3), (0.7, -0.4))
    centered, xi = demodulate(g)
    assert np.hypot(xi[0] - 0.7, xi[1] + 0.4) < 1e-9
    assert abs(centered.coeff(0) - 1.3) < 1e-9
    others = centered.coeffs.copy()
    others[centered.N] = 0.0
    assert np.max(np.abs(others)) < 1e-9


def test_demodulate_canonical_rep_is_modulation_invariant():
    # further modulation shifts the fitted xi exactly, leaving the
    # centered function unchanged (the fit is linear in the phase)
    f = constant_function(1.0) + 0.05 * CircleFunction(np.array([0.2, 1.0, 0.1j]))
    c1, xi1 = demodulate(f, M=4096)
    c2, xi2 = demodulate(modulate(f, (0.3, 0.2)), M=4096)
    assert np.hypot(*(xi2 - xi1 - np.array([0.3, 0.2]))) < 1e-9
    # compare on the common band: the wider result keeps the (tiny)
    # residual-phase spread that bandwidth-1 c1 necessarily truncates
    assert l2_norm(c2.truncated(c1.N) - c1) / l2_norm(c1) < 1e-9


def test_demodulate_rejects_vanishing_profile():
    # 1 + e^{i theta} hits zero at theta = pi: no well-defined phase to fit
    f = CircleFunction(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(PreconditionError):
        demodulate(f)
