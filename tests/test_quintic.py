"""Quintilinear convolution, radial densities, and the norm bound chain.

The convolution has two fully independent implementations (cached weight
tensor vs polar-grid assembly); densities get closed forms, Monte-Carlo,
and a route-crossing at the critical radius.
"""

import numpy as np
import pytest

from tscircle import (
    TAU,
    auto_density,
    constant_function,
    conjugate_reflect,
    el_quintic,
    inner_product,
    l2_norm,
    lambda0_value,
    mu_value,
    quintic_convolve,
    quintilinear_bound_ratio,
    random_function,
    rotate,
    sup_bound_check,
)
from tscircle.errors import ConfigError, SingularRadiusError
from tscircle.quintic import SINGULAR_RADII


def five_random(n, base_seed, decay=0.8):
    return [random_function(n, seed=base_seed + i, decay=decay)
            for i in range(5)]


# ---------------------------------------------------------------------------
# dual-route agreement
# ---------------------------------------------------------------------------

def test_tensor_and_polar_routes_agree(tensor8):
    for seed in (0, 1, 2):
        fs = five_random(4, 10 * seed, decay=0.75)
        qt = quintic_convolve(fs, tensor=tensor8)
        qp = quintic_convolve(fs, method="polar")
        scale = np.max(np.abs(qt.coeffs))
        assert np.max(np.abs(qt.coeffs - qp.coeffs)) < 1e-10 * scale


def test_el_quintic_is_the_five_slot_convolution():
    f = random_function(5, seed=7, decay=0.8)
    tf = conjugate_reflect(f)
    a = el_quintic(f)
    b = quintic_convolve([f, f, f, tf, tf], method="polar")
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-12)


def test_constants_give_lambda0():
    one = constant_function(1.0)
    q = quintic_convolve([one] * 5, method="polar")
    assert q.coeff(0).real == pytest.approx(lambda0_value(), rel=1e-12)
    # no leakage into higher modes at all
    off = q.coeffs.copy()
    off[q.N] = 0.0
    assert np.max(np.abs(off)) < 1e-12 * abs(q.coeff(0))


def test_output_bandwidth_and_admissibility():
    fs = five_random(3, 40)
    q = quintic_convolve(fs, method="polar")
    assert q.N == 15


def test_multilinearity(tensor8):
    # linear in each unconjugated slot; scaling any slot scales the output
    fs = five_random(4, 50)
    base = quintic_convolve(fs, tensor=tensor8)
    fs2 = list(fs)
    fs2[1] = 3.0 * fs2[1]
    np.testing.assert_allclose(quintic_convolve(fs2, tensor=tensor8).coeffs,
                               3.0 * base.coeffs, atol=1e-12)
    g = random_function(4, seed=99, decay=0.75)
    fs3 = list(fs)
    fs3[0] = fs3[0] + g
    fs4 = list(fs)
    fs4[0] = g
    lhs = quintic_convolve(fs3, tensor=tensor8).coeffs
    rhs = base.coeffs + quintic_convolve(fs4, tensor=tensor8).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_rotation_equivariance():
    # rotating every input rotates the output
    t = 0.913
    fs = five_random(3, 60)
    q = quintic_convolve(fs, method="polar")
    qr = quintic_convolve([rotate(f, t) for f in fs], method="polar")
    np.testing.assert_allclose(qr.coeffs, rotate(q, t).coeffs, atol=1e-11)


def test_functional_duality_random(tensor8):
    # <Q(f,f,f,f~,f~), f> = (2 pi)^{-2} ||F||_6^6 for both routes
    from tscircle import extend, l6_norm, ts_functional
    f = random_function(8, seed=3, decay=0.8)
    phi_t = ts_functional(f, tensor=tensor8)
    phi_p = ts_functional(f)
    l6 = l6_norm(extend(f)) ** 6 / TAU ** 2
    assert abs(phi_t - phi_p) < 1e-9 * abs(phi_p)
    assert abs(phi_p - l6) < 1e-9 * abs(phi_p)


# ---------------------------------------------------------------------------
# radial densities
# ---------------------------------------------------------------------------

def test_mu2_closed_form():
    for r in (0.2, 0.7, 1.0, 1.5, 1.9):
        exact = 4.0 / (r * np.sqrt(4.0 - r * r))
        assert mu_value(2, r) == pytest.approx(exact, rel=1e-9)


def test_mu2_monte_carlo():
    # |e^{i a} + e^{i b}| has density mu_2(r) r / (2 pi)
    rng = np.random.default_rng(42)
    n = 10 ** 6
    r = np.abs(np.exp(1j * rng.uniform(0, TAU, n)) + 1.0)
    edges = np.linspace(0.1, 1.9, 10)
    hist, _ = np.histogram(r, bins=edges)
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        # exact bin mass of the closed form
        pa = (2.0 / np.pi) * (np.arcsin(b / 2.0) - np.arcsin(a / 2.0))
        assert hist[i] / n == pytest.approx(pa, rel=0.02)


def test_mu3_two_routes_cross():
    # angular convolution of mu_2 against the direct Hankel profile
    from tscircle.quintic import _mu3_point
    dens = auto_density(3, n_points=401)
    for r in (0.5, 1.5, 2.5):
        i = int(np.argmin(np.abs(dens.radii - r)))
        assert dens.valid[i]
        assert _mu3_point(dens.radii[i]) == pytest.approx(dens.values[i],
                                                          rel=2e-6)


def test_mu5_at_one_is_lambda0():
    assert mu_value(5, 1.0) == pytest.approx(lambda0_value(), rel=1e-10)


def test_mu_masses():
    for k in (2, 3, 5):
        dens = auto_density(k, n_points=601)
        assert dens.mass == pytest.approx(TAU ** k, rel=2e-4), k


def test_mu5_small_r_continuity():
    # second differences stay at the smooth-curvature level right across
    # the small-r cutoff buckets (a seam there would spike them)
    dens = auto_density(5, n_points=1201)
    v = dens.values[dens.radii < 0.35]
    assert np.max(np.abs(np.diff(v, 2))) < 1e-3


def test_singular_radius_rejection():
    with pytest.raises(SingularRadiusError):
        mu_value(2, 2.0)
    with pytest.raises(SingularRadiusError):
        mu_value(3, 1.0)
    with pytest.raises(SingularRadiusError):
        mu_value(4, 2.0)
    assert SINGULAR_RADII[5] == ()


def test_sup_bound_report():
    rep = sup_bound_check(5, n_points=501)
    assert rep.at_radius == pytest.approx(1.0, abs=0.02)
    assert rep.sup == pytest.approx(lambda0_value(), rel=1e-4)


def test_density_stays_inside_support():
    # mu_k vanishes beyond r = k, and the radial grid is sized for r <= k
    with pytest.raises(ConfigError):
        auto_density(5, n_points=11, r_max=5.5)
    with pytest.raises(ConfigError):
        sup_bound_check(4, n_points=11, r_max=14.0)
    for k in (2, 3, 4, 5):
        assert mu_value(k, 14.0) == 0.0


# ---------------------------------------------------------------------------
# the norm bound chain
# ---------------------------------------------------------------------------

def test_bound_ratio_below_one_random():
    mu5 = mu_value(5, 1.0)
    for seed in range(5):
        fs = five_random(6, 100 + 10 * seed, decay=0.7)
        rep = quintilinear_bound_ratio(fs, mu5_at_1=mu5)
        assert rep.ratio <= 1.0 + 1e-9


def test_bound_ratio_saturates_at_constants():
    one = constant_function(1.0)
    rep = quintilinear_bound_ratio([one] * 5, mu5_at_1=mu_value(5, 1.0))
    assert rep.ratio == pytest.approx(1.0, abs=1e-10)


def test_bound_ratio_smooth_norm():
    mu5 = mu_value(5, 1.0)
    fs = five_random(5, 200, decay=0.75)
    rep = quintilinear_bound_ratio(fs, s=0.5, mu5_at_1=mu5)
    assert rep.s == 0.5
    assert rep.ratio <= 1.0 + 1e-9
    assert rep.max_t_ratio <= 1.0 + 1e-9
    assert rep.per_t  # the dyadic sweep actually ran


def test_leibniz_difference_identity():
    # Delta_t Q(f1..f5) telescopes into five rotated-slot differences
    from tscircle.quintic import leibniz_terms
    t = 2.0 ** -3
    fs = five_random(3, 300, decay=0.8)
    q = quintic_convolve(fs, method="polar")
    lhs = (rotate(q, t) - q).coeffs
    rhs = np.zeros_like(lhs)
    for term in leibniz_terms(fs, t):
        rhs = rhs + quintic_convolve(term, method="polar").coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-11 * max(1.0, np.max(np.abs(lhs))))
