"""Difference-quotient estimators, splittings, and the smoothing experiment.

difference_norm is a closed form in coefficient space, so it gets a real
quadrature oracle; the canonical waves have exactly known coefficients,
slopes, and pointwise values, which pins down everything built on top.
"""

import warnings

import numpy as np
import pytest

from tscircle import (
    TAU,
    constant_function,
    l2_norm,
    random_function,
    rotate,
    synthesize,
)
from tscircle.errors import ConfigError, PreconditionError
from tscircle.regularity import (
    calH_estimate,
    decay_slope,
    difference_norm,
    dyadic_ts,
    eta_optimization,
    holder_estimate,
    interpolation_constant,
    regularity_profile,
    sharp_flat_split,
    smoothing_experiment,
    spectral_derivative,
    sup_quotient,
    square_wave,
    triangle_wave,
)


def test_dyadic_grid():
    ts = dyadic_ts()
    assert ts.shape == (12,)
    assert ts[0] == 0.5 and ts[-1] == 2.0 ** -12
    assert np.all(ts[:-1] == 2.0 * ts[1:])


def test_difference_norm_against_quadrature(rng):
    # uniform-grid L2 quadrature is exact for trig polynomials
    f = random_function(9, seed=31, decay=0.4)
    M = 4 * 9 + 8
    for t in (0.3, 0.8, 2.0):
        vals = synthesize(rotate(f, t), M) - synthesize(f, M)
        ref = np.sqrt(TAU * np.mean(np.abs(vals) ** 2))
        assert difference_norm(f, t) == pytest.approx(ref, rel=1e-13)


def test_difference_norm_single_mode():
    c = np.zeros(7, dtype=np.complex128)
    c[3 + 2] = 1.7  # n = 2
    from tscircle import CircleFunction
    f = CircleFunction(c)
    for t in (0.1, 1.0):
        expected = 2.0 * abs(np.sin(t)) * 1.7 * np.sqrt(TAU)  # 2|sin(nt/2)|
        assert difference_norm(f, t) == pytest.approx(expected, rel=1e-14)


def test_spectral_derivative_modes():
    f = random_function(5, seed=7)
    d2 = spectral_derivative(f, 2)
    for n in range(-5, 6):
        assert d2.coeff(n) == pytest.approx((1j * n) ** 2 * f.coeff(n))


def test_sup_quotient_single_mode_closed_form():
    from tscircle import CircleFunction
    f = CircleFunction(np.array([0.0, 0.0, 1.0]))  # e^{i theta}
    ts = dyadic_ts()
    expected = max(2.0 * np.sin(0.5 * t) * np.sqrt(TAU) / np.sqrt(t) for t in ts)
    assert sup_quotient(f, 0.5) == pytest.approx(expected, rel=1e-14)
    # rising in t on (0, 1/2], so the coarsest dyadic t wins
    assert sup_quotient(f, 0.5) == pytest.approx(
        2.0 * np.sin(0.25) * np.sqrt(TAU) / np.sqrt(0.5), rel=1e-14)


def test_calH_structure():
    f = random_function(8, seed=12, decay=0.5)
    assert calH_estimate(f, 0.0) == l2_norm(f)  # exactly
    # 0 < s <= 1: norm plus one quotient
    s = 0.6
    assert calH_estimate(f, s) == pytest.approx(
        l2_norm(f) + sup_quotient(f, s), rel=1e-14)
    # s = 1.5 adds the first derivative at the fractional remainder
    assert calH_estimate(f, 1.5) == pytest.approx(
        l2_norm(f) + sup_quotient(f, 1.0)
        + sup_quotient(spectral_derivative(f, 1), 0.5), rel=1e-14)
    with pytest.raises(ConfigError):
        calH_estimate(f, -0.1)


# ---------------------------------------------------------------------------
# canonical waves and decay slopes
# ---------------------------------------------------------------------------

def test_square_wave_is_sign_of_cosine():
    sq = square_wave(64)
    v = synthesize(sq, 1024).real
    assert abs(v[0] - 1.0) < 0.02          # theta = 0
    assert abs(v[512] + 1.0) < 0.02        # theta = pi
    assert l2_norm(square_wave(501)) ** 2 == pytest.approx(TAU, rel=0.01)


def test_triangle_wave_pointwise():
    tri = triangle_wave(64)
    v = synthesize(tri, 1024).real
    assert abs(v[0] - np.pi / 2) < 0.03
    assert abs(v[512] + np.pi / 2) < 0.03


def test_decay_slopes_exact_on_waves():
    ds = decay_slope(square_wave(64))
    assert ds.slope == pytest.approx(-1.0, abs=1e-12)
    assert ds.intercept == pytest.approx(np.log(2.0 / np.pi), abs=1e-12)
    assert ds.rms < 1e-12
    dt = decay_slope(triangle_wave(64))
    assert dt.slope == pytest.approx(-2.0, abs=1e-12)
    assert dt.n_used >= 20  # even modes vanish and are dropped


def test_decay_slope_errors():
    f = random_function(16, seed=2, decay=0.5)
    with pytest.raises(ConfigError):
        decay_slope(f, band=(0, 5))
    with pytest.raises(ConfigError):
        decay_slope(f, band=(3, 3))
    with pytest.raises(PreconditionError):
        decay_slope(constant_function(1.0).padded(16))


def test_holder_flags_jump_but_not_lipschitz():
    tri = triangle_wave(64)
    h = holder_estimate(tri, 1.0)
    # true Lipschitz constant is 1; the coarsest quotient sits just above
    assert 1.0 < h.quotients[0.5] < 1.02
    # band-limitation caps the small-t quotients at the sup of the Gibbs
    # overshoot of the derivative (~1.18), so the trend is flat
    assert max(h.quotients.values()) < 1.19
    assert not h.diverging
    assert h.sup_norm == pytest.approx(np.pi / 2, abs=0.02)

    sq = square_wave(64)
    # for t above the resolution scale the jump makes the quotient ~ 2/t
    hs = holder_estimate(sq, 1.0, ts=dyadic_ts(1, 6))
    assert hs.diverging

    h5 = holder_estimate(tri, 0.5)
    assert h5.slope == pytest.approx(0.5, abs=0.1)  # ~ t^{1 - alpha}
    assert not h5.diverging

    with pytest.raises(ConfigError):
        holder_estimate(tri, 0.0)
    with pytest.raises(ConfigError):
        holder_estimate(tri, 1.2)


# ---------------------------------------------------------------------------
# sharp / flat splitting
# ---------------------------------------------------------------------------

def test_split_partition_and_budget():
    f = random_function(16, seed=21, decay=0.8)
    rep = sharp_flat_split(f, eta=0.05)
    assert l2_norm((rep.sharp + rep.flat) - f) < 1e-14
    for n in range(-rep.K, rep.K + 1):
        assert rep.flat.coeff(n) == 0
    assert rep.l2_flat <= rep.eta * rep.scale_norm + 1e-15
    assert rep.lip_sharp > 0


def test_split_cutoff_minimal():
    f = random_function(16, seed=22, decay=0.8)
    rep = sharp_flat_split(f, eta=0.05)
    assert 0 < rep.K <= 16
    target = rep.eta * rep.scale_norm
    p2 = TAU * np.abs(f.coeffs) ** 2
    nn = np.abs(np.arange(-16, 17))
    assert p2[nn > rep.K - 1].sum() > target * target


def test_split_eta_tradeoff_monotone():
    f = square_wave(32)
    r1 = sharp_flat_split(f, eta=0.02)
    r2 = sharp_flat_split(f, eta=0.2)
    assert r1.K >= r2.K
    assert r1.lip_sharp >= r2.lip_sharp
    assert r1.l2_flat <= r2.l2_flat + 1e-15


def test_split_error_and_warning_paths():
    f = random_function(8, seed=23, decay=0.5)
    with pytest.raises(ConfigError):
        sharp_flat_split(f, eta=0.0)
    with pytest.warns(UserWarning):
        sharp_flat_split(constant_function(1.0).padded(4), eta=0.5)
    # (eta * scale)^2 underflows: every mode is sharp, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sharp_flat_split(f, eta=1e-300)
    assert rep.K == 8 and rep.l2_flat == 0.0


def test_eta_optimization_matches_exponent_heuristic():
    rep = eta_optimization(square_wave(64))
    assert rep.p > 0
    assert rep.delta_theory == pytest.approx(1.0 / (1.0 + rep.p), rel=1e-12)
    # measured optimized modulus tracks the predicted exponent
    assert abs(rep.delta_fit - rep.delta_theory) < 0.05
    assert np.all(np.diff(rep.Ks) <= 0)  # larger eta, smaller cutoff
    with pytest.raises(PreconditionError):
        eta_optimization(constant_function(1.0).padded(8))


# ---------------------------------------------------------------------------
# interpolation and smoothing
# ---------------------------------------------------------------------------

def test_interpolation_constant_properties():
    one = constant_function(2.0)
    assert interpolation_constant(one, 0.2, 0.4) == pytest.approx(1.0, abs=1e-12)
    f = random_function(12, seed=3, decay=0.6)
    c1 = interpolation_constant(f, 0.3, 0.9)
    c3 = interpolation_constant(3.0 * f, 0.3, 0.9)
    assert c1 == pytest.approx(c3, rel=1e-12)  # scale invariant
    with pytest.raises(ConfigError):
        interpolation_constant(f, 0.4, 0.4)
    with pytest.raises(ConfigError):
        interpolation_constant(f, 0.0, 0.5)


def test_interpolation_constant_bounded_sample():
    for k in range(10):
        f = random_function(10, seed=400 + k, decay=0.6)
        assert interpolation_constant(f, 0.2, 0.4) <= 2.0
        assert interpolation_constant(f, 0.3, 0.9) <= 2.0


def test_smoothing_gain_and_lipschitz_stability():
    rep = smoothing_experiment(n=64)
    assert -1.6 < rep.input_slope < -0.9
    assert rep.gain >= 0.25
    assert rep.gain == pytest.approx(rep.input_slope - rep.output_slope,
                                     abs=1e-14)
    assert rep.lip_drift < 0.05
    assert rep.lip_coarse > 0


def test_smoothing_config_errors():
    with pytest.raises(ConfigError):
        smoothing_experiment(n=8)


def test_regularity_profile_shape():
    f = random_function(10, seed=40, decay=0.7)
    prof = regularity_profile(f)
    d = prof.to_dict()
    assert set(d) == {"n", "l2", "decay_slope", "decay_band", "calH", "holder"}
    assert d["n"] == 10
    assert d["l2"] == pytest.approx(l2_norm(f))
    assert set(d["calH"]) == {0.25, 0.5, 0.75, 1.0, 1.5}
    assert set(d["holder"]) == {0.25, 0.5, 1.0}
    # constants defeat the decay fit; the profile degrades gracefully
    dc = regularity_profile(constant_function(1.0)).to_dict()
    assert dc["decay_slope"] is None
