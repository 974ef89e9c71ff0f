"""Quintilinear convolution, radial densities, and the norm bound chain.

The convolution has two fully independent implementations (cached weight
tensor vs polar-grid assembly); densities get closed forms, Monte-Carlo,
quadrature and hypergeometric references, and a route-crossing at the
critical radius.
"""

import gc
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special

from tscircle import (
    TAU,
    CircleFunction,
    auto_density,
    constant_function,
    conjugate_reflect,
    el_quintic,
    extend,
    inner_product,
    l2_norm,
    l6_norm,
    lambda0_value,
    linear_part,
    mu_value,
    nonlinear_part,
    quintic_convolve,
    quintilinear_bound_ratio,
    random_function,
    rotate,
)
import tscircle.extension
import tscircle.quintic
from tscircle.bessel import (DENSITY_PANEL, BesselTensor, RadialGrid, _encode,
                             bessel_product_tail, default_grid)
from tscircle.errors import (ConfigError, GridSizeError, PreconditionError,
                             SingularRadiusError)
from tscircle.extension import ExtensionField, angle_count
from tscircle.quintic import (HANKEL_FLOOR, SINGULAR_RADII, _assemble_polar,
                              _product, _self_product, leibniz_terms)
from tscircle.regularity import square_wave


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


def convolve_per_tuple(fs, tensor):
    # the tensor route with one sorted, encoded and searched key per
    # ordered tuple (n1..n5, m), signs and accumulation as in the library
    Ns = [f.N for f in fs]
    M = sum(Ns)
    grids = np.meshgrid(*(np.arange(-N, N + 1) for N in Ns[1:]), indexing="ij")
    n2345 = np.stack([g.ravel() for g in grids], axis=1)
    cc = np.ones(n2345.shape[0], dtype=np.complex128)
    for j in range(4):
        cc = cc * fs[j + 1].coeffs[n2345[:, j] + Ns[j + 1]]
    s2345 = n2345.sum(axis=1)
    odd2345 = ((n2345 < 0) & (n2345 % 2 != 0)).sum(axis=1)
    out = np.zeros(2 * M + 1, dtype=np.complex128)
    for n1 in range(-Ns[0], Ns[0] + 1):
        m = n1 + s2345
        keys = np.empty((n2345.shape[0], 6), dtype=np.int64)
        keys[:, 0] = abs(n1)
        keys[:, 1:5] = np.abs(n2345)
        keys[:, 5] = np.abs(m)
        keys.sort(axis=1)
        codes = _encode(keys, tensor._base)
        pos = np.searchsorted(tensor._codes, codes)
        assert np.array_equal(tensor._codes[pos], codes)
        odd = odd2345 + ((m < 0) & (m % 2 != 0))
        if n1 < 0 and n1 % 2 != 0:
            odd = odd + 1
        sign = np.where(odd % 2 == 0, 1.0, -1.0)
        w = fs[0].coeffs[n1 + Ns[0]] * cc * sign * tensor.values[pos]
        out.real += np.bincount(m + M, weights=w.real, minlength=2 * M + 1)
        out.imag += np.bincount(m + M, weights=w.imag, minlength=2 * M + 1)
    return out * TAU ** 4


def test_tensor_route_is_the_per_tuple_contraction(tensor8):
    # resolving each (class, sum) pair once, in one batched lookup with the
    # parity signs folded in, changes no bit of the result, zero-bandwidth
    # slots at either end included
    cases = [five_random(8, 10 * seed) for seed in range(3)]
    for base, Ns in ((60, (8, 2, 0, 5, 3)), (100, (0, 8, 3, 0, 5)),
                     (110, (5, 0, 0, 0, 8))):
        cases.append([random_function(N, seed=base + i, decay=0.8)
                      for i, N in enumerate(Ns)])
    cases.append(five_random(3, 80))
    for fs in cases:
        got = quintic_convolve(fs, tensor=tensor8).coeffs
        assert np.array_equal(got, convolve_per_tuple(fs, tensor8))


def per_tuple_cases():
    cases = [five_random(8, 10 * seed) for seed in range(3)]
    for base, Ns in ((60, (8, 2, 0, 5, 3)), (100, (0, 8, 3, 0, 5)),
                     (110, (5, 0, 0, 0, 8))):
        cases.append([random_function(N, seed=base + i, decay=0.8)
                      for i, N in enumerate(Ns)])
    cases.append(five_random(3, 80))
    return cases


def test_tensor_route_reads_only_the_requested_modes(tensor8):
    # modes -M..M alone are the full contraction's, bit for bit: the rows
    # and lookups they skip land in no read bin
    for fs in per_tuple_cases():
        top = sum(f.N for f in fs)
        full = convolve_per_tuple(fs, tensor8)
        for M in (0, fs[0].N, 8, top):
            got = quintic_convolve(fs, tensor=tensor8, M=M)
            assert got.N == M
            assert np.array_equal(got.coeffs, full[top - M:top + M + 1])


def test_tensor_route_refuses_a_negative_mode_count(tensor8):
    with pytest.raises(ConfigError, match="negative"):
        quintic_convolve(five_random(2, 30), tensor=tensor8, M=-1)


def test_polar_route_reads_only_the_requested_modes():
    # on angle_count(N1 + .. + N5, M) angles the modes -M..M match the full
    # call's; an M past the output band is the full call
    for fs in (five_random(4, 30), [random_function(N, seed=40 + i)
                                    for i, N in enumerate((6, 0, 3, 2, 5))]):
        top = sum(f.N for f in fs)
        full = quintic_convolve(fs).coeffs
        scale = np.max(np.abs(full))
        for M in (0, 3, 8, top):
            got = quintic_convolve(fs, M=M).coeffs
            assert got.size == 2 * M + 1
            gap = np.max(np.abs(got - full[top - M:top + M + 1]))
            assert gap <= 1e-15 * scale
        assert np.array_equal(quintic_convolve(fs, M=top + 5).coeffs, full)
    with pytest.raises(ConfigError):
        quintic_convolve(fs, M=-1)


# (expression, inputs, bandwidth of the product, read modes M): above the
# 64-angle floor, with M + bandwidth even and odd
ALIAS_ONE = [random_function(16, seed=8)]
ALIAS_FIVE = [random_function(N, seed=60 + i)
              for i, N in enumerate((12, 9, 8, 5, 7))]
ALIASING_CASES = {
    "el_quintic full": (_self_product, ALIAS_ONE, 80, 80),
    "el_quintic low": (_self_product, ALIAS_ONE, 80, 16),
    "el_quintic mode 0": (_self_product, ALIAS_ONE, 80, 0),
    "five inputs odd": (_product, ALIAS_FIVE, 41, 41),
    "five inputs low": (_product, ALIAS_FIVE, 41, 24),
}


@pytest.mark.parametrize("name", list(ALIASING_CASES))
def test_polar_assembly_at_the_exact_aliasing_bound(name):
    # on angle_count(B, M) angles modes -M..M match those of the full band
    # on twice the angles; two fewer alias, and the kernel refuses
    expr, fs, B, M = ALIASING_CASES[name]
    J = angle_count(B, M)
    assert J > 64 and J % 2 == 0

    def assemble(n_angles, modes):
        return _assemble_polar(expr, [extend(f, n_angles=n_angles)
                                      for f in fs], modes)[0]

    full = assemble(2 * B + 64, B)[B - M:B + M + 1]
    got = assemble(J, M)
    assert np.max(np.abs(got - full)) <= 1e-13 * np.max(np.abs(full))
    with pytest.raises(GridSizeError):
        assemble(J - 2, M)


def test_tensor_route_names_a_missing_class(tensor8):
    # without the class (0,0,0,0,8,8), which n = (8, -8, 0, 0, 0) and m = 0
    # reach, an N = 8 contraction refuses; an N = 2 one never reads that
    # class and is unchanged
    keep = ~np.all(tensor8.keys == (0, 0, 0, 0, 8, 8), axis=1)
    assert np.count_nonzero(~keep) == 1
    reduced = BesselTensor(8, tensor8.cutoff, tensor8.keys[keep],
                           tensor8.values[keep], tensor8.errors[keep])
    with pytest.raises(PreconditionError, match=r"\(0, 0, 0, 0, 8, 8\)"):
        quintic_convolve(five_random(8, 90), tensor=reduced)
    fs = five_random(2, 95)
    assert np.array_equal(quintic_convolve(fs, tensor=reduced).coeffs,
                          quintic_convolve(fs, tensor=tensor8).coeffs)


def test_el_quintic_is_the_five_slot_convolution():
    f = random_function(5, seed=7, decay=0.8)
    tf = conjugate_reflect(f)
    a = el_quintic(f)
    b = quintic_convolve([f, f, f, tf, tf], method="polar")
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-12)


def test_el_quintic_low_modes_match_full_band(monkeypatch):
    # modes |m| <= 16 of the bandwidth-80 product, on angle_count(80, 16)
    # = 98 angles instead of 162, are the full result cut to 16
    angles = []
    real = tscircle.extension.extend

    def recording(f, *args, **kwargs):
        field = real(f, *args, **kwargs)
        angles.append(field.n_angles)
        return field

    monkeypatch.setattr(tscircle.extension, "extend", recording)
    f = random_function(16, seed=8, decay=0.8)
    full = el_quintic(f).truncated(16)
    low = el_quintic(f, M=16)
    assert angles == [162, 98]
    assert low.N == 16
    assert l2_norm(low - full) <= 1e-13 * l2_norm(full)
    assert np.array_equal(el_quintic(f, M=99).coeffs, el_quintic(f).coeffs)


def test_polar_route_stable_under_grid_doubling():
    # the product grid resolves the polar route's radial sums: halving its
    # panels moves Q, criterion 8's square-wave Q and the L^6 norm only at
    # rounding
    grid = default_grid()
    fine = grid.refine()
    for f in (random_function(16, seed=8, decay=0.8), square_wave(64)):
        coarse = el_quintic(f, grid)
        assert coarse.N == 5 * f.N
        assert l2_norm(coarse - el_quintic(f, fine)) <= 1e-13 * l2_norm(coarse)
    f = random_function(16, seed=9, decay=0.8)
    norm = l6_norm(extend(f, grid))
    assert abs(norm - l6_norm(extend(f, fine))) <= 1e-13 * norm


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


def _mu3_angular(r: float) -> float:
    """mu_3(r) as the angular convolution of mu_2 against arclength,
    2 int_0^pi mu_2(|r - e^{iu}|) du by adaptive quadrature, split at the
    angle where |r - e^{iu}| = 2."""
    from scipy.integrate import quad

    def g(u):
        d2 = r * r + 1.0 - 2.0 * r * np.cos(u)
        if d2 <= 0.0 or d2 >= 4.0:
            return 0.0
        return 4.0 / np.sqrt(d2 * (4.0 - d2))

    c = (r * r - 3.0) / (2.0 * r)
    pts = [float(np.arccos(c))] if -1.0 <= c <= 1.0 else None
    return 2.0 * quad(g, 0.0, np.pi, points=pts, limit=400)[0]


def test_mu3_two_routes_cross():
    # the 2F1 closed form against the angular convolution of mu_2
    dens = auto_density(3, n_points=401)
    for r in (0.2, 0.5, 0.9, 1.1, 1.5, 2.5, 2.9):
        i = int(np.argmin(np.abs(dens.radii - r)))
        assert dens.valid[i]
        assert _mu3_angular(dens.radii[i]) == pytest.approx(dens.values[i],
                                                            rel=1e-11)
        assert mu_value(3, dens.radii[i]) == dens.values[i]


def test_mu3_closed_form_at_zero():
    # (2 pi)^2 (2 sqrt 3 / pi) / 3 = 2 pi mu_2(1): at r = 0 the convolution
    # of mu_2 with arclength reads mu_2 on the unit circle
    assert mu_value(3, 0.0) == pytest.approx(8.0 * np.pi / np.sqrt(3.0),
                                             rel=1e-15)


@pytest.mark.parametrize("r", [0.3, 0.7, 1.5, 2.5, 3.5])
def test_mu4_hankel_matches_3f2(r):
    # p_4(r) = (2/pi^2) sqrt(16 - r^2)/r Re 3F2(1/2, 1/2, 1/2; 5/6, 7/6;
    # (16 - r^2)^3 / (108 r^4)) (Borwein, Straub, Wan, Zudilin 2012) and
    # mu_4 = (2 pi)^3 p_4 / r.  The Hankel value's error is its truncation
    # at the cutoff, which the P = 200 -> 400 gap measures
    with mpmath.workdps(30):
        x = mpmath.mpf(r)
        f = mpmath.hyp3f2(0.5, 0.5, 0.5, mpmath.mpf(5) / 6, mpmath.mpf(7) / 6,
                          (16 - x * x) ** 3 / (108 * x ** 4))
        exact = float(16 * mpmath.pi * mpmath.sqrt(16 - x * x)
                      * mpmath.re(f) / (x * x))
    got = mu_value(4, r)
    gap = abs(got - mu_value(4, r, 400.0))
    assert abs(got - exact) <= 2.0 * gap


def test_mu5_at_one_is_lambda0():
    assert mu_value(5, 1.0) == pytest.approx(lambda0_value(), rel=1e-10)


def test_mu_masses():
    for k in (2, 3, 5):
        dens = auto_density(k, n_points=601)
        assert dens.mass == pytest.approx(TAU ** k, rel=2e-4), k
    for k in (2, 3):                        # closed forms: exact
        assert auto_density(k, n_points=11).mass == TAU ** k


@pytest.mark.parametrize("k", [4, 5])
def test_mass_simpson_is_scipy_simpson(k):
    # the mass rule is scipy's irregular-spacing Simpson bit for bit, on
    # even and odd counts and on k = 4's gapped (masked) profiles
    from scipy.integrate import simpson
    for n in (4, 5, 6, 7, 11, 12, 51, 500, 801, 1001, 2001):
        dens = auto_density(k, n_points=n)
        r = dens.radii[dens.valid]
        want = float(TAU * simpson(r * dens.values[dens.valid], x=r))
        assert dens.mass == want, n


def test_mu5_small_r_continuity():
    # second differences stay at the smooth-curvature level right across
    # the small-r cutoff buckets (a seam there would spike them)
    dens = auto_density(5, n_points=1201)
    v = dens.values[dens.radii < 0.35]
    assert np.max(np.abs(np.diff(v, 2))) < 1e-3


def test_mu5_profile_passes_through_mu5_at_zero():
    # the small-r fit keeps the value mu_value reports at r = 0
    dens = auto_density(5)
    assert dens.radii[0] == 0.0
    assert dens.values[0] == mu_value(5, 0.0)


def test_singular_radius_rejection():
    with pytest.raises(SingularRadiusError):
        mu_value(2, 2.0)
    with pytest.raises(SingularRadiusError):
        mu_value(3, 1.0)
    with pytest.raises(SingularRadiusError):
        mu_value(4, 2.0)
    assert SINGULAR_RADII[5] == ()


def test_sup_bound_report():
    dens = auto_density(5, 501)
    assert dens.arg_sup() == pytest.approx(1.0, abs=0.02)
    assert dens.sup() == pytest.approx(lambda0_value(), rel=1e-4)


@pytest.mark.parametrize("k,r,error", [
    (2, -0.5, PreconditionError), (3, -0.5, PreconditionError),
    (4, -0.5, PreconditionError), (5, -0.5, PreconditionError),
    (4, 0.002, SingularRadiusError), (4, 0.01, SingularRadiusError),
    (4, 0.024, SingularRadiusError), (4, 0.0, SingularRadiusError),
])
def test_mu_value_refuses_outside_its_domain(k, r, error):
    # a negative radius, or mu_4 below the smallest radius its Hankel
    # buckets resolve, is refused rather than answered with inf, NaN or an
    # extrapolated fit
    with pytest.raises(error):
        mu_value(k, r)


@pytest.mark.parametrize("call", [
    lambda: mu_value(5, np.nan),
    lambda: mu_value(4, np.nan),
    lambda: bessel_product_tail(np.zeros(6, dtype=int), 200.0,
                                [1.0, 1.0, 1.0, 1.0, 1.0, np.nan]),
], ids=["mu5", "mu4", "tail-scale"])
def test_nan_radius_or_scale_is_refused(call):
    # a NaN fails every comparison, so the domain checks are written to
    # accept only what passes them, not to refuse what fails the opposite
    with pytest.raises(PreconditionError):
        call()


def test_density_stays_inside_support():
    # mu_k vanishes beyond r = k, and the radial grid is sized for r <= k:
    # every profile covers exactly the support [0, k]
    for k in (2, 5):
        dens = auto_density(k, n_points=11)
        assert dens.radii[0] == 0.0 and dens.radii[-1] == k
    for k in (2, 3, 4, 5):
        assert mu_value(k, 14.0) == 0.0


def _one_thread_hankel_density(k, radii, base_cutoff):
    """The Hankel profile as one thread sums it, bucket by bucket: the tail,
    then each 128-radius chunk's head added in."""
    def chunk(rr, cutoff):
        g = tscircle.bessel._default_grid(cutoff, DENSITY_PANEL)
        w = (g.j_matrix(0)[0] ** k) * g.nodes * g.weights
        scales = np.ones((rr.size, k + 1))
        scales[:, k] = rr
        out = bessel_product_tail(np.zeros(k + 1, int), cutoff, scales)
        for lo in range(0, rr.size, 128):
            out[lo:lo + 128] += special.j0(np.outer(rr[lo:lo + 128],
                                                    g.nodes)) @ w
        return out

    vals = np.full(radii.shape, np.nan)
    prev = np.inf
    for edge, cut in [(0.2, base_cutoff), (0.1, max(400.0, base_cutoff)),
                      (0.05, max(800.0, base_cutoff)),
                      (HANKEL_FLOOR, max(1600.0, base_cutoff))]:
        sel = (radii >= edge) & (radii < prev)
        prev = edge
        if np.any(sel):
            vals[sel] = chunk(radii[sel], cut)
    tiny = radii < HANKEL_FLOOR
    if k == 5 and np.any(tiny):
        anchors = np.array([0.03, 0.05, 0.08, 0.12])
        a0 = tscircle.quintic._mu5_at_zero(base_cutoff)
        x = anchors ** 2
        c12 = np.linalg.lstsq(np.stack([x, x * x], axis=1),
                              chunk(anchors, max(1600.0, base_cutoff)) - a0,
                              rcond=None)[0]
        vals[tiny] = np.polynomial.polynomial.polyval(
            radii[tiny] ** 2, np.concatenate([[a0], c12]))
    return vals


@pytest.mark.parametrize("k,n_points", [(5, 801), (4, 801), (5, 1001)])
def test_two_lane_density_from_cold_grids_is_the_one_thread_sum(k, n_points):
    # the density grids are built, J_0 rows and all, inside the call that
    # splits the heads between two threads; every value matches the one
    # thread's sum bit for bit
    tscircle.bessel._default_grid.cache_clear()
    dens = auto_density(k, n_points)
    want = TAU ** (k - 1) * _one_thread_hankel_density(k, dens.radii, 200.0)
    assert np.array_equal(dens.values, want, equal_nan=True)


def test_density_grids_and_tails_stay_on_the_calling_thread(monkeypatch):
    # RadialGrid.j_matrix grows its rows in place, so grids, rows and tails
    # are all resolved on the calling thread; only numpy and scipy run on
    # the helper
    seen = {}

    def record(name, fn):
        def wrapper(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    tscircle.bessel._default_grid.cache_clear()
    q = tscircle.quintic
    monkeypatch.setattr(q, "bessel_product_tail",
                        record("tail", q.bessel_product_tail))
    monkeypatch.setattr(q, "_default_grid", record("grid", q._default_grid))
    monkeypatch.setattr(RadialGrid, "j_matrix",
                        record("rows", RadialGrid.j_matrix))
    for k in (5, 4):
        auto_density(k)
    assert seen == {name: {threading.get_ident()}
                    for name in ("tail", "grid", "rows")}


def test_every_mu5_bucket_integrates_up_to_the_cutoff(monkeypatch):
    # the anchors of the small-radius fit included: above their own P = 1600
    # every tail starts at the requested cutoff (four buckets, the anchors
    # and mu_5(0))
    cutoffs = []
    real = tscircle.quintic.bessel_product_tail

    def tail(orders, P, *args):
        cutoffs.append(P)
        return real(orders, P, *args)

    monkeypatch.setattr(tscircle.quintic, "bessel_product_tail", tail)
    dens = auto_density(5, 801, 3200.0)
    assert np.isfinite(dens.values).all()
    assert len(cutoffs) == 6 and min(cutoffs) >= 3200.0


HELPER_THREADS = """
import threading
from tscircle import auto_density, mu_value

def helpers():
    return sum(t.name.startswith("tscircle-hankel")
               for t in threading.enumerate())

start = threading.active_count()
for call in (lambda: mu_value(5, 1.0), lambda: mu_value(5, 0.01),
             lambda: auto_density(5), lambda: auto_density(5)):
    call()
    print(start, threading.active_count(), helpers())
"""


def test_the_hankel_helper_lives_for_one_call(monkeypatch):
    # after each single-radius value and each profile, the thread count is
    # back to its value after import and no helper is alive
    src = str(Path(tscircle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", HELPER_THREADS],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True,
                         timeout=120)
    counts = [tuple(map(int, line.split()))
              for line in out.stdout.splitlines()]
    assert len(counts) == 4
    assert all((n, h) == (s, 0) for s, n, h in counts)
    # a single radius is one job, run inline; a profile runs one lane of
    # heads on the helper and the other on the calling thread
    lanes = []
    real = tscircle.quintic._hankel_heads

    def heads(jobs, buf):
        lanes.append(threading.current_thread().name)
        return real(jobs, buf)

    monkeypatch.setattr(tscircle.quintic, "_hankel_heads", heads)
    me = threading.current_thread().name
    mu_value(5, 1.0)
    assert lanes == [me]
    lanes.clear()
    auto_density(5)
    helper = [name for name in lanes if name != me]
    assert lanes.count(me) == 1 and len(helper) == 1
    assert helper[0].startswith("tscircle-hankel")


FORK_AFTER_PROFILE = """
import os, signal
from tscircle import auto_density

want = auto_density(5).values.tobytes()
pid = os.fork()
if pid == 0:
    signal.alarm(60)                 # a child left waiting ends, not hangs
    os._exit(0 if auto_density(5).values.tobytes() == want else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def test_a_child_forked_after_a_profile_computes_the_same_profile():
    # a child forked after the parent computed a profile computes it again,
    # byte for byte, and exits
    src = str(Path(tscircle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", FORK_AFTER_PROFILE],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "0"


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
    # the s = 0 ratio comes out of the same call
    assert rep.ratio0 == quintilinear_bound_ratio(fs, mu5_at_1=mu5).ratio


def test_mode_zero_is_the_angular_mean():
    # M = 0 reads the angular mean of the samples and the tail; the FFT
    # route (here through M = 1) reads the same mode 0.  The radial sum
    # cancels, so the two roundings differ by a few units in the last
    # place: 4e-16 to 1.2e-15 relative here, depending on which Bessel
    # rows the grid has cached
    f = random_function(8, seed=7, decay=0.7)
    F = extend(f, n_angles=64)
    G = [extend(g, n_angles=64) for g in five_random(4, 500, decay=0.7)]
    B = [extend(autocorrelation(g), n_angles=88)
         for g in five_random(8, 5000, decay=0.6)]
    for expr, fields in ((_self_product, [F]), (_product, G), (_product, B)):
        mean = _assemble_polar(expr, fields, 0)[0]
        fft = _assemble_polar(expr, fields, 1)[0]
        assert mean.shape == (1,)
        assert abs(mean[0] - fft[1]) <= 4e-15 * abs(fft[1])


def test_assembly_refuses_aliased_modes():
    # 64 angles of a bandwidth-40 product give modes |m| <= 23 exactly;
    # mode 24 would alias with mode -40, so the assembly refuses it
    f = random_function(8, seed=7, decay=0.7)
    F = extend(f, n_angles=64)
    full = el_quintic(f).truncated(23).coeffs
    low = _assemble_polar(_self_product, [F], 23)[0]
    assert np.max(np.abs(low - full)) <= 1e-13 * np.max(np.abs(full))
    with pytest.raises(GridSizeError):
        _assemble_polar(_self_product, [F], 24)


def autocorrelation(g):
    """|g|^2 from its coefficients: sum_n c_n conj(c_{n-m}), m = -2N..2N."""
    return CircleFunction(np.convolve(g.coeffs, np.conj(g.coeffs[::-1])))


def test_bound_chain_extends_each_abs2_once(monkeypatch):
    # Q extends its five inputs; the |f_j|^2 are extended once per call, and
    # each offset adds |rot f_j|^2 (j < 4) and |rot f_j - f_j|^2: 5 + 5 + 4 * 9
    angles = []
    real = tscircle.extension.extend

    def recording(f, *args, **kwargs):
        field = real(f, *args, **kwargs)
        angles.append(field.n_angles)
        return field

    monkeypatch.setattr(tscircle.extension, "extend", recording)
    fs = five_random(8, 400, decay=0.6)
    quintilinear_bound_ratio(fs, 0.5, mu5_at_1=1.0,
                             t_grid=2.0 ** -np.arange(1, 5))
    assert len(angles) == 46
    assert set(angles) == {82}     # angle_count(80, 0): mode 0 is read


def test_bound_chain_synthesizes_each_field_once_per_row_block(monkeypatch):
    # the chain's 1 + 5 * 4 bounds come out of one pass over its 5 + 4 * 9
    # = 41 |g|^2 fields, each field's block synthesized once per row block
    # (one pass per bound made 21 * 5 = 105 syntheses per row block); Q's
    # pass, at M = 40, reads full angles and is not counted
    seen = []
    real = ExtensionField.rows

    def rows(self, lo, hi, half=False):
        if half:
            seen.append((id(self), lo))
        return real(self, lo, hi, half)

    monkeypatch.setattr(ExtensionField, "rows", rows)
    fs = five_random(8, 400, decay=0.6)
    quintilinear_bound_ratio(fs, 0.5, mu5_at_1=1.0,
                             t_grid=2.0 ** -np.arange(1, 5))
    blocks = {lo for _, lo in seen}
    assert len(blocks) == 8                 # 704 nodes, 99 rows of 41 angles
    assert len({key for key, _ in seen}) == 41
    assert len(set(seen)) == len(seen) == 41 * len(blocks)


FIVE_N4 = [random_function(4, seed=430 + i, decay=0.7) for i in range(5)]


@pytest.mark.parametrize("s", [-1.0, np.nan, np.inf])
def test_bound_chain_refuses_a_bad_smoothness(s):
    with pytest.raises(ConfigError, match="smoothness"):
        quintilinear_bound_ratio(FIVE_N4, s, mu5_at_1=1.0)


def test_bound_chain_refuses_an_empty_offset_list():
    # with no offsets the quotient part had no terms: ratio came out as the
    # s = 0 ratio and max_t_ratio was None; a bare number failed to iterate
    for t_grid in ([], 0.5):
        with pytest.raises(ConfigError, match="nonempty list"):
            quintilinear_bound_ratio(FIVE_N4, 0.5, mu5_at_1=1.0,
                                     t_grid=t_grid)
    quintilinear_bound_ratio(FIVE_N4, 0.0, mu5_at_1=1.0, t_grid=[])


@pytest.mark.parametrize("t", [0.0, -0.25, np.nan, np.inf])
def test_bound_chain_refuses_a_bad_offset(t):
    # t = 0 divided by zero into a NaN per-offset ratio, which max() skipped
    with pytest.raises(ConfigError, match="offsets"):
        quintilinear_bound_ratio(FIVE_N4, 0.5, mu5_at_1=1.0,
                                 t_grid=[0.5, t])


NEGATIVE_M = {
    "el_quintic": lambda f, g: el_quintic(f, M=-1),
    "linear_part": lambda f, g: linear_part(f, g, M=-1),
    "nonlinear_part": lambda f, g: nonlinear_part(f, g, M=-2),
}


@pytest.mark.parametrize("name", list(NEGATIVE_M))
def test_polar_assembly_refuses_a_negative_mode_count(name):
    f = random_function(4, seed=440, decay=0.8)
    g = random_function(6, seed=441, decay=0.8)
    with pytest.raises(ConfigError, match="negative"):
        NEGATIVE_M[name](f, g - g.truncated(4))


def bound_chain_reference(fs, s, ts):
    """Independent route: each bound term is the polar convolution of the
    |g|^2 (autocorrelations) at full J, read at mode 0; returns the ratio,
    the per-offset denominators and the bound of fs itself."""
    def bound(gs):
        q = quintic_convolve([autocorrelation(g) for g in gs], method="polar")
        return np.sqrt(TAU * q.coeff(0).real)

    Q = quintic_convolve(fs, method="polar")
    numer = max(l2_norm(rotate(Q, t) - Q) / t ** s for t in ts)
    denom = [sum(bound(slots) for slots in leibniz_terms(fs, t)) / t ** s
             for t in ts]
    rhs0 = bound(fs)
    return (l2_norm(Q) + numer) / (rhs0 + max(denom)), denom, rhs0


def test_bound_chain_matches_polar_route_reference():
    fs = five_random(8, 410, decay=0.6)
    ts = 2.0 ** -np.arange(1, 5)
    rep = quintilinear_bound_ratio(fs, 0.5, mu5_at_1=1.0, t_grid=ts)
    ratio, denom, _ = bound_chain_reference(fs, 0.5, ts)
    assert rep.ratio == pytest.approx(ratio, rel=1e-12, abs=0)
    for t, d in zip(ts, denom):
        assert rep.per_t[float(t)][1] == pytest.approx(d, rel=1e-12, abs=0)


def test_bound_chain_mixed_bandwidths():
    # one band-16 input among constants: mode 0 of the band-32 product
    # takes 64 angles, fewer than the 65 modes of the factor |f_1|^2,
    # which is still sampled exactly (its modes fold onto the 64 bins)
    fs = ([random_function(16, seed=420, decay=0.8)]
          + [constant_function(0.5 + 0.25 * j) for j in range(4)])
    ts = 2.0 ** -np.arange(1, 3)
    ratio, denom, rhs0 = bound_chain_reference(fs, 0.5, ts)
    rep0 = quintilinear_bound_ratio(fs, mu5_at_1=1.0)
    assert rep0.rhs == pytest.approx(rhs0, rel=1e-12, abs=0)
    rep = quintilinear_bound_ratio(fs, 0.5, mu5_at_1=1.0, t_grid=ts)
    assert rep.ratio == pytest.approx(ratio, rel=1e-12, abs=0)
    for t, d in zip(ts, denom):
        assert rep.per_t[float(t)][1] == pytest.approx(d, rel=1e-12, abs=0)


def test_leibniz_difference_identity():
    # Delta_t Q(f1..f5) telescopes into five rotated-slot differences
    t = 2.0 ** -3
    fs = five_random(3, 300, decay=0.8)
    q = quintic_convolve(fs, method="polar")
    lhs = (rotate(q, t) - q).coeffs
    rhs = np.zeros_like(lhs)
    for term in leibniz_terms(fs, t):
        rhs = rhs + quintic_convolve(term, method="polar").coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-11 * max(1.0, np.max(np.abs(lhs))))


def test_a_dropped_grid_is_collected():
    # the polar route's one per-grid table, the Bessel rows, lives on the
    # grid, and no cache keyed by a grid keeps it alive
    grid = RadialGrid(300.0)
    el_quintic(random_function(3, seed=2, decay=0.8), grid, 6)
    ref = weakref.ref(grid)
    del grid
    gc.collect()
    assert ref() is None
