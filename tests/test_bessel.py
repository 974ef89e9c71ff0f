"""Bessel rows, radial quadrature, closed-form tails, weight cache.

scipy.special.jv and mpmath are used strictly as oracles; every digit in
the weight tensor comes from the library's own Miller-recurrence rows
(`_miller_block`), so the oracles check it against independent code.
"""

import numpy as np
import mpmath
import pytest
import scipy.special as sps

from tscircle.bessel import (
    BesselTensor,
    RadialGrid,
    _miller_block,
    bessel_product_tail,
    build_tensor,
    default_grid,
    enumerate_keys,
    exp_tail_integral,
    radial_integrate,
    six_bessel_integral,
)
from tscircle.errors import (
    AdmissibilityError,
    CacheError,
    ConfigError,
    PreconditionError,
)

# independent references for int_0^oo prod J rho drho: scipy.special.jv
# head on [0, 8000] (composite 24-point Gauss-Legendre, unit panels) plus an
# mpmath-exact two-term asymptotic tail; P = 4000 vs 8000 drift < 5e-11
T0_REF = 0.336827961766468         # J_0^6
T1_REF = 0.104851232881558         # J_1^6
T_5500_REF = 0.0151231231586739    # J_0^4 J_5^2
T_MIXED_REF = -0.00243490820873267  # orders (2,3,1,4,0,2)


def test_miller_block_against_scipy_sweep():
    # small, transition and large arguments; every order from one block
    rhos = np.array([0.05, 0.7, 3.0, 11.0, 14.0, 25.0, 80.0, 300.0, 2000.0])
    block = _miller_block(64, rhos)
    worst = 0.0
    for n in range(0, 65):
        worst = max(worst, float(np.max(np.abs(block[n] - sps.jv(n, rhos)))))
    assert worst < 5e-12


def test_miller_block_against_mpmath_spot():
    for n, rho in [(0, 0.3), (3, 9.0), (12, 17.5), (40, 55.0), (128, 200.0)]:
        ref = float(mpmath.besselj(n, rho))
        assert abs(_miller_block(n, np.array([rho]))[n][0] - ref) < 1e-12


def test_grid_weights_integrate_polynomials():
    g = default_grid()
    # Gauss-Legendre panels must do low-degree polynomials essentially exactly
    assert abs(np.dot(g.weights, np.ones_like(g.nodes)) - g.cutoff) < 1e-10
    assert abs(np.dot(g.weights, g.nodes) - g.cutoff ** 2 / 2) < 1e-8
    assert abs(np.dot(g.weights, g.nodes ** 2) - g.cutoff ** 3 / 3) < 1e-6


def test_radial_integrate_against_mpmath():
    # a scipy integrand with the library's declared tail lands within the
    # returned bound of the independent (mpmath-tailed) reference
    orders = (2, 3, 1, 4, 0, 2)

    def integrand(rho):
        out = rho.copy()
        for n in orders:
            out = out * sps.jv(n, rho)
        return out

    val, err = radial_integrate(integrand, orders)
    assert 0 < err < 1e-4
    assert abs(val - T_MIXED_REF) <= err


def test_exp_tail_integral_against_mpmath():
    # int_P^oo rho^{-nu} e^{i omega rho} drho, integer and half-integer nu
    # integer nu runs on exp1 (machine precision); half-integer nu runs on
    # scipy's Fresnel pair, good to ~1e-8 relative in its asymptotic regime;
    # quadosc itself needs extra working precision at the faster frequencies
    P = 50.0
    with mpmath.workdps(30):
        for omega in (-4.0, -1.0, 2.0, 6.0):
            for nu in (1.0, 1.5, 2.0, 2.5, 3.0):
                got = complex(exp_tail_integral(np.array([omega]), nu, P)[0])
                ref = complex(mpmath.quadosc(
                    lambda r: r ** -nu * mpmath.e ** (1j * omega * r),
                    [P, mpmath.inf], period=2 * mpmath.pi / abs(omega)))
                tol = 1e-13 if float(nu).is_integer() else 1e-12 + 2e-8 * abs(ref)
                assert abs(got - ref) < tol, (omega, nu)


def test_exp_tail_integral_zero_frequency():
    P = 200.0
    for nu in (2.0, 3.0):
        got = complex(exp_tail_integral(np.array([0.0]), nu, P)[0])
        assert abs(got - P ** (1 - nu) / (nu - 1)) < 1e-16


def test_six_bessel_within_reported_error_of_references():
    cases = [
        ((0, 0, 0, 0, 0, 0), T0_REF),
        ((1, 1, 1, 1, 1, 1), T1_REF),
        ((5, 0, 0, 5, 0, 0), T_5500_REF),
        ((2, 3, 1, 4, 0, 2), T_MIXED_REF),
    ]
    for tup, ref in cases:
        val, err = six_bessel_integral(*tup, with_error=True)
        assert abs(val - ref) <= err + 1e-10, (tup, val, ref, err)


def test_six_bessel_default_grid_accuracy():
    # at the default cutoff the tail model is good to a few 1e-9 for
    # low orders and a few 1e-7 once order-5 factors enter
    assert abs(six_bessel_integral(0, 0, 0, 0, 0, 0) - T0_REF) < 5e-9
    assert abs(six_bessel_integral(1, 1, 1, 1, 1, 1) - T1_REF) < 2e-8
    assert abs(six_bessel_integral(5, 0, 0, 5, 0, 0) - T_5500_REF) < 2e-6


def test_six_bessel_sign_reflection():
    # J_{-n} = (-1)^n J_n propagates to the product integral; signed
    # variants must stay admissible (equal slot sums)
    even = six_bessel_integral(1, 1, 0, 1, 1, 0)
    assert six_bessel_integral(-1, 1, 0, 1, -1, 0) == pytest.approx(even, rel=1e-12)
    odd = six_bessel_integral(1, 0, 0, 1, 0, 0)
    assert six_bessel_integral(1, -1, 0, 0, 0, 0) == pytest.approx(-odd, rel=1e-12)


def test_six_bessel_rejects_inadmissible():
    with pytest.raises(AdmissibilityError):
        six_bessel_integral(1, 0, 0, 0, 0, 0)


def test_tail_cutoff_consistency():
    # values at different splitting points must agree within their
    # reported error bars, and tighten as the cutoff grows
    out = [six_bessel_integral(2, 3, 1, 4, 0, 2, RadialGrid(cutoff=P),
                               with_error=True)
           for P in (200.0, 300.0, 400.0)]
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            vi, ei = out[i]
            vj, ej = out[j]
            assert abs(vi - vj) <= ei + ej
    errs = [e for _, e in out]
    assert errs[2] < errs[0]
    assert abs(out[2][0] - T_MIXED_REF) < abs(out[0][0] - T_MIXED_REF)


def test_head_quadrature_stable_under_grid_doubling():
    # the default grid resolves every head it serves: halving the panels
    # moves neither a six-factor row nor a mu_5 Hankel head
    def six_heads(grid, keys):
        j = grid.j_matrix(int(keys.max()))
        prod = j[keys[:, 0]].copy()
        for col in range(1, 6):
            prod *= j[keys[:, col]]
        return prod @ (grid.weights * grid.nodes)

    def mu5_heads(grid, radii):
        rho = grid.nodes
        return (sps.j0(np.outer(radii, rho)) * sps.j0(rho) ** 5) @ (grid.weights * rho)

    g = default_grid(200.0)
    fine = g.refine()
    keys = enumerate_keys(8)
    for lo in range(0, len(keys), 512):
        kk = keys[lo:lo + 512]
        assert np.max(np.abs(six_heads(g, kk) - six_heads(fine, kk))) < 1e-13
    radii = np.array([0.5, 1.0, 2.5, 4.0, 5.0])
    for c in (200.0, 400.0, 800.0, 1600.0):
        g = default_grid(c)
        gap = np.abs(mu5_heads(g, radii) - mu5_heads(g.refine(), radii))
        assert np.max(gap) < 1e-13, (c, gap)


def scipy_head_quadrature(orders, P):
    # scipy-only composite Gauss-Legendre head integral on [0, P]
    x, w = np.polynomial.legendre.leggauss(24)
    nodes = (np.arange(int(P))[:, None] + 0.5 + 0.5 * x[None, :]).ravel()
    wts = np.tile(0.5 * w, int(P))
    prod = nodes.copy()
    for n in orders:
        prod = prod * sps.jv(n, nodes)
    return float(np.dot(wts, prod))


def test_bessel_product_tail_against_independent_head():
    # library tail from P must equal (reference full integral) - (scipy head)
    P = 200.0
    got = bessel_product_tail(np.zeros(6, dtype=int), P)
    ref = T0_REF - scipy_head_quadrature([0] * 6, P)
    assert abs(got - ref) < 5e-9


def test_bessel_product_tail_batch_matches_rows():
    # a stack of order rows, and a stack of scale rows, give bit for bit
    # the values of one call per row
    P = 200.0
    keys = enumerate_keys(3)
    batch = bessel_product_tail(keys, P)
    rows = np.array([bessel_product_tail(k, P) for k in keys])
    assert np.array_equal(batch.view(np.uint64), rows.view(np.uint64))
    scales = np.ones((7, 6))
    scales[:, 5] = np.linspace(0.1, 4.9, 7)
    orders = np.zeros(6, dtype=int)
    batch = bessel_product_tail(orders, P, scales)
    rows = np.array([bessel_product_tail(orders, P, s) for s in scales])
    assert np.array_equal(batch.view(np.uint64), rows.view(np.uint64))


def independent_key_enumeration(N):
    """All distinct sorted |n| classes over admissible signed sextuples,
    brute force, for small N."""
    import itertools
    seen = set()
    rng = range(-N, N + 1)
    for n in itertools.product(rng, repeat=5):
        n6 = n[0] + n[1] + n[2] - n[3] - n[4]
        seen.add(tuple(sorted(abs(v) for v in (*n, n6))))
    return sorted(seen)


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_enumerate_keys_matches_brute_force(N):
    keys = enumerate_keys(N)
    brute = independent_key_enumeration(N)
    assert [tuple(k) for k in keys] == brute


def test_enumerate_keys_known_counts():
    assert len(enumerate_keys(0)) == 1
    assert len(enumerate_keys(1)) == 10
    assert len(enumerate_keys(4)) == 396


def test_tensor_lookup_all_signed_tuples(tensor8):
    # every signed admissible tuple must resolve through the stored classes
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = rng.integers(-8, 9, size=5)
        n6 = n[0] + n[1] + n[2] - n[3] - n[4]
        tup = (int(n[0]), int(n[1]), int(n[2]), int(n[3]), int(n[4]), int(n6))
        direct = six_bessel_integral(*tup)
        cached = tensor8.lookup_sorted_abs(
            np.sort(np.abs(np.asarray(tup)))[None, :])[0]
        sign = 1.0
        for v in tup:
            if v < 0 and v % 2 != 0:
                sign = -sign
        assert abs(sign * cached - direct) < 1e-12


def test_tensor_cache_roundtrip_bit_identical(tmp_path):
    t = build_tensor(2)
    path = tmp_path / "t2.b6t"
    t.save(path)
    r = BesselTensor.load(path)
    assert r.N == t.N and r.cutoff == t.cutoff
    assert np.array_equal(r.keys, t.keys)
    assert np.array_equal(r.values.view(np.uint64), t.values.view(np.uint64))
    assert np.array_equal(r.errors.view(np.uint64), t.errors.view(np.uint64))


def test_tensor_cache_detects_corruption(tmp_path):
    t = build_tensor(1)
    path = tmp_path / "t1.b6t"
    t.save(path)
    raw = bytearray(path.read_bytes())
    raw[-5] ^= 0xFF  # flip a payload byte; CRC must catch it
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError):
        BesselTensor.load(path)
    path.write_bytes(bytes(raw[:-3]))  # truncation
    with pytest.raises(CacheError):
        BesselTensor.load(path)


def test_build_tensor_rejects_oversize():
    with pytest.raises(ConfigError):
        build_tensor(49)


def test_error_bounds_are_honest(tensor8):
    # reported per-entry bounds must cover the drift against a doubled cutoff
    fine = RadialGrid(cutoff=400.0)
    idx = np.linspace(0, len(tensor8.keys) - 1, 25).astype(int)
    for i in idx:
        orders = tensor8.keys[i]

        def integrand(rho, orders=orders):
            out = rho.copy()
            for n in orders:
                out = out * sps.jv(int(n), rho)
            return out

        ref, ref_err = radial_integrate(integrand, orders, grid=fine)
        drift = abs(ref - float(tensor8.values[i]))
        assert drift <= float(tensor8.errors[i]) + ref_err + 1e-12
