"""Bessel rows, radial quadrature, closed-form tails, weight cache.

scipy.special.jv and mpmath are used strictly as oracles; every digit in
the weight tensor comes from the library's own rows (forward recurrence
from its Hankel J_0, J_1, and `_miller_block`), so the oracles check it
against independent code.
"""

import itertools

import numpy as np
import mpmath
import pytest
import scipy.special as sps

import tscircle.bessel

from tscircle.bessel import (
    DENSITY_PANEL,
    ROW_CHUNK,
    BesselTensor,
    RadialGrid,
    _default_grid,
    _miller_block,
    _six_bessel_rows,
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


def _exp_tail_reference(omega, nu, P):
    """int_P^oo rho^{-nu} e^{i omega rho} drho = (-i omega)^{nu-1}
    Gamma(1 - nu, -i omega P), by rotating the ray onto -i omega rho."""
    z = -1j * mpmath.mpf(omega)
    return z ** (mpmath.mpf(nu) - 1) * mpmath.gammainc(1 - mpmath.mpf(nu), z * P)


def test_exp_tail_reference_against_quadosc():
    # one pair by direct oscillatory quadrature checks the closed form
    P, omega, nu = 50.0, -1.0, 1.5
    with mpmath.workdps(30):
        ref = _exp_tail_reference(omega, nu, P)
        quad = mpmath.quadosc(
            lambda r: r ** -nu * mpmath.e ** (1j * omega * r),
            [P, mpmath.inf], period=2 * mpmath.pi / abs(omega))
        assert abs(quad - ref) < 1e-20 * abs(ref)


def test_exp_tail_integral_against_mpmath():
    # int_P^oo rho^{-nu} e^{i omega rho} drho, integer and half-integer nu,
    # and the pair's second member at nu + 1;
    # integer nu runs on exp1 (machine precision); half-integer nu runs on
    # scipy's Fresnel pair, good to ~1e-8 relative in its asymptotic regime;
    # the reference is the incomplete-gamma closed form at 30 digits
    P = 50.0
    with mpmath.workdps(30):
        for omega in (-4.0, -1.0, 2.0, 6.0):
            for nu in (1.0, 1.5, 2.0, 2.5, 3.0):
                pair = exp_tail_integral(np.array([omega]), nu, P)
                for got, order in zip(pair, (nu, nu + 1.0)):
                    got = complex(got[0])
                    ref = complex(_exp_tail_reference(omega, order, P))
                    tol = (1e-13 if float(order).is_integer()
                           else 1e-12 + 2e-8 * abs(ref))
                    assert abs(got - ref) < tol, (omega, order)


@pytest.mark.parametrize("nu", [1.5, 2.0])
def test_exp_tail_integral_at_the_default_cutoff(nu):
    # both members at P = 200, the frequencies of the products and one
    # slow one (|omega| P = 60): from |omega| P = 40 on the pair comes from
    # the large-argument series, where each upward recurrence step lost a
    # factor |omega| P (I_3 was 5.4e-12 off at omega = 2, 1.8e-10 at 6);
    # the reference is the incomplete-gamma closed form at 40 digits
    P = 200.0
    with mpmath.workdps(40):
        for omega in (2.0, -2.0, 4.0, -4.0, 6.0, -6.0, 0.3):
            pair = exp_tail_integral(np.array([omega]), nu, P)
            for got, order in zip(pair, (nu, nu + 1.0)):
                ref = complex(_exp_tail_reference(omega, order, P))
                assert abs(complex(got[0]) - ref) < 1e-14 * abs(ref), (omega,
                                                                        order)


def test_exp_tail_integral_zero_frequency():
    P = 200.0
    for nu in (2.0, 3.0):
        pair = exp_tail_integral(np.array([0.0]), nu, P)
        for got, order in zip(pair, (nu, nu + 1.0)):
            got = complex(got[0])
            assert abs(got - P ** (1 - order) / (order - 1)) < 1e-16


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


def six_rows_plain(keys, grid, chunk=ROW_CHUNK):
    # one six-row gather and product per key, in the kernel's chunks
    jc = grid.j_matrix(int(keys.max()))
    w = grid.weights * grid.nodes
    vals = np.empty(keys.shape[0])
    for lo in range(0, keys.shape[0], chunk):
        kk = keys[lo:lo + chunk]
        prod = jc[kk[:, 0]].copy()
        for j in range(1, 6):
            prod *= jc[kk[:, j]]
        vals[lo:lo + chunk] = prod @ w + bessel_product_tail(kk, grid.cutoff)
    return vals


def test_six_bessel_rows_are_the_plain_products():
    # sharing J_{k1} J_{k2} J_{k3} across rows changes no bit, in storage
    # order and with the leading triples scattered over the chunks
    grid = default_grid()
    keys = enumerate_keys(8)
    for kk in (keys, keys[np.random.default_rng(3).permutation(len(keys))]):
        vals, _ = _six_bessel_rows(kk, grid)
        assert np.array_equal(vals, six_rows_plain(kk, grid))


@pytest.mark.parametrize("P", [200.0, 800.0])
def test_five_a1_is_t0(P):
    # modulation is a symmetry of the extension problem, so the second
    # variation at the constants is exact along e_{+-1}: 5 a_1 = T_0 with
    # a_1 = int J_0^4 J_1^2 rho drho, within the two reported tail bounds
    keys = np.array([[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1]])
    (t0, a1), (e0, e1) = _six_bessel_rows(keys, RadialGrid(cutoff=P))
    assert abs(5.0 * a1 - t0) <= 5.0 * e1 + e0


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


def test_grid_sizes():
    # 32-point panels of 57/frequency: 57/6 for six-factor products
    # (frequency 6), 57/10 for the density integrands (frequency 10)
    assert default_grid(200.0).nodes.size == 704
    assert _default_grid(200.0, DENSITY_PANEL).nodes.size == 1152
    assert default_grid(200.0).refine().nodes.size == 1376
    assert [_default_grid(c, DENSITY_PANEL).nodes.size
            for c in (400.0, 800.0, 1600.0)] == [2272, 4512, 8992]


def six_heads(grid, keys):
    """The heads int_0^P rho prod_j J_{k_j} drho of the rows of `keys`."""
    j = grid.j_matrix(int(keys.max()))
    prod = j[keys[:, 0]].copy()
    for col in range(1, 6):
        prod *= j[keys[:, col]]
    return prod @ (grid.weights * grid.nodes)


def mu5_heads(grid, radii):
    """The mu_5 Hankel heads int_0^P J_0(r rho) J_0(rho)^5 rho drho."""
    rho = grid.nodes
    return (sps.j0(np.outer(radii, rho)) * sps.j0(rho) ** 5) @ (grid.weights * rho)


class Gauss16Grid(RadialGrid):
    """The grid rule with 16-point panels."""
    PANEL_NODES = 16


def test_default_grids_match_a_fourfold_refined_16_point_rule():
    # the reference has 16-point panels of 5/w, about 20 nodes per
    # wavelength of an integrand of top frequency w; each default grid
    # (3.5 nodes per wavelength) lands within these bounds of it, and so
    # did the 16-point panels of 20/w that it replaced.  16-point panels of
    # length 5 miss the six-factor heads by 1.1e-11.
    g = default_grid(200.0)
    ref = Gauss16Grid(200.0, 5.0 / 6)
    keys = enumerate_keys(8)
    assert np.max(np.abs(six_heads(g, keys) - six_heads(ref, keys))) <= 3e-16
    rng = np.random.default_rng(2016)
    keys = np.sort(rng.integers(0, 81, size=(2000, 6)), axis=1)
    assert np.max(np.abs(six_heads(g, keys) - six_heads(ref, keys))) <= 2e-17
    radii = np.linspace(0.2, 5.0, 49)
    for c in (200.0, 1600.0):
        gap = (mu5_heads(_default_grid(c, DENSITY_PANEL), radii)
               - mu5_heads(Gauss16Grid(c, 0.5), radii))
        assert np.max(np.abs(gap)) <= 7e-16, c


def test_head_quadrature_stable_under_grid_doubling():
    # each grid resolves every head it serves: halving the panels moves
    # neither a six-factor row on the product grid nor a mu_5 Hankel head
    # on the density grid
    g = default_grid(200.0)
    fine = g.refine()
    keys = enumerate_keys(8)
    for lo in range(0, len(keys), 512):
        kk = keys[lo:lo + 512]
        assert np.max(np.abs(six_heads(g, kk) - six_heads(fine, kk))) < 1e-13
    radii = np.array([0.5, 1.0, 2.5, 4.0, 5.0])
    for c in (200.0, 400.0, 800.0, 1600.0):
        g = _default_grid(c, DENSITY_PANEL)
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


def tail_model_reference(orders, P, pairs):
    """The two-term tail of prod J_{n_j}, summed in mpmath over all 2^6
    sign patterns (not the conjugate half): e^{-i psi} with psi =
    sum eps_j (n_j pi/2 + pi/4) at the working precision, and the given
    (I_2, I_3) at each frequency taken as exact."""
    a = [mpmath.mpf(4 * n * n - 1) / 8 for n in orders]
    a = [x if x <= P else 0 for x in a]
    total = 0
    for eps in itertools.product((1, -1), repeat=6):
        psi = sum(e * (n * mpmath.pi / 2 + mpmath.pi / 4)
                  for e, n in zip(eps, orders))
        A = sum(e * x for e, x in zip(eps, a))
        i2, i3 = pairs[sum(eps)]
        total += mpmath.exp(-1j * psi) * (i2 + 1j * A * i3)
    return (2 / mpmath.pi) ** 3 / 64 * total.real


def test_bessel_product_tail_phases_against_mpmath():
    # the sign-pattern phases are read exactly, not as np.exp of an angle
    # rounded at up to 130 radians: the 20 largest tails and the 20 keys
    # of largest phase angle land within 2.5e-19 of a 40-digit sum of the
    # same model (1.7e-19 and 1.0e-19; np.exp phases put the latter 3.0e-19
    # off).  exp_tail_integral is tested against mpmath above, so its
    # values enter as they are.
    P = 200.0
    keys = enumerate_keys(8)
    got = bessel_product_tail(keys, P)
    omega = np.arange(-6.0, 7.0, 2.0)
    i2, i3 = exp_tail_integral(omega, 2.0, P)
    pairs = {int(w): (mpmath.mpc(x), mpmath.mpc(y))
             for w, x, y in zip(omega, i2, i3)}
    picks = np.concatenate([np.argsort(-np.abs(got))[:20],
                            np.argsort(-keys.sum(axis=1), kind="stable")[:20]])
    with mpmath.workdps(40):
        err = [abs(mpmath.mpf(got[i])
                   - tail_model_reference(keys[i].tolist(), P, pairs))
               for i in picks]
    assert max(err) < 2.5e-19


def test_bessel_product_tail_batch_matches_rows_across_scale_groups():
    # rows of different scale groupings in one batch: all six scales equal
    # among rows with one scale apart, a row with two distinct non-unit
    # scales, repeated rows; each value is bit for bit its own call's
    P = 200.0
    orders = np.array([[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0],
                       [0, 0, 0, 0, 0, 0], [2, 0, 1, 3, 0, 1],
                       [1, 4, 0, 2, 2, 5], [0, 0, 0, 0, 0, 0],
                       [2, 0, 1, 3, 0, 1]])
    scales = np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 0.7],
                       [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                       [1.0, 1.0, 1.0, 1.0, 1.0, 2.5],
                       [1.0, 0.4, 1.0, 2.5, 1.0, 1.0],
                       [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                       [1.0, 1.0, 1.0, 1.0, 1.0, 0.7],
                       [1.0, 0.4, 1.0, 2.5, 1.0, 1.0]])
    batch = bessel_product_tail(orders, P, scales)
    rows = np.array([bessel_product_tail(o, P, s)
                     for o, s in zip(orders, scales)])
    assert np.array_equal(batch.view(np.uint64), rows.view(np.uint64))


def density_tail_reference(scales, P):
    """The two-term tail of prod_j J_0(s_j rho), summed in mpmath over all
    2^6 sign patterns at the working precision, with the library's
    (I_2, I_3) at each pattern's frequency, the exact sum of eps_j s_j
    rounded once, taken as exact.  Returns the value and the sum of the
    patterns' magnitudes, the scale of its rounding."""
    s = [mpmath.mpf(x) for x in scales]
    a = [-mpmath.mpf(1) / 8 if 0.125 <= x * P else 0 for x in scales]
    total = mag = 0
    for eps in itertools.product((1, -1), repeat=6):
        omega = float(sum(e * x for e, x in zip(eps, s)))
        i2, i3 = (complex(v[0]) for v in
                  exp_tail_integral(np.array([abs(omega)]), 2.0, P))
        if omega < 0:
            i2, i3 = i2.conjugate(), i3.conjugate()
        A = sum(e * x / y for e, x, y in zip(eps, a, s))
        term = (mpmath.exp(-1j * mpmath.pi / 4 * sum(eps))
                * (mpmath.mpc(i2) + 1j * A * mpmath.mpc(i3)))
        total += term
        mag += abs(term)
    pref = (2 / mpmath.pi) ** 3 / mpmath.sqrt(mpmath.fprod(s)) / 64
    return pref * total.real, pref * mag


@pytest.mark.parametrize("P,radii", [(200.0, (0.2, 1.0, 2.5, 4.9)),
                                     (1600.0, (0.03, 0.05, 0.08, 0.12))])
def test_density_tails_against_mpmath(P, radii):
    # the density buckets' J_0(rho)^5 J_0(r rho) tails, at P = 200 and at
    # the small-radius anchors' P = 1600, against a 40-digit sum over all
    # 64 sign patterns: within 6e-16 of the patterns' summed magnitude
    # (measured at most 3.0e-16, and 3.4e-16 by the pattern sums they
    # replace); dropping any one class is off by orders more
    scales = np.ones((len(radii), 6))
    scales[:, 5] = radii
    got = bessel_product_tail(np.zeros(6, dtype=int), P, scales)
    with mpmath.workdps(40):
        for value, row in zip(got, scales):
            ref, mag = density_tail_reference(row, P)
            assert abs(mpmath.mpf(value) - ref) < 6e-16 * mag, row


def test_bessel_product_tail_integrates_each_frequency_once(monkeypatch):
    # exp_tail_integral sees each distinct |omega| of a call once, none
    # negative (I(-omega) = conj I(omega)): for every key at N = 8 only
    # the class frequencies 0, 2, 4, 6 of six unit-scale factors
    calls = []
    real = tscircle.bessel.exp_tail_integral

    def spy(omega, nu, P):
        calls.append(np.array(omega, dtype=float))
        return real(omega, nu, P)

    monkeypatch.setattr(tscircle.bessel, "exp_tail_integral", spy)
    bessel_product_tail(enumerate_keys(8), 200.0)
    assert len(calls) == 1 and set(calls[0].tolist()) <= {0.0, 2.0, 4.0, 6.0}
    scales = np.ones((9, 6))
    scales[:, 5] = np.linspace(0.2, 5.0, 9)
    bessel_product_tail(np.zeros(6, dtype=int), 200.0, scales)
    assert len(calls) == 2
    for omega in calls:
        assert np.all(omega >= 0.0) and np.unique(omega).size == omega.size


def test_tensor_keeps_storage_order_and_sorts_any_other(monkeypatch):
    # keys in storage order are taken as they come (copied, so the
    # caller's arrays are not frozen); a shuffled set is sorted into the
    # same tensor, bit for bit
    keys = enumerate_keys(4)
    vals, errs = np.arange(len(keys)) / 7.0, np.arange(len(keys)) / 9.0
    sorts = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: sorts.append(1) or real(k))
    stored = BesselTensor(4, 200.0, keys, vals, errs)
    assert not sorts
    assert vals.flags.writeable and not np.shares_memory(vals, stored.values)
    perm = np.random.default_rng(5).permutation(len(keys))
    shuffled = BesselTensor(4, 200.0, keys[perm], vals[perm], errs[perm])
    assert len(sorts) == 1
    for t in (stored, shuffled):
        assert np.array_equal(t.keys, keys)
        assert np.array_equal(t.values.view(np.uint64), vals.view(np.uint64))
        assert np.array_equal(t.errors.view(np.uint64), errs.view(np.uint64))
        assert np.array_equal(t._codes, stored._codes)


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
    assert len(enumerate_keys(8)) == 5731


def test_enumerate_keys_in_storage_order():
    # sorted rows, strictly increasing lexicographically: unique, and in
    # the order BesselTensor stores them
    keys = enumerate_keys(8)
    assert np.all(np.diff(keys, axis=1) >= 0)
    step = np.diff(keys, axis=0)
    lead = (step != 0).argmax(axis=1)
    assert np.all(step[np.arange(len(step)), lead] > 0)


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


def test_j_matrix_rows_do_not_depend_on_history():
    # a row depends on the grid and its order alone: growing the cache past
    # the base order (294 at P = 200) adds rows and moves none
    fresh = RadialGrid(200.0)
    grown = RadialGrid(200.0)
    grown.j_matrix(400)
    assert np.array_equal(fresh.j_matrix(80), grown.j_matrix(80))
    assert np.array_equal(fresh.j_matrix(330)[295:], grown.j_matrix(330)[295:])
    assert np.array_equal(fresh.j_matrix(400), grown.j_matrix(400))


def test_j_matrix_below_the_cached_order_runs_no_miller_work(monkeypatch):
    # once rows 0..n exist, j_matrix(k <= n) is a slice of them: neither the
    # start order nor a Miller block is computed again
    import tscircle.bessel as bessel
    grid = RadialGrid(100.0)
    rows = grid.j_matrix(40).copy()
    calls = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name in ("_miller_start", "_miller_block"):
        monkeypatch.setattr(bessel, name, counting(name, getattr(bessel, name)))
    for n in (0, 7, 40, 40):
        assert np.array_equal(grid.j_matrix(n), rows[:n + 1])
    assert calls == []
    grid.j_matrix(41)                     # growing still runs Miller
    assert "_miller_block" in calls


@pytest.mark.parametrize("cutoff", [1600.0, 25600.0])
def test_j_matrix_rows_against_mpmath(cutoff):
    # forward rows from the Hankel J_0, J_1 and the Miller rows they meet
    # (order rho/2 -> rho/2 + 1), sampled at nodes rho >= 30, hold to 1e-14
    # of the envelope sqrt(2/(pi rho)) at both ends of the range of cutoffs
    grid = RadialGrid(cutoff)
    rows = grid.j_matrix(64)
    rho = grid.nodes
    first = int(np.searchsorted(rho, 30.0))
    near = np.arange(first, np.searchsorted(rho, 140.0), 37)
    far = np.linspace(near[-1], rho.size - 1, 12).astype(int)
    worst = 0.0
    with mpmath.workdps(30):
        for k in np.concatenate([near, far]):
            half = int(rho[k] // 2)
            for n in {0, 1, 17, 64, half, half + 1} & set(range(65)):
                ref = float(mpmath.besselj(n, mpmath.mpf(float(rho[k]))))
                env = np.sqrt(2.0 / (np.pi * rho[k]))
                worst = max(worst, abs(rows[n, k] - ref) / env)
    assert worst < 1e-14


def test_j_matrix_rows_where_regimes_meet_do_not_depend_on_history():
    # at P = 1600 the forward and Miller regimes meet inside every row
    # block up to order 400; growing 0 -> 64 -> 400 moves no row
    fresh = RadialGrid(1600.0)
    grown = RadialGrid(1600.0)
    grown.j_matrix(64)
    grown.j_matrix(400)
    assert np.array_equal(fresh.j_matrix(400), grown.j_matrix(400))


def test_j_matrix_at_large_cutoff_keeps_miller_to_small_nodes(monkeypatch):
    # the cost guard: rows 0..64 at P = 12,800 hand Miller only the nodes
    # below a few hundred, so a cold grid costs O(nmax K) rather than O(P K)
    import tscircle.bessel as bessel
    seen = []
    real = bessel._miller_block

    def recording(nmax, rho, nmin=0):
        seen.append((nmax, float(np.max(rho)), rho.size))
        return real(nmax, rho, nmin)

    monkeypatch.setattr(bessel, "_miller_block", recording)
    grid = RadialGrid(12800.0)
    grid.j_matrix(64)
    assert seen
    assert max(nmax for nmax, _, _ in seen) < 2 * RadialGrid.ROW_BLOCK
    assert max(top for _, top, _ in seen) < 300.0
    assert sum(size for _, _, size in seen) < 0.05 * grid.nodes.size
