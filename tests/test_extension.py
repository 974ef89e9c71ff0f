"""Extension operator: field synthesis, sixth-power norm, decay envelope.

Field values are checked against the plain mode sum evaluated with scipy
Bessel functions at arbitrary points, and the L^6 norm against closed
forms at the constant function.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.special as sps
import sympy

from tscircle import (
    TAU,
    CircleFunction,
    constant_function,
    conjugate_reflect,
    decay_check,
    extend,
    l6_norm,
    random_function,
    ts_functional,
)
import tscircle.extension
from tscircle.bessel import (default_grid, exp_tail_integral,
                             first_order_coeff, parity_sign)
from tscircle.extension import (TAIL_PHASES, _analyze, _bandwidth,
                                _j_tail_measure, _phase_table, _polar_fields,
                                _sixth_power, _tail_weights, angle_count,
                                bessel_tail, hpoly_mul, i_pow)
from tscircle.quintic import (_bound_chain, _product, _self_product,
                              el_quintic)
from tscircle.solver import _linear_field, _nonlinear_field


def field_oracle(f, rho, phi):
    """2 pi sum_n (-i)^n c_n J_n(rho) e^{i n phi} via scipy, signed orders."""
    acc = 0.0 + 0.0j
    for n in range(-f.N, f.N + 1):
        acc += (-1j) ** n * f.coeff(n) * sps.jv(n, rho) * np.exp(1j * n * phi)
    return TAU * acc


def samples(field):
    """The field on every node and on the angles j 2 pi / J, (K, J)."""
    return field.rows(0, field.grid.nodes.size)


def angle(field, j):
    return j * (TAU / field.n_angles)


def test_field_matches_mode_sum():
    f = random_function(6, seed=0, decay=0.8)
    field = extend(f)
    values = samples(field)
    rng = np.random.default_rng(3)
    # sample exact grid points of the field
    for _ in range(40):
        i = rng.integers(0, field.grid.nodes.size)
        j = rng.integers(0, field.n_angles)
        rho = field.grid.nodes[i]
        phi = angle(field, j)
        assert abs(values[i, j] - field_oracle(f, rho, phi)) < 1e-10


def test_constant_field_is_j0():
    field = extend(constant_function(1.0))
    values = samples(field)
    rho = field.grid.nodes
    np.testing.assert_allclose(values[:, 0], TAU * sps.jv(0, rho),
                               rtol=0, atol=1e-12)
    # radially symmetric
    spread = np.max(np.abs(values - values[:, :1]))
    assert spread < 1e-12
    assert abs(field.origin_value - TAU) < 1e-14


def test_origin_value_is_mean():
    f = random_function(5, seed=1, decay=0.9)
    field = extend(f)
    assert abs(field.origin_value - TAU * f.coeff(0)) < 1e-14


def test_extension_of_conjugate_reflection_is_conjugate_field():
    # the field of f~ is the complex conjugate of the field of f, pointwise
    # and in its large-rho tail
    f = random_function(5, seed=2, decay=0.85)
    a = extend(conjugate_reflect(f))
    b = extend(f)
    np.testing.assert_allclose(samples(a), np.conj(samples(b)), atol=1e-12)
    np.testing.assert_allclose(a.tail.poly, b.tail.conj().poly, atol=1e-12)


T0_REF = 0.336827961766468  # independent head+tail reference, see test_bessel


def test_l6_norm_constant_against_reference():
    # ||2 pi J_0||_6^6 = (2 pi)^7 T0 by radial symmetry
    field = extend(constant_function(1.0))
    assert type(l6_norm(field)) is float       # JSON-serializable as is
    got = l6_norm(field) ** 6
    ref = TAU ** 7 * T0_REF
    assert abs(got - ref) / ref < 1e-8


def test_l6_norm_sixth_power_identity():
    # two independent routes: 2-d quadrature of |F|^6 vs the coefficient
    # pairing <Q, f>
    for seed in range(3):
        f = random_function(7, seed=seed, decay=0.8)
        phi = ts_functional(f)
        got = l6_norm(extend(f)) ** 6 / TAU ** 2
        assert abs(got - phi) / phi < 1e-9


def test_l6_scaling():
    f = random_function(4, seed=3, decay=0.9)
    a = l6_norm(extend(2.0 * f))
    b = l6_norm(extend(f))
    assert abs(a - 2.0 * b) < 1e-10 * abs(b)


def test_decay_envelope_constant():
    # |2 pi J_0(rho)| sqrt(rho) -> 2 pi sqrt(2/pi); envelope = sup/(2 pi)
    rep = decay_check(extend(constant_function(1.0)))
    assert rep.envelope == pytest.approx(np.sqrt(2.0 / np.pi), abs=2e-4)
    assert rep.sup == pytest.approx(TAU * np.sqrt(2.0 / np.pi), abs=2e-3)


def test_decay_envelope_scales_with_l2_mass():
    f = random_function(6, seed=5, decay=0.8)
    r1 = decay_check(extend(f))
    r2 = decay_check(extend(3.0 * f))
    assert r2.sup == pytest.approx(3.0 * r1.sup, rel=1e-12)


def test_angle_count_grows_with_bandwidth():
    # the argument is the bandwidth of the product field to resolve
    assert angle_count(0) == 64
    assert angle_count(5 * 16) == 162
    assert angle_count(5 * 16) > 2 * 5 * 16  # enough for quintic products
    # J > M + M_out: the modes a caller reads set the count, not 2M alone
    assert angle_count(80) == 162
    assert angle_count(80, 16) == 98
    assert angle_count(80, 0) == 82
    # above DIRECT_ANALYSIS_MODES read modes J is each block's FFT length,
    # made of the factors 2, 3 and 5: 262 = 2 * 131 -> 270, 302 -> 320,
    # 642 = 2 * 3 * 107 -> 648; 241 read modes keep the exact bound
    assert angle_count(130) == 270
    assert angle_count(150) == 320
    assert angle_count(320) == 648
    assert angle_count(320, 16) == 338
    assert angle_count(320, 0) == 322
    assert angle_count(125, 120) == 246

    def five_smooth(n):
        return all(p <= 5 for p in sympy.primefactors(n))

    # the smallest even J above M + M_out, 64 at least, and above the
    # crossover the smallest such J that is also 5-smooth
    for M in range(0, 400, 3):
        for M_out in range(0, M + 1, 5):
            J = angle_count(M, M_out)
            assert J % 2 == 0 and J > M + M_out and J >= 64
            if 2 * M_out + 1 <= tscircle.extension.DIRECT_ANALYSIS_MODES:
                assert J == 64 or J - 2 <= M + M_out
            else:
                assert five_smooth(J)
                assert not any(five_smooth(j)
                               for j in range(M + M_out + 1, J) if j % 2 == 0)


def test_angular_analysis_paths_agree(monkeypatch):
    # the analysis table and the FFT read the modes of a synthesis on 64
    # angles
    rng = np.random.default_rng(6)
    modes = rng.standard_normal((3, 41)) + 1j * rng.standard_normal((3, 41))
    phi = np.arange(64) * (TAU / 64)
    values = modes @ np.exp(1j * np.outer(np.arange(-20, 21), phi))
    results = []
    for limit in (10 ** 6, 0):
        monkeypatch.setattr(tscircle.extension, "DIRECT_ANALYSIS_MODES", limit)
        results.append(_analyze(values, 20))
    np.testing.assert_allclose(results[0], results[1], rtol=0, atol=1e-13)
    np.testing.assert_allclose(results[0], modes, rtol=0, atol=1e-13)


def test_symmetric_input_keeps_half_the_angles():
    # c_{-n} = conj c_n gives F(rho, phi + pi) = conj F(rho, phi): the field
    # keeps J/2 angles and the rest are their conjugates; n_angles is J
    f = random_function(6, seed=4, decay=0.8)
    real = CircleFunction(0.5 * (f.coeffs + np.conj(f.coeffs[::-1])))
    field = extend(real, n_angles=40)
    K = field.grid.nodes.size
    assert field.tail.symmetric and field.n_angles == 40
    assert field.table.shape == (7, 2 * 20)
    assert field.rows(0, K, half=True).shape == (K, 20)
    values = samples(field)
    assert values.shape == (K, 40)
    rng = np.random.default_rng(8)
    for _ in range(20):
        i = rng.integers(0, K)
        j = rng.integers(0, 40)
        rho, phi = field.grid.nodes[i], angle(field, j)
        assert abs(values[i, j] - field_oracle(real, rho, phi)) < 1e-10
    # odd J or a non-symmetric input keep every angle
    assert not extend(real, n_angles=41).tail.symmetric
    assert extend(f, n_angles=40).rows(0, K, half=True).shape == (K, 40)


def whole_synthesis(field):
    """All K x J' samples from one matmul of every Bessel row."""
    jm = field.grid.j_matrix(field.N)
    return (jm.T @ field.table).view(np.complex128)


@pytest.mark.parametrize("J", [88, 89])
@pytest.mark.parametrize("symmetric", [True, False])
def test_row_blocks_are_the_whole_synthesis(J, symmetric):
    # K = 704 nodes in 7-row blocks (a 4-row block last), and in blocks of
    # one and two rows at both ends: each equals its rows of one
    # whole-array synthesis bit for bit.  (That needs the BLAS to run one
    # kernel on a block and on the whole array; OpenBLAS 0.3.31 does for
    # tables of at most 192 real columns, as here.)
    f = random_function(8, seed=12, decay=0.8)
    if symmetric:
        f = CircleFunction(0.5 * (f.coeffs + np.conj(f.coeffs[::-1])))
    field = extend(f, n_angles=J)
    assert field.tail.symmetric == (symmetric and J % 2 == 0)
    whole = whole_synthesis(field)
    K = whole.shape[0]
    blocks = np.concatenate([field.rows(lo, min(lo + 7, K), half=True)
                             for lo in range(0, K, 7)])
    assert np.array_equal(blocks, whole)
    for lo, hi in ((0, 1), (1, 2), (0, 2), (K - 1, K), (K - 2, K), (5, 6)):
        assert np.array_equal(field.rows(lo, hi, half=True), whole[lo:hi])
    full = field.rows(0, K)
    if field.tail.symmetric:
        assert np.array_equal(full, np.concatenate([whole, np.conj(whole)], 1))
    else:
        assert np.array_equal(full, whole)


def test_field_holds_no_samples():
    # the field of a band-16 input at J = 168 is its folded (17, 168)
    # complex table, 46 KB: no K x J (704 x 168, 1.9 MB) array is made
    f = random_function(16, seed=13, decay=0.8)
    extend(f, n_angles=168)               # warm the phase and Bessel tables
    tracemalloc.start()
    try:
        field = extend(f, n_angles=168)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert field.table.shape == (17, 2 * 168)
    K, J = field.grid.nodes.size, field.n_angles
    assert all(np.shape(v) != (K, J) for v in vars(field).values())


def hpoly_mul_loop(A, B):
    """The plain triple loop over slots i, j and orders (q, r)."""
    J, na, _ = A.shape
    nb = B.shape[1]
    C = np.zeros((J, na + nb - 1, 2), dtype=np.complex128)
    for i in range(na):
        for j in range(nb):
            for q, r in ((0, 0), (0, 1), (1, 0)):
                C[:, i + j, q + r] += A[:, i, q] * B[:, j, r]
    return C


def phase_samples(T):
    """The reference map from a (..., 2k+1, 2) tail polynomial, the
    coefficients of e^{ik rho} rho^-p, to its (..., 2, TAIL_PHASES) values
    at e^{i rho} = z_l."""
    table = _phase_table((T.shape[-2] - 1) // 2, TAIL_PHASES, TAIL_PHASES)
    return np.swapaxes(T, -1, -2) @ table


def tail_model(S, rho):
    """sqrt(2/(pi rho)) sum_p sum_{k=+-1} T[..., p, k] e^{ik rho} rho^-p,
    the T[..., p, k] read from (..., 2, TAIL_PHASES) phase samples S by
    the inverse transform, z_l^{-k}/13; a trailing rho axis."""
    k = np.array([-1, 1])
    l = np.arange(TAIL_PHASES)
    T = S @ np.exp((-1j * TAU / TAIL_PHASES) * np.outer(l, k)) / TAIL_PHASES
    waves = T @ np.exp(1j * np.outer(k, rho))                  # (..., 2, R)
    return np.sqrt(2.0 / (np.pi * rho)) * (waves[..., 0, :]
                                           + waves[..., 1, :] / rho)


def next_hankel_term(n):
    """|b_n| = |(mu - 1)(mu - 9)|/128, mu = 4 n^2: the coefficient of the
    first term the two-term model drops."""
    mu = 4.0 * np.asarray(n, dtype=float) ** 2
    return np.abs((mu - 1.0) * (mu - 9.0) / 128.0)


def random_poly(rng, slots, lead=16):
    """A random (lead, slots, 2) coefficient tail polynomial."""
    shape = (lead, slots, 2)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_hpoly_mul_is_the_triple_loop_in_phase_samples():
    # the pointwise dual product of phase samples is the coefficient
    # product of the plain loop, mapped to phases
    rng = np.random.default_rng(9)
    for na, nb in ((3, 3), (5, 3), (3, 9), (7, 5), (3, 11)):
        A, B = random_poly(rng, na), random_poly(rng, nb)
        want = phase_samples(hpoly_mul_loop(A, B))
        got = hpoly_mul(phase_samples(A), phase_samples(B))
        assert got.shape == (16, 2, TAIL_PHASES)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_conj_of_phase_samples_is_the_conjugate_polynomial():
    # conj of sum_k T_k e^{ik rho} is sum_k conj(T_-k) e^{ik rho}: the k
    # axis flips; on |z_l| = 1 that is the conjugate of the samples
    rng = np.random.default_rng(10)
    for slots in (3, 7, 13):
        A = random_poly(rng, slots)
        want = phase_samples(np.conj(A[:, ::-1, :]))
        got = np.conj(phase_samples(A))
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def tail_integral_of_coefficients(T, P):
    """(2/pi)^3 sum_k T_k0 I_2(k) + T_k1 I_3(k) over k = -6..6 of a
    (..., 13, 2) six-factor tail polynomial, and the same sum of the
    magnitudes, its rounding scale."""
    i2, i3 = exp_tail_integral(np.arange(-6, 7), 2.0, P)
    c = (2.0 / np.pi) ** 3
    return (c * (T[..., 0] @ i2 + T[..., 1] @ i3),
            c * (np.abs(T[..., 0]) @ np.abs(i2) + np.abs(T[..., 1]) @ np.abs(i3)))


@pytest.mark.parametrize("P", [200.0, 800.0, 3200.0])
def test_tail_integral_is_the_coefficient_sum(P):
    # the weights take the phase samples of a degree-6 tail to the sum
    # over its coefficients
    rng = np.random.default_rng(int(P))
    T = random_poly(rng, 13, lead=5)
    want, scale = tail_integral_of_coefficients(T, P)
    got = np.sum(phase_samples(T) * _tail_weights(P), axis=(-2, -1))
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("P", [200.0, 3200.0])
def test_mode_tail_weights_are_the_product_with_j_m_then_the_sum(P):
    # the kernel's default tail measure, J_0..J_M's two-term tails folded
    # into weights on the phase samples of a degree-5 tail, those of order
    # |m| signed by (-1)^m, equals the plain loop product with J_m's tail,
    # then the coefficient sum; M = 24 reaches orders whose a_m is zeroed
    # at P = 200.  The scale is the sum of the magnitudes of the terms the
    # weights add.
    M = 24
    m = np.arange(-M, M + 1)
    sign = np.where((m < 0) & (m % 2 == 1), -1.0, 1.0)     # J_-n = (-1)^n J_n
    T = random_poly(np.random.default_rng(int(P) + 1), 11, lead=m.size)
    Jm = sign[:, None, None] * bessel_tail_coefficients(m, P)
    want, _ = tail_integral_of_coefficients(hpoly_mul_loop(T, Jm), P)
    S = phase_samples(T)
    weights = _j_tail_measure(M, P)
    assert weights.shape == (M + 1, 2, TAIL_PHASES)
    got = sign * np.sum(weights[np.abs(m)] * S, axis=(-2, -1))
    scale = np.sum(hpoly_mul(np.abs(bessel_tail(m, P)), np.abs(S))
                   * np.abs(_tail_weights(P)), axis=(-2, -1))
    assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_phases_fold_the_parity_sign_exactly():
    # the polar route reads J_|n| for modes +-n: i^m J_m = i^|m| J_|m| on
    # the output side, (-i)^n J_n = (-i)^|n| J_|n| on the input side
    n = np.arange(-400, 401)
    minus_i = np.array([1, -1j, -1, 1j])[np.mod(n, 4)]      # (-i)^n
    assert np.array_equal(i_pow(np.abs(n)), i_pow(n) * parity_sign(n))
    assert np.array_equal(i_pow(-np.abs(n)), minus_i * parity_sign(n))


def test_tail_weights_are_built_once_per_cutoff(monkeypatch):
    calls = []
    real = tscircle.extension.exp_tail_integral

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(tscircle.extension, "exp_tail_integral", counting)
    tscircle.extension._tail_weights.cache_clear()
    tscircle.extension._j_tail_measure.cache_clear()   # which holds them too
    f = random_function(3, seed=4, decay=0.8)
    for cutoff in (200.0, 200.0, 400.0, 200.0, 400.0):
        el_quintic(f, default_grid(cutoff))
    assert calls == [200.0, 400.0]


def test_tail_rows_are_built_once_per_bandwidth_and_cutoff(monkeypatch):
    # a field's tail synthesis (on each read of .tail) reads bessel_tail of
    # the orders 0..N, which depend on N and the cutoff alone, not on the
    # input or its angles
    calls = []
    real = tscircle.extension.bessel_tail

    def counting(n, P):
        calls.append((int(np.max(n)), P))
        return real(n, P)

    monkeypatch.setattr(tscircle.extension, "bessel_tail", counting)
    tscircle.extension._tail_rows.cache_clear()
    for seed, N, cutoff, J in ((1, 3, 200.0, 64), (2, 3, 200.0, 96),
                               (3, 3, 400.0, 64), (4, 5, 200.0, 64),
                               (5, 3, 200.0, 64), (6, 5, 200.0, 80),
                               (7, 3, 400.0, 72)):
        extend(random_function(N, seed=seed), default_grid(cutoff), J).tail
    assert calls == [(3, 200.0), (3, 400.0), (5, 200.0)]


def bessel_tail_coefficients(n, P):
    """The two-term model of J_|n| as a (..., 3, 2) coefficient polynomial,
    T[+-1] = (1/2) e^{-+i chi_n} (1, +-i a_n), with e^{-i chi_n} =
    (-i)^|n| e^{-i pi/4} exactly."""
    n = np.abs(np.asarray(n))
    T = np.zeros(n.shape + (3, 2), dtype=np.complex128)
    T[..., 2, 0] = 0.5 * i_pow(-n) * np.exp(-0.25j * np.pi)
    T[..., 2, 1] = T[..., 2, 0] * (1j * first_order_coeff(n, 1.0, P))
    T[..., 0, :] = np.conj(T[..., 2, :])
    return T


@pytest.mark.parametrize("P", [200.0, 3200.0])
def test_bessel_tail_samples_are_the_coefficient_model(P):
    # real samples, equal to the e^{+-i rho} coefficient model mapped to
    # phases; orders past n = 20 (P = 200) have a_n zeroed
    n = np.arange(81)
    got = bessel_tail(n, P)
    want = phase_samples(bessel_tail_coefficients(n, P))
    assert got.shape == (81, 2, TAIL_PHASES) and got.dtype == np.float64
    scale = np.abs(want).max(axis=-1, keepdims=True)      # 0 where a_n is
    assert np.all(np.abs(got - want) <= 1e-15 * scale)


@pytest.mark.parametrize("n", range(21))
def test_bessel_tail_within_the_next_hankel_term(n):
    # the two-term model misses J_n by about the next term of Hankel's
    # expansion, sqrt(2/(pi rho)) |b_n|/rho^2 (as in _tail_error_bound);
    # from n = 21 on a_n > P is zeroed and the model is off by more
    P = 200.0
    rho = np.linspace(P, 2 * P, 4001)
    model = tail_model(bessel_tail(n, P), rho)
    envelope = np.sqrt(2.0 / (np.pi * rho))
    bound = envelope * next_hankel_term(n) / rho ** 2
    assert np.all(np.abs(sps.jv(n, rho) - model.real) <= 1.01 * bound)
    assert np.all(np.abs(model.imag) <= 1e-15 * envelope)


@pytest.mark.parametrize("real", [True, False])
def test_field_tail_is_the_field_beyond_the_cutoff(real):
    # the model read from a field's tail samples (for a real input, half of
    # them conjugates) on its J angles and rho in [P, 2P] misses the field
    # by at most the summed next Hankel terms, 2 pi sum_n |c_n| times
    # sqrt(2/(pi rho)) |b_n|/rho^2
    f = random_function(8, seed=14, decay=0.8)
    if real:
        f = CircleFunction(0.5 * (f.coeffs + np.conj(f.coeffs[::-1])))
    field = extend(f)
    assert field.tail.symmetric == real
    P = field.grid.cutoff
    rho = np.linspace(P, 2 * P, 801)
    phi = angle(field, np.arange(field.n_angles))
    model = tail_model(field.tail.poly, rho)                   # (J, R)
    exact = field_oracle(f, rho[None, :], phi[:, None])
    n = np.arange(-f.N, f.N + 1)
    bound = (TAU * (np.abs(f.coeffs) @ next_hankel_term(n))
             * np.sqrt(2.0 / (np.pi * rho)) / rho ** 2)
    assert np.all(np.abs(model - exact) <= 1.01 * bound)


def chain_bandwidths(Ns, offsets):
    """The bandwidths of the bound chain's inputs for five inputs of
    bandwidths Ns: |f_j|^2, then per offset |rot f_j|^2 (j < 4) and
    |rot f_j - f_j|^2."""
    return tuple(2 * n for n in Ns) + offsets * tuple(
        2 * n for n in Ns[:4] + Ns)


# every field expression of the package, its inputs' bandwidths, and the
# product bandwidth its caller wrote out before the engine took it from the
# expression
EXPRESSION_BANDWIDTHS = [
    (_product, (3, 0, 5, 2, 7), 17),                           # sum N
    (_self_product, (9,), 45),                                 # 5N
    (_sixth_power, (7,), 42),                                  # 6N
    (_linear_field, (3, 8), max(5 * 3, 4 * 3 + 8)),
    (_linear_field, (8, 3), max(5 * 8, 4 * 8 + 3)),
    (_nonlinear_field, (3, 8), max((5 - k) * 3 + k * 8 for k in (2, 3, 4, 5))),
    (_nonlinear_field, (8, 3), max((5 - k) * 8 + k * 3 for k in (2, 3, 4, 5))),
    (_bound_chain, chain_bandwidths((1, 2, 0, 3, 1), 2), 2 * 7),   # 2 sum N
]


@pytest.mark.parametrize("expr, Ns, expected", EXPRESSION_BANDWIDTHS)
def test_engine_bandwidth_is_each_expressions_own(expr, Ns, expected):
    # the bandwidth pass over sample-free tails gives the largest N of the
    # expression's pass over real tails, and the formula its caller used
    fields = [extend(random_function(N, seed=700 + i), n_angles=64)
              for i, N in enumerate(Ns)]
    real = max(S.N for S in expr(*(lambda F=F: F.tail for F in fields)))
    assert _bandwidth(expr, Ns) == real == expected


def test_engine_picks_the_angles_and_extends_each_input_once(monkeypatch):
    # M clamps to the bandwidth (None: all modes), J = angle_count(
    # bandwidth, M), and an input in several slots is extended once
    calls = []
    real = tscircle.extension.extend

    def counting(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(tscircle.extension, "extend", counting)
    f, g = random_function(4, seed=710), random_function(6, seed=711)
    for M, M_used in ((None, 24), (30, 24), (5, 5), (0, 0)):
        calls.clear()
        fields, M_got = _polar_fields(_product, [f, g, f, f, g], M)
        assert M_got == M_used
        assert [F.n_angles for F in fields] == [angle_count(24, M_used)] * 5
        assert fields[0] is fields[2] is fields[3] and fields[1] is fields[4]
        assert calls == [f, g]
