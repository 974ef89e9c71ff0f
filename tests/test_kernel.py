"""The blocked polar kernel against the whole-array assembly.

The reference synthesizes each field on all K x J samples at once, forms
the product field, takes its FFT and sums it radially against the signed
rows J_m = (-1)^m J_|m| of all 2M+1 modes times the radial weights, and
adds the closed-form integral of each FFT mode of the product's tail times
J_m's signed two-term tail, formed as their dual product: the assembly as
it was before expressions were evaluated block by block and read the
unweighted rows by order |m|.  The kernel, given J_0..J_M and their tails
as its measure, its modes m < 0 signed by (-1)^m, must
give the same integrals for every expression the package assembles, for
every block height, on either side of its crossover (each block summed
radially first and its modes read once at the end, or each block's modes
taken by FFT), and on half the angles when its inputs are real.  The tail
part, far below the head, is also checked alone.
"""

import numpy as np
import pytest

import tscircle.extension
from tscircle import (TAU, constant_function, default_grid, l6_norm,
                      random_function)
from tscircle.errors import GridSizeError
from tscircle.extension import (ExtensionField, _polar_reduce, _tail_rows,
                                _tail_weights, angle_count, bessel_tail,
                                extend, hpoly_mul)
from tscircle.quintic import _abs2, _product, _self_product
from tscircle.solver import _linear_field, _nonlinear_field


def parity(M):
    """The signs s_m of J_m = s_m J_|m|, m = -M..M."""
    m = np.arange(-M, M + 1)
    return np.where((m < 0) & (m % 2 != 0), -1.0, 1.0)


def radial_rows(grid, M):
    """sign-corrected J_|m| rows times the radial weights, (2M+1, K)."""
    m = np.arange(-M, M + 1)
    rows = grid.j_matrix(M)[np.abs(m)] * parity(M)[:, None]
    return rows * (grid.weights * grid.nodes)


def one_product(expr, *values):
    """The one product the field expression yields over readers of
    `values`."""
    [product] = expr(*(lambda v=v: v for v in values))
    return product


def reference(expr, fields, M, head=1.0, tail=1.0):
    """The expression's product of the whole samples, its FFT, the
    radial sum against the signed rows of modes -M..M times the radial
    weights; plus, for each mode m, the closed-form tail integral of the
    dual product of J_m's two-term tail with the FFT mode m of the product
    tail, sum W hpoly_mul(A_m, S_m); each part scaled by `head` and `tail`
    (0 drops it)."""
    J = fields[0].n_angles
    grid = fields[0].grid
    m = np.arange(-M, M + 1)
    keep = np.mod(m, J)
    values = one_product(expr, *(F.rows(0, grid.nodes.size) for F in fields))
    modes = (np.fft.fft(values, axis=1) / J)[:, keep]
    quad = np.einsum("km,mk->m", modes, head * radial_rows(grid, M))
    ends = one_product(expr, *(F.tail for F in fields)).poly
    S = (np.fft.fft(ends, axis=0) / J)[keep]              # (2M+1, 2, 13)
    A = parity(M)[:, None, None] * bessel_tail(m, grid.cutoff)
    beyond = np.sum(hpoly_mul(A, S) * _tail_weights(grid.cutoff),
                    axis=(-2, -1))
    return quad + tail * beyond


def kernel(expr, fields, M, head=1.0, tail=1.0):
    """The kernel on the unweighted rows J_0..J_M and their two-term tails,
    each scaled by `head` and `tail`, its modes m < 0 signed by s_m: mode
    m reads order |m|, so row p is the reference's signed integral of the
    p-th product."""
    grid = fields[0].grid
    A = _tail_rows(M, grid.cutoff).reshape(M + 1, 2, -1)
    return parity(M) * _polar_reduce(expr, fields, M, head * grid.j_matrix(M),
                                     tail * A)


def assert_matches(expr, fields, M, rel=1e-13):
    for head in (1.0, 0.0):               # the whole integral, the tail alone
        got = kernel(expr, fields, M, head=head)[0]
        want = reference(expr, fields, M, head=head)
        assert got.shape == want.shape == (2 * M + 1,)
        assert np.max(np.abs(want)) > 0
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def high_tail(n_lo, n_hi, seed):
    f = random_function(n_hi, seed=seed, decay=0.7)
    return f - f.truncated(n_lo)


PHI = random_function(4, seed=41, decay=0.9)
H = high_tail(4, 16, seed=42)
F16 = random_function(16, seed=8, decay=0.8)
FIVE = [random_function(4, seed=10 + i, decay=0.75) for i in range(5)]

# name -> (expression, inputs, bandwidth of the expression)
CASES = {
    "el_quintic": (_self_product, [F16], 80),
    "nonlinear": (_nonlinear_field, [PHI, H], 80),
    "linear": (_linear_field, [PHI, H], 32),
    "five_inputs": (_product, FIVE, 20),
}


@pytest.mark.parametrize("seven_rows", [False, True],
                         ids=["module block height", "7-row blocks"])
@pytest.mark.parametrize("M", ["N", 16, 0])
@pytest.mark.parametrize("name", list(CASES))
def test_kernel_matches_whole_array_assembly(name, M, seven_rows, monkeypatch):
    # every case ends on a short block: the product grid's K = 704 nodes
    # are a multiple neither of 7 rows nor of the module's block height at
    # J = 66, 82, 98 and 162 (62, 49, 41 and 25 rows), but fill 11 blocks
    # of 64 rows at J = 64, which therefore runs on the refined grid's
    # K = 1376 nodes
    expr, inputs, bandwidth = CASES[name]
    M = bandwidth if M == "N" else M
    J = angle_count(bandwidth, M)
    height = tscircle.extension.BLOCK_SAMPLES // J
    if seven_rows:
        height = 7
        monkeypatch.setattr(tscircle.extension, "BLOCK_SAMPLES", 7 * J)
    grid = default_grid().refine() if J == 64 else default_grid()
    assert grid.nodes.size % height
    fields = [extend(f, grid, J) for f in inputs]
    assert_matches(expr, fields, M)


@pytest.mark.parametrize("M", ["N", 16, 0])
@pytest.mark.parametrize("name", list(CASES))
def test_default_measure_is_j_rows_and_their_tails(name, M):
    # with no measure given the kernel integrates against J_0..J_M: the
    # grid's rows and their two-term tails, bit for bit
    expr, inputs, bandwidth = CASES[name]
    M = bandwidth if M == "N" else M
    fields = [extend(f, n_angles=angle_count(bandwidth, M)) for f in inputs]
    grid = fields[0].grid
    explicit = _polar_reduce(expr, fields, M, grid.j_matrix(M),
                             _tail_rows(M, grid.cutoff).reshape(M + 1, 2, -1))
    assert np.array_equal(_polar_reduce(expr, fields, M), explicit)


@pytest.mark.parametrize("seed", [0, 1])
def test_l6_norm_is_the_head_plus_the_tail_sum(seed):
    # the sixth-power mass against the constant measure 1: the angular
    # mean of |F|^6 summed against rho w on the nodes, plus the weights W
    # of the closed-form tail integral on the angular mean of F^3 conj(F^3)'s
    # tail phase samples
    field = extend(random_function(6, seed=seed, decay=0.8))
    grid = field.grid
    F = field.rows(0, grid.nodes.size)
    head = np.mean(np.abs(F) ** 6, axis=1) @ (grid.weights * grid.nodes)
    T = field.tail * field.tail * field.tail
    tail = np.sum(np.mean((T * T.conj()).poly, axis=0)
                  * _tail_weights(grid.cutoff)).real
    want = (TAU * (head + tail)) ** (1.0 / 6.0)
    assert tail > 0
    assert abs(l6_norm(field) - want) <= 1e-14 * want


# the crossover at its two extremes: every block summed radially first, or
# every block's modes taken by FFT
PATHS = {"radial first": 10 ** 6, "fft per block": 0}


@pytest.mark.parametrize("M", ["N", 16, 0])
@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("path", list(PATHS))
def test_each_reduction_path_matches_whole_array_assembly(path, name, M,
                                                          monkeypatch):
    monkeypatch.setattr(tscircle.extension, "DIRECT_ANALYSIS_MODES",
                        PATHS[path])
    expr, inputs, bandwidth = CASES[name]
    M = bandwidth if M == "N" else M
    J = angle_count(bandwidth, M)
    assert_matches(expr, [extend(f, n_angles=J) for f in inputs], M)


@pytest.mark.parametrize("N", [26, 30])
def test_fft_lengths_above_the_crossover_match_whole_array_assembly(N):
    # the full band of el_quintic past DIRECT_ANALYSIS_MODES modes takes
    # each block's modes by FFT on 270 and 320 angles, not on the exact
    # bound's 262 = 2 * 131 and 302 = 2 * 151: the reference's integrals,
    # and those on the exact bound's angles to rounding
    f = random_function(N, seed=N, decay=0.8)
    M = 5 * N
    J = angle_count(M)
    assert 2 * M + 1 > tscircle.extension.DIRECT_ANALYSIS_MODES
    assert J == {26: 270, 30: 320}[N]
    fields = [extend(f, n_angles=J)]
    assert_matches(_self_product, fields, M)
    exact = kernel(_self_product, [extend(f, n_angles=2 * M + 2)], M)
    got = kernel(_self_product, fields, M)
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("path", list(PATHS))
def test_each_reduction_path_on_mixed_bandwidths_and_half_angles(
        path, monkeypatch):
    monkeypatch.setattr(tscircle.extension, "DIRECT_ANALYSIS_MODES",
                        PATHS[path])
    fs = [F16] + [constant_function(0.5 + 0.25 * j) for j in range(4)]
    for M in (16, 0):
        J = angle_count(16, M)
        assert_matches(_product, [extend(f, n_angles=J) for f in fs], M)
    seen = spy_rows(monkeypatch)
    gs = [_abs2(random_function(8, seed=i, decay=0.6)) for i in range(5)]
    fields = [extend(g, n_angles=88) for g in gs]
    quad = kernel(_product, fields, 0, tail=0.0)[0]
    assert seen and all(seen)
    ref = reference(_product, fields, 0, tail=0.0)
    assert quad[0].imag == 0.0
    assert abs(quad[0] - ref[0]) <= 1e-13 * abs(ref[0])
    assert_matches(_product, fields, 0)


def test_kernel_mixed_bandwidths():
    # one band-16 input among constants: 64 angles for modes 16 and 0 of the
    # band-16 product, and of the band-32 product of the |g|^2 at mode 0,
    # whose band-16 factor has more modes (65) than angles
    fs = [F16] + [constant_function(0.5 + 0.25 * j) for j in range(4)]
    for M in (16, 0):
        J = angle_count(16, M)
        assert_matches(_product, [extend(f, n_angles=J) for f in fs], M)
    J = angle_count(32, 0)
    assert J == 64
    assert_matches(_product, [extend(_abs2(f), n_angles=J) for f in fs], 0)


def spy_rows(monkeypatch):
    """Record the `half` argument of every sample block the kernel reads."""
    seen = []
    real = ExtensionField.rows

    def rows(self, lo, hi, half=False):
        seen.append(half)
        return real(self, lo, hi, half)

    monkeypatch.setattr(ExtensionField, "rows", rows)
    return seen


def test_half_angles_match_full_angles_on_real_inputs(monkeypatch):
    # mode 0 of a product of real |g|^2 fields from J/2 angles
    # equals the full-angle FFT route's mode 0 to rounding
    seen = spy_rows(monkeypatch)
    for seed in (0, 5, 10):
        gs = [_abs2(random_function(8, seed=seed + i, decay=0.6))
              for i in range(5)]
        fields = [extend(g, n_angles=88) for g in gs]
        assert all(F.table.shape[1] == 2 * 44 for F in fields)
        seen.clear()
        quad = kernel(_product, fields, 0, tail=0.0)[0]
        assert seen and all(seen)
        ref = reference(_product, fields, 0, tail=0.0)
        assert abs(quad[0].imag) == 0.0
        assert abs(quad[0] - ref[0]) <= 1e-14 * abs(ref[0])


def test_non_symmetric_input_never_takes_half_angles(monkeypatch):
    seen = spy_rows(monkeypatch)
    gs = [_abs2(random_function(8, seed=20 + i, decay=0.6)) for i in range(5)]
    fields = [extend(g, n_angles=88) for g in gs]
    # one complex input among real ones
    mixed = fields[:4] + [extend(random_function(16, seed=3), n_angles=88)]
    # a complex scalar breaks the symmetry of a product of real inputs
    def rotated(*read):
        yield 1j * next(_product(*read))

    # an odd J keeps every angle of a real input
    odd = [extend(g, n_angles=89) for g in gs]
    for expr, fs in ((_product, mixed), (rotated, fields), (_product, odd)):
        seen.clear()
        quad = kernel(expr, fs, 0)[0]
        assert seen and not any(seen)
        ref = reference(expr, fs, 0)
        assert abs(quad[0] - ref[0]) <= 1e-13 * abs(ref[0])
    # the same real inputs at M = 1 read every angle too
    seen.clear()
    kernel(_product, fields, 1)
    assert seen and not any(seen)


# one pass of several products: each product alone, as an expression of
# one product over the same four fields, and the expression that yields
# them all from shared reads (A read twice, D never read)
def alone(product):
    """The expression that reads every field once and yields `product` of
    the values."""
    def expr(*read):
        yield product(*(r() for r in read))
    return expr


ALONE = (alone(lambda A, B, C, D: A * B * C),
         alone(lambda A, B, C, D: A * A.conj() * B),
         alone(lambda A, B, C, D: (B * B).conj()))


def shared(A, B, C, D):
    a, b = A(), B()
    yield a * b * C()
    yield a * A().conj() * b
    yield (b * b).conj()


FOUR = [random_function(4, seed=70 + i, decay=0.75) for i in range(4)]
INPUTS = {"complex": FOUR, "real |g|^2": [_abs2(f) for f in FOUR]}


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("inputs", list(INPUTS))
@pytest.mark.parametrize("M", [0, 16])
def test_multi_product_pass_matches_each_product_alone(M, inputs, path,
                                                       monkeypatch):
    monkeypatch.setattr(tscircle.extension, "DIRECT_ANALYSIS_MODES",
                        PATHS[path])
    seen = spy_rows(monkeypatch)
    fs = INPUTS[inputs]
    J = angle_count(3 * max(f.N for f in fs), M)
    fields = [extend(f, n_angles=J) for f in fs]
    for head in (1.0, 0.0):               # the whole integral, the tail alone
        got = kernel(shared, fields, M, head=head)
        assert got.shape == (len(ALONE), 2 * M + 1)
        for p, single in enumerate(ALONE):
            want = kernel(single, fields, M, head=head)[0]
            assert np.max(np.abs(want)) > 0
            gap = np.max(np.abs(got[p] - want))
            assert gap <= 1e-15 * np.max(np.abs(want))
    # real inputs read mode 0 on half the angles, in one pass as alone
    assert all(seen) == (M == 0 and inputs != "complex")


def test_multi_product_pass_refuses_aliased_modes():
    # the aliasing bound is that of the widest product: 64 angles carry
    # modes |m| <= 51 of the bandwidth-12 products, not 52
    fields = [extend(f, n_angles=64) for f in FOUR]
    assert kernel(shared, fields, 51).shape == (3, 103)
    with pytest.raises(GridSizeError):
        kernel(shared, fields, 52)
