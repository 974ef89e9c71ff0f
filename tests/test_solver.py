"""Ascent to the quotient maximum and the local fixed-point laboratory."""

import operator
import warnings
from functools import reduce
from math import comb

import numpy as np
import pytest

from tscircle import (
    AscentConfig,
    ascend,
    constant_function,
    decompose,
    demodulate,
    el_quintic,
    el_residual,
    expansion_residual,
    l2_norm,
    linear_part,
    nonlinear_part,
    picard_iterate,
    quotient,
    random_function,
    ts_functional,
)
import tscircle.extension
import tscircle.solver
import tscircle.variational
from tscircle.errors import DivergenceError
from tscircle.extension import FieldTail, angle_count, extend
from tscircle.quintic import _assemble_polar, _product, _self_product
from tscircle.solver import _linear_field, _nonlinear_field


def normalized(f):
    return f * (1.0 / l2_norm(f))


def high_tail(n_lo, n_hi, seed, scale=1.0):
    f = random_function(n_hi, seed=seed, decay=0.7)
    return scale * (f - f.truncated(n_lo))


# ---------------------------------------------------------------------------
# gradient ascent
# ---------------------------------------------------------------------------

def test_ascent_monotone_and_converges():
    res = ascend(config=AscentConfig(n=8, seed=0))
    assert res.converged
    phis = [step["phi"] for step in res.trace]
    assert all(b >= a - 1e-13 for a, b in zip(phis, phis[1:]))
    target = quotient(constant_function(1.0))
    assert res.quotient == pytest.approx(target, abs=1e-6)


def test_ascent_is_one_power_step_per_iteration(monkeypatch):
    # one el_quintic call at the start and one per iteration, and the traced
    # Phi never falls: a trial that would lower it ends the run untraced
    calls = []
    real = tscircle.solver.el_quintic

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tscircle.solver, "el_quintic", counting)
    res = ascend(config=AscentConfig(n=16, seed=0))
    assert len(calls) == res.iterations + 1
    phis = [step["phi"] for step in res.trace]
    assert all(b >= a for a, b in zip(phis, phis[1:]))


@pytest.mark.parametrize("seed", range(10))
def test_power_step_never_lowers_phi(seed):
    # the lemma the ascent rests on: Phi is convex with derivative
    # 6 Re<Q, .>, so for unit f in the band, Phi(P_n Q / ||P_n Q||) >= Phi(f)
    f = normalized(random_function(8, seed=seed))
    step = normalized(el_quintic(f, M=8))
    assert ts_functional(step) >= ts_functional(f)


def test_ascent_reports_why_it_stopped(extremizer16):
    assert extremizer16.converged
    assert extremizer16.stop in ("flat", "no_uphill")
    res = ascend(config=AscentConfig(n=16, seed=0, max_iter=1))
    assert (res.stop, res.converged, res.iterations) == ("max_iter", False, 1)


def test_ascent_reaches_constant_quotient_multiseed():
    target = quotient(constant_function(1.0))
    for seed in (1, 2, 3):
        res = ascend(config=AscentConfig(n=16, seed=seed))
        assert abs(res.quotient - target) / target < 1e-4, seed


def test_ascent_result_is_nearly_critical(extremizer16):
    rep = el_residual(extremizer16.f)
    assert rep.residual_rel < 1e-6
    assert rep.lambda_fit == pytest.approx(extremizer16.phi, rel=1e-6)


def test_converged_profile_decays(extremizer16):
    # ascent parks anywhere on the (flat) modulation orbit of the constant;
    # the canonical representative must be smooth: coefficient mass beyond
    # |n| >= 4 collapses once the plane-wave factor is stripped
    centered, xi = demodulate(extremizer16.f)
    c = np.abs(centered.coeffs)
    N = centered.N
    inner = np.max(c)
    outer = np.max(np.concatenate([c[:N - 3], c[N + 4:]]))
    assert outer < 1e-10 * inner
    assert np.hypot(*xi) < 2.0  # a short drift, not a runaway


# ---------------------------------------------------------------------------
# decomposition f = phi + g
# ---------------------------------------------------------------------------

def test_decompose_splits_exactly():
    f = normalized(random_function(12, seed=5, decay=0.75))
    phi, g, K = decompose(f, eps=0.3)
    assert 0 < K < 12
    assert l2_norm((phi + g) - f) < 1e-14
    assert l2_norm(g) <= 0.3
    # phi carries no modes above K, g none at or below K
    assert phi.N == K or l2_norm(phi - phi.truncated(K)) < 1e-15
    for n in range(-K, K + 1):
        assert g.coeff(n) == 0


def test_decompose_minimality():
    f = normalized(random_function(12, seed=6, decay=0.75))
    phi, g, K = decompose(f, eps=0.25)
    if K > 0:
        # K - 1 would already violate the tail budget
        tail = f - f.truncated(K - 1)
        assert l2_norm(tail) > 0.25


def test_decompose_keeps_all_of_f_where_eps_squared_underflows():
    # below eps ~ 1e-162 eps^2 is 0 and no tail mass is below it: the split
    # keeps every mode (K = N, g = 0), as it does at eps = 1e-150
    f = random_function(6, seed=1, decay=0.5)
    for eps in (1e-150, 1e-170, 1e-300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, g, K = decompose(f, eps)
        assert K == 6 and l2_norm(g) == 0.0
        assert np.array_equal(phi.coeffs, f.coeffs)


def test_decompose_warns_when_trivial():
    f = constant_function(1.0)
    with pytest.warns(UserWarning):
        decompose(f, eps=0.5)


# ---------------------------------------------------------------------------
# expansion identity and the two parts
# ---------------------------------------------------------------------------

def test_linear_part_vanishes_at_exact_solution():
    # at phi with Q(phi...) = lambda phi and lambda = 1 after rescaling,
    # L(phi, 0) = Q(phi..) - phi = 0
    res = ascend(config=AscentConfig(n=8, seed=4))
    lam = res.phi                           # the Rayleigh value: ||f|| = 1
    phi = res.f * lam ** -0.25
    L = linear_part(phi, 0.0 * phi)
    assert l2_norm(L) / l2_norm(phi) < 1e-6


def test_nonlinear_part_is_superlinear():
    # N(phi, h) ~ O(h^2): scaling h by 1/2 divides N by ~4
    phi = normalized(random_function(4, seed=7, decay=0.9))
    h = high_tail(2, 6, seed=8, scale=0.1)
    n1 = l2_norm(nonlinear_part(phi, h))
    n2 = l2_norm(nonlinear_part(phi, 0.5 * h))
    assert n2 < 0.30 * n1


def test_parts_extend_each_input_once(monkeypatch):
    # every class product of L and N is composed from the fields of phi and
    # of g (or h); nothing else is extended
    calls = []
    real = tscircle.extension.extend

    def counting(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(tscircle.extension, "extend", counting)
    phi = random_function(3, seed=5, decay=0.9)
    g = high_tail(3, 6, seed=6)
    nonlinear_part(phi, g)
    assert len(calls) == 2
    calls.clear()
    linear_part(phi, g)
    assert len(calls) == 2


LOW_CLASSES = ((0, 0), (0, 1), (1, 0))
HIGH_CLASSES = ((0, 2), (1, 1), (2, 0), (1, 2), (2, 1), (3, 0), (2, 2),
                (3, 1), (3, 2))


def one_product(expr, *values):
    """The one product the field expression yields over readers of
    `values`."""
    [product] = expr(*(lambda v=v: v for v in values))
    return product


def class_products(X, Y, classes):
    """Sum over classes (a, b) of C(3,a) C(2,b) X^(3-a) Y^a conj(X^(2-b) Y^b),
    each class its own five-fold product."""
    cx, cy = X.conj(), Y.conj()
    return reduce(operator.add, (
        comb(3, a) * comb(2, b)
        * reduce(operator.mul, [X] * (3 - a) + [Y] * a + [cx] * (2 - b)
                 + [cy] * b)
        for a, b in classes))


def test_slot_grouped_fields_match_class_products():
    # the factored expressions of N and L + phi equal the nine and the three
    # explicit class products: on the whole samples, on the tails and in
    # every assembled mode
    phi = random_function(4, seed=51, decay=0.9)
    h = high_tail(4, 8, seed=52, scale=0.3)
    J = angle_count(5 * h.N)
    X, Y = extend(phi, n_angles=J), extend(h, n_angles=J)
    K = X.grid.nodes.size
    XK, YK = X.rows(0, K), Y.rows(0, K)             # the whole samples
    for expr, classes in ((_nonlinear_field, HIGH_CLASSES),
                          (_linear_field, LOW_CLASSES)):
        def ref(read_x, read_y, classes=classes):
            yield class_products(read_x(), read_y(), classes)
        tail = one_product(expr, X.tail, Y.tail)
        ref_tail = one_product(ref, X.tail, Y.tail)
        assert tail.N == ref_tail.N
        for got, want in ((one_product(expr, XK, YK),
                           one_product(ref, XK, YK)),
                          (tail.poly, ref_tail.poly),
                          (_assemble_polar(expr, (X, Y), tail.N)[0],
                           _assemble_polar(ref, (X, Y), ref_tail.N)[0])):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("rows", [40, None], ids=["block", "whole grid"])
def test_field_expressions_leave_their_inputs_alone(rows):
    # the expressions reuse their own temporaries in place: the sample
    # blocks and tails they are given, read-only views included (as a block
    # cut from cached rows would be), come back unchanged
    phi = random_function(4, seed=53, decay=0.9)
    h = high_tail(4, 8, seed=54, scale=0.3)
    J = angle_count(5 * h.N)
    X, Y = extend(phi, n_angles=J), extend(h, n_angles=J)
    K = rows or X.grid.nodes.size
    cases = ((_nonlinear_field, 2), (_linear_field, 2), (_self_product, 1),
             (_product, 5))
    for expr, arity in cases:
        blocks = [X.rows(0, K), Y.rows(0, K)] * 3
        views = [b[:] for b in blocks[:arity]]
        for v in views:
            v.flags.writeable = False
        kept = [v.copy() for v in views]
        one_product(expr, *views)
        assert all(np.array_equal(v, k) for v, k in zip(views, kept))
        tails = [X.tail, Y.tail] * 3
        kept = [(t.poly.copy(), t.N, t.symmetric) for t in tails[:arity]]
        one_product(expr, *tails[:arity])
        for t, (poly, N, symmetric) in zip(tails, kept):
            assert np.array_equal(t.poly, poly)
            assert (t.N, t.symmetric) == (N, symmetric)


def test_parts_multiply_fields_slot_grouped(monkeypatch):
    # one product per class factor would take 36 field-by-field products
    # for N and 12 for L; grouped by slot they take at most 12 and 6 (counted
    # on the tails with samples, where each part's expression runs once; the
    # engine's bandwidth pass runs it on tails without samples)
    products = []
    real = FieldTail.__mul__

    def counting(self, other):
        if isinstance(other, FieldTail) and other.poly.size:
            products.append(other)
        return real(self, other)

    monkeypatch.setattr(FieldTail, "__mul__", counting)
    phi = random_function(3, seed=5, decay=0.9)
    g = high_tail(3, 6, seed=6)
    nonlinear_part(phi, g)
    assert 0 < len(products) <= 12
    products.clear()
    linear_part(phi, g)
    assert 0 < len(products) <= 6


def test_parts_for_low_modes_match_full_band(monkeypatch):
    # assembled for modes |m| <= 16 only, on angle_count(M, 16) angles
    # (N: bandwidth M = 80, 98 instead of 162; L: M = 32, 64 instead of
    # 66), N and L are the full results cut to 16
    angles = []
    real = tscircle.extension.extend

    def recording(f, *args, **kwargs):
        field = real(f, *args, **kwargs)
        angles.append(field.n_angles)
        return field

    monkeypatch.setattr(tscircle.extension, "extend", recording)
    phi = random_function(4, seed=41, decay=0.9)
    g = high_tail(4, 16, seed=42)
    for part, J_full, J_low in ((nonlinear_part, 162, 98),
                                (linear_part, 66, 64)):
        angles.clear()
        full = part(phi, g).truncated(16)
        low = part(phi, g, M=16)
        assert angles == [J_full, J_full, J_low, J_low]
        assert low.N == 16
        assert l2_norm(low - full) <= 1e-13 * l2_norm(full)


def test_parts_for_low_modes_with_unequal_bandwidths():
    # phi of bandwidth 0, g of 40: modes |m| <= 16 of L (bandwidth 40) take
    # 64 angles, fewer than g's 81 modes, which still sample exactly
    phi = constant_function(0.8)
    g = high_tail(4, 40, seed=43, scale=0.1)
    for part in (linear_part, nonlinear_part):
        full = part(phi, g).truncated(16)
        low = part(phi, g, M=16)
        assert l2_norm(low - full) <= 1e-13 * l2_norm(full)


def test_expansion_identity_explicit_pairs():
    worst = 0.0
    for k in range(10):
        phi = random_function(3, seed=200 + k, decay=0.9)
        g = high_tail(3, 6, seed=300 + k)
        worst = max(worst, expansion_residual(phi, g))
    assert worst < 1e-12


def test_expansion_identity_from_decompose():
    f = normalized(random_function(8, seed=9, decay=0.8))
    phi, g, _ = decompose(f, eps=0.35)
    assert expansion_residual(phi, g) < 1e-12


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------

def test_picard_contracts_from_extremizer(extremizer16):
    rep = picard_iterate(extremizer16.f, eps=0.05)
    assert rep.converged
    assert rep.max_ratio < 1.0
    assert rep.h_minus_g_l2 < 1e-6
    assert rep.inside_ball
    assert rep.K >= 1
    assert rep.ball_radius == pytest.approx(0.05 ** 0.75)


def test_picard_extends_phi_and_the_iterate_per_step(extremizer16,
                                                     monkeypatch):
    # lambda's el_quintic extends f, L extends phi and g, and each step's N
    # extends phi and its iterate h, each once
    calls = []
    real = tscircle.extension.extend

    def counting(f, *args, **kwargs):
        calls.append(f.N)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(tscircle.extension, "extend", counting)
    rep = picard_iterate(extremizer16.f, eps=0.05)
    assert rep.converged and rep.K < 16
    assert len(calls) == 3 + 2 * rep.iterations
    assert calls.count(rep.K) == 1 + rep.iterations     # phi: L, then N


def test_picard_ratios_track_smooth_norm(extremizer16):
    rep = picard_iterate(extremizer16.f, eps=0.05)
    assert rep.s_norm == 0.5
    assert len(rep.ratios_s) == len(rep.ratios_l2)
    assert max(rep.ratios_s) < 1.0


def test_picard_diverges_from_far_field():
    # a rough far-from-critical start must be rejected, not silently run
    f = 5.0 * random_function(16, seed=11, decay=0.55)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DivergenceError):
            picard_iterate(f, eps=1e-4, max_iter=10)


def test_picard_h_norm_matches_tail(extremizer16):
    rep = picard_iterate(extremizer16.f, eps=0.05)
    lam = el_residual(extremizer16.f).lambda_fit
    scaled = extremizer16.f * lam ** -0.25
    _, g, _ = decompose(scaled, eps=0.05)
    # the fixed point h reproduces the actual tail of the rescaled profile
    assert abs(rep.h_norm - l2_norm(g)) < 1e-6


def test_picard_lambda_is_the_rayleigh_value(extremizer16, monkeypatch):
    # lambda_fit comes from modes |m| <= N of Q, not from el_residual's
    # full-band report, and agrees with that report's value
    f = extremizer16.f
    want = el_residual(f).lambda_fit

    def refuse(*args, **kwargs):
        raise AssertionError("picard_iterate called el_residual")

    monkeypatch.setattr(tscircle.variational, "el_residual", refuse)
    rep = picard_iterate(f, eps=0.05)
    assert abs(rep.lambda_used - want) <= 1e-12 * want
