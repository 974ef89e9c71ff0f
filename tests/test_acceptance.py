"""Top-level acceptance gate: ten numbered criteria, one line each.

Run with -s to see the [criterion NN] PASS/FAIL lines; each criterion is a
single test so the -v report doubles as the pass/fail table.  Tolerances
are stated inline and are the contract -- do not loosen them here.
"""

import json
import time

import numpy as np
import pytest

from tscircle import (
    TAU,
    AscentConfig,
    ascend,
    auto_density,
    constant_function,
    demodulate,
    el_quintic,
    expansion_residual,
    extend,
    l2_norm,
    l6_norm,
    mu_value,
    picard_iterate,
    quintic_convolve,
    quintilinear_bound_ratio,
    quotient,
    random_function,
    ts_functional,
)
from tscircle.cli import cache_roundtrip, main
from tscircle.regularity import interpolation_constant, smoothing_experiment
from tscircle.variational import el_residual, t0_value
from tscircle.bessel import RadialGrid

# locked on the first verified run of the radial-integral oracle: three
# quadrature regimes (cutoff 200/400/800) agreed to 1.3e-9, and an
# independent high-precision evaluation sits 1.25e-9 below this number
T0_GOLDEN = 0.3368279630208555


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ascents5():
    return [ascend(config=AscentConfig(n=16, seed=s)) for s in range(5)]


def test_criterion_01_duality_chain(tensor8):
    t_start = time.perf_counter()
    worst = 0.0
    for k in range(50):
        n = 1 + k % 8
        f = random_function(n, seed=1000 + k, decay=0.5)
        phi_spec = ts_functional(f, tensor=tensor8)
        phi_field = l6_norm(extend(f)) ** 6 / TAU ** 2
        worst = max(worst, abs(phi_spec - phi_field) / phi_field)
    dt = time.perf_counter() - t_start
    _report(1, worst < 1e-6 and dt < 120.0,
            f"functional vs field sixth power, 50 f (N<=8): "
            f"worst rel gap {worst:.3e} (tol 1e-6), {dt:.1f}s")


def test_criterion_02_el_at_constants():
    rep = el_residual(constant_function(1.0))
    r = rep.residual_l2 / rep.lambda_fit
    ok = r < 1e-8 and rep.leakage < 1e-9
    _report(2, ok,
            f"residual_l2/lambda {r:.3e} (tol 1e-8), "
            f"mode leakage {rep.leakage:.3e} (tol 1e-9)")


def test_criterion_03_cross_representation(tensor8):
    one = constant_function(1.0)
    q_val = quintic_convolve([one] * 5, tensor=tensor8).coeff(0).real
    mu_val = mu_value(5, 1.0)
    t0_val = TAU ** 4 * t0_value()
    vals = [q_val, mu_val, t0_val]
    gap = max(abs(a - b) / abs(b) for a in vals for b in vals)
    _report(3, gap < 1e-5,
            f"convolution {q_val:.8f}, density {mu_val:.8f}, "
            f"radial integral {t0_val:.8f}: pairwise {gap:.3e} (tol 1e-5)")


def test_criterion_04_density_profiles():
    t_start = time.perf_counter()
    d1 = auto_density(5, n_points=1001)
    d2 = auto_density(5, n_points=2001)
    mass_err = abs(d1.mass - d1.mass_expected) / d1.mass_expected
    s1 = d1.values[(d1.radii <= 4.99) & d1.valid].max()
    s2 = d2.values[(d2.radii <= 4.99) & d2.valid].max()
    sup_drift = abs(s1 - s2) / s1

    # mu_2 against a 1e7-sample two-step walk, 18 bins away from r = 0, 2
    rng = np.random.default_rng(4)
    edges = np.linspace(0.1, 1.9, 19)
    counts = np.zeros(18)
    total = 0
    for _ in range(10):
        u = rng.uniform(0.0, TAU, 1_000_000)
        v = rng.uniform(0.0, TAU, 1_000_000)
        r = np.hypot(np.cos(u) + np.cos(v), np.sin(u) + np.sin(v))
        h, _ = np.histogram(r, bins=edges)
        counts += h
        total += r.size
    from scipy.integrate import simpson
    worst_bin = 0.0
    for i in range(18):
        xs = np.linspace(edges[i], edges[i + 1], 9)
        ys = np.array([mu_value(2, float(x)) * x / TAU for x in xs])
        model = simpson(ys, x=xs)
        worst_bin = max(worst_bin, abs(counts[i] / total - model) / model)
    dt = time.perf_counter() - t_start
    ok = mass_err < 1e-4 and sup_drift < 1e-3 and worst_bin < 0.01 and dt < 180.0
    _report(4, ok,
            f"five-fold mass rel err {mass_err:.2e} (tol 1e-4), sup {s1:.4f} "
            f"drift {sup_drift:.2e} on doubling (tol 1e-3), MC worst bin "
            f"{worst_bin:.2%} (tol 1%), {dt:.1f}s")


def test_criterion_05_quintilinear_bounds():
    t_start = time.perf_counter()
    mu51 = mu_value(5, 1.0)
    # four dyadic offsets keep the smooth variant inside the runtime
    # budget; both sides of the bound use the same offsets.  One call per
    # quintuple gives both the plain (ratio0) and the s = 0.5 ratios
    ts = 2.0 ** -np.arange(1, 5)
    worst0 = worst5 = 0.0
    for k in range(100):
        fs = [random_function(8, seed=5000 + 5 * k + i, decay=0.6)
              for i in range(5)]
        rep = quintilinear_bound_ratio(fs, 0.5, mu5_at_1=mu51, t_grid=ts)
        worst0 = max(worst0, rep.ratio0)
        worst5 = max(worst5, rep.ratio, rep.max_t_ratio)
    dt = time.perf_counter() - t_start
    ok = worst0 <= 1.0 and worst5 <= 1.0 and dt < 180.0
    _report(5, ok,
            f"100 quintuples (N=8): L2 ratio max {worst0:.4f}, s=0.5 ratio "
            f"max {worst5:.4f} (both <= 1), {dt:.1f}s")


def test_criterion_06_interpolation():
    worst = 0.0
    for k in range(100):
        f = random_function(10, seed=6000 + k, decay=0.4 + 0.006 * k)
        for beta, alpha in ((0.2, 0.4), (0.3, 0.9)):
            worst = max(worst, interpolation_constant(f, beta, alpha))
    _report(6, worst <= 2.0,
            f"two-scale inequality on 100 f: measured constant max "
            f"{worst:.4f} (tol 2)")


def test_criterion_07_contraction_lab(extremizer16):
    t_start = time.perf_counter()
    rep = picard_iterate(extremizer16.f, eps=0.05)
    worst = 0.0
    for k in range(100):
        phi = random_function(4, seed=7000 + k, decay=0.9)
        g8 = random_function(8, seed=7500 + k, decay=0.7)
        g = g8 - g8.truncated(4)
        worst = max(worst, expansion_residual(phi, g))
    dt = time.perf_counter() - t_start
    ok = (rep.converged and rep.max_ratio < 1.0
          and rep.h_minus_g_l2 < 1e-6 and worst < 1e-9 and dt < 120.0)
    _report(7, ok,
            f"eps=0.05: converged={rep.converged}, ratio max "
            f"{rep.max_ratio:.4f} (<1), |h-g| {rep.h_minus_g_l2:.2e} "
            f"(tol 1e-6); expansion identity on 100 pairs {worst:.2e} "
            f"(tol 1e-9), {dt:.1f}s")


def test_criterion_08_smoothing():
    rep = smoothing_experiment(n=64)
    ok = rep.gain >= 0.25 and rep.lip_drift < 0.05
    _report(8, ok,
            f"square wave slope {rep.input_slope:.3f} -> {rep.output_slope:.3f} "
            f"(gain {rep.gain:.3f} >= 0.25); Lipschitz estimate "
            f"{rep.lip_coarse:.4f} drift {rep.lip_drift:.2e} on grid "
            f"doubling (tol 5%)")


def test_criterion_09_sharp_constant(ascents5):
    t_start = time.perf_counter()
    target = quotient(constant_function(1.0))
    gaps = [abs(res.quotient - target) / target for res in ascents5]
    t0_default = t0_value()
    regimes = [t0_value(RadialGrid(cutoff=c)) for c in (200.0, 400.0, 800.0)]
    spread = max(abs(a - b) / abs(b) for a in regimes for b in regimes)
    golden_gap = abs(t0_default - T0_GOLDEN) / T0_GOLDEN
    dt = time.perf_counter() - t_start
    ok = (max(gaps) < 1e-4 and all(r.converged for r in ascents5)
          and spread < 1e-6 and golden_gap < 1e-9 and dt < 300.0)
    _report(9, ok,
            f"5 seeded ascents: worst quotient gap {max(gaps):.2e} "
            f"(tol 1e-4) to {target:.9f}; radial-integral regimes spread "
            f"{spread:.2e} (tol 1e-6), golden drift {golden_gap:.2e}, {dt:.1f}s")


def test_criterion_10_infrastructure(tensor8, tmp_path):
    loaded = cache_roundtrip(tensor8, tmp_path / "t8.b6t")  # raises on mismatch
    bitwise = np.array_equal(loaded.values.view(np.uint64),
                             tensor8.values.view(np.uint64))

    def payload_bytes(name, argv):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        return json.dumps(json.loads(out.read_text())["payload"],
                          sort_keys=True)

    same = True
    for argv in (["functional", "--n", "4", "--seed", "11"],
                 ["density", "--k", "2", "--n-points", "51"]):
        same &= (payload_bytes("a.json", list(argv))
                 == payload_bytes("b.json", list(argv)))
    _report(10, bitwise and same,
            f"cache round trip bit-identical={bitwise}; envelope payloads "
            f"byte-reproducible={same}")


def test_smoothness_evidence(ascents5):
    # criteria 2, 8, 9 jointly probe maximizer smoothness; its numerical
    # signature: each converged maximizer, after stripping its plane-wave
    # drift, has no coefficient mass beyond |n| >= 4
    worst = 0.0
    for res in ascents5:
        centered, _ = demodulate(res.f)
        c = np.abs(centered.coeffs)
        N = centered.N
        outer = np.max(np.concatenate([c[:N - 3], c[N + 4:]]))
        worst = max(worst, outer / c.max())
    print(f"[evidence] centered maximizers: coefficient mass beyond |n|>=4 "
          f"is {worst:.2e} of peak (below 1e-10 across 5 seeds)")
    assert worst < 1e-10
