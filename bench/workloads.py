"""The benchmark's workloads.

A workload has a set-up, which warms what a user session would have warm
and computes the reference values its gates need, and an op, which takes
a per-op random generator (seeded from the workload seed and the op index),
calls tscircle with the inputs drawn from it, and checks the outputs at the
acceptance suite's tolerances (tests/test_acceptance.py).

Ops call tscircle through module attributes (``ts.picard_iterate``,
``ts.cli.main``), never through names bound at import, so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

import json
import os

import numpy as np

TAU = 2.0 * np.pi
T0_GOLDEN = 0.3368279630208555          # criterion 9's golden value
DENSITY_CUTOFFS = (400.0, 800.0, 1600.0)  # auto_density's radius buckets
ORDER_WARM = 80                         # orders used by N = 16 polar products
SEED_SPACE = 2 ** 31


def _seeds(rng, n):
    return [int(s) for s in rng.integers(SEED_SPACE, size=n)]


def _rel(a, b):
    return abs(a - b) / abs(b)


def warm_references(ts, cutoffs=()) -> dict:
    """Fresh default grids, their Bessel rows, and the reference values.

    The default-grid cache is cleared first so that every repetition of the
    set-up pays for the grids again.
    """
    cached = getattr(ts.bessel, "_default_grid", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()
    ts.default_grid().j_matrix(ORDER_WARM)
    for cutoff in cutoffs:
        ts.default_grid(cutoff).j_matrix(0)
    return {"t0": ts.t0_value(),
            "r1": ts.quotient(ts.constant_function(1.0)),
            "mu5_1": ts.mu_value(5, 1.0)}


class Contraction:
    """Criterion 7's Picard lab and criterion 5's bound chain, one case each.

    f* is criterion 7's extremizer (ascent seed 0).  It is fixed rather than
    drawn from the workload seed because the Picard step count depends on
    which extremizer is used (6 to 12 steps over ascent seeds 0 to 3), and a
    rotation and a phase, which are drawn per op, keep the work identical.
    """

    name = "contraction"
    nominal_op_s = 10.0
    t_grid = 2.0 ** -np.arange(1, 5)    # criterion 5's four dyadic offsets

    def setup(self, ts, tmp) -> dict:
        ctx = warm_references(ts)
        ref = ts.ascend(config=ts.AscentConfig(n=16, seed=0))
        ctx["fstar"] = ref.f
        ctx["fstar_converged"] = ref.converged
        ctx["fstar_quotient_gap"] = _rel(ref.quotient, ctx["r1"])
        return ctx

    def op(self, ts, ctx, rng):
        theta, alpha = rng.uniform(0.0, TAU, size=2)
        quintuple = _seeds(rng, 5)
        phi_seed, g_seed = _seeds(rng, 2)

        f = ts.rotate(ctx["fstar"], float(theta)) * np.exp(1j * alpha)
        rep = ts.picard_iterate(f, eps=0.05)

        fs = [ts.random_function(8, seed=s, decay=0.6) for s in quintuple]
        bound = ts.quintilinear_bound_ratio(fs, 0.5, mu5_at_1=ctx["mu5_1"],
                                            t_grid=self.t_grid)

        phi = ts.random_function(4, seed=phi_seed, decay=0.9)
        g8 = ts.random_function(8, seed=g_seed, decay=0.7)
        expansion = ts.expansion_residual(phi, g8 - g8.truncated(4))

        values = {"theta": float(theta), "alpha": float(alpha),
                  "picard_iterations": rep.iterations,
                  "picard_max_ratio": rep.max_ratio,
                  "picard_h_minus_g": rep.h_minus_g_l2,
                  "bound_ratio": bound.ratio,
                  "bound_max_t_ratio": bound.max_t_ratio,
                  "expansion_residual": expansion}
        ok = (rep.converged and rep.max_ratio < 1.0
              and rep.h_minus_g_l2 < 1e-6 and expansion < 1e-9
              and bound.ratio <= 1.0 and bound.max_t_ratio <= 1.0)
        return ok, values

    def setup_ok(self, ctx) -> bool:
        return ctx["fstar_converged"] and ctx["fstar_quotient_gap"] < 1e-4

    def sentinels(self, ctx, first) -> dict:
        return {"fstar_quotient_gap": ctx["fstar_quotient_gap"],
                "picard_h_minus_g": first.get("picard_h_minus_g")}


class Tables:
    """One pass of four CLI commands, each building its radial grids anew.

    tensor-build writes the N = 8 tensor to a file that functional reads;
    every file lives in the run's temporary directory.
    """

    name = "tables"
    nominal_op_s = 3.5

    def setup(self, ts, tmp) -> dict:
        ctx = warm_references(ts, DENSITY_CUTOFFS)
        ctx["tmp"] = tmp
        return ctx

    def _command(self, ts, tmp, argv):
        out = os.path.join(tmp, f"{argv[0]}.json")
        code = ts.cli.main(argv + ["--out", out])
        if code != 0:
            return code, None
        with open(out) as fh:
            return code, json.load(fh)

    def op(self, ts, ctx, rng):
        seed = _seeds(rng, 1)[0]
        tensor = os.path.join(ctx["tmp"], "tensor_n8.b6t")
        commands = (
            ["tensor-build", "--n", "8", "--tensor", tensor],
            ["functional", "--n", "8", "--seed", str(seed), "--tensor", tensor,
             "--verify"],
            ["density", "--k", "5"],
            ["constant", "--verify"],
        )
        env = {}
        for argv in commands:
            code, env[argv[0]] = self._command(ts, ctx["tmp"], argv)
            if code != 0:
                return False, {"seed": seed, "command": argv[0], "exit": code}

        phi_gap = env["functional"]["oracle"]["sixth_power_vs_functional_rel"]
        t0 = env["constant"]["payload"]["t0"]
        regimes = env["constant"]["oracle"]["t0_regimes"]
        spread = max(_rel(a, b) for a in regimes for b in regimes)
        dens = env["density"]["payload"]
        mass_err = _rel(dens["mass"], dens["mass_expected"])
        values = {"seed": seed, "phi_tensor_vs_field_gap": phi_gap,
                  "t0": t0, "t0_golden_gap": _rel(t0, T0_GOLDEN),
                  "t0_regime_spread": spread, "mu5_mass_rel_error": mass_err}
        ok = (phi_gap < 1e-6 and values["t0_golden_gap"] < 1e-9
              and spread < 1e-6 and mass_err < 1e-4)
        return ok, values

    def setup_ok(self, ctx) -> bool:
        return True

    def sentinels(self, ctx, first) -> dict:
        return {"phi_tensor_vs_field_gap": first.get("phi_tensor_vs_field_gap"),
                "cli_t0": first.get("t0")}


WORKLOADS = {w.name: w for w in (Contraction(), Tables())}
