"""Command-line front end: run one experiment per process, emit a JSON envelope.

Every command produces a ResultEnvelope with the exact shape::

    {command, version, created_utc, wall_clock_s, config, payload, oracle}

`payload` holds only deterministic numbers: rerunning a command with the same
flags (in particular the same --seed) must serialize to byte-identical JSON.
Timing and timestamps therefore live at the top level, never inside payload.
`oracle` is null unless --verify is passed, in which case each command runs an
independent cross-check (closed form, alternate route, or grid refinement) and
reports the measured gaps.

Exit codes: 0 ok, 2 bad configuration, 3 numerical failure (divergence,
checksum) or any other internal error, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback
from datetime import datetime, timezone

import numpy as np
from scipy import special as _sp

from . import __version__
from .bessel import (BesselTensor, RadialGrid, build_tensor, default_grid,
                     radial_integrate)
from .errors import CacheError, ConfigError, NumericalError, PreconditionError
from .extension import decay_check, extend, l6_norm
from .quintic import auto_density, mu_value, sup_bound_check
from .regularity import regularity_profile, sharp_flat_split, smoothing_experiment
from .solver import AscentConfig, ascend, expansion_residual, picard_iterate
from .spectral import TAU, CircleFunction, constant_function, l2_norm, random_function
from .variational import constant_estimate, el_residual, quotient, t0_value, ts_functional

COMMANDS = (
    "tensor-build", "extend", "density", "sup-bound", "functional",
    "el-residual", "solve", "picard", "split", "smoothing", "constant",
    "regularity-profile",
)

# payload keys each command must emit; validate_envelope checks these
_PAYLOAD_KEYS = {
    "tensor-build": {"n", "cutoff", "n_entries", "t_zero"},
    "extend": {"n", "l6", "origin_value", "decay_sup", "decay_envelope"},
    "density": {"k", "mass", "mass_expected", "sup", "arg_sup"},
    "sup-bound": {"k", "sup", "at_radius", "mass_rel_error"},
    "functional": {"n", "phi", "quotient", "lambda_fit"},
    "el-residual": {"n", "residual_rel", "residual_sup", "leakage", "lambda_fit"},
    "solve": {"n", "quotient", "phi", "iterations", "converged"},
    "picard": {"eps", "K", "max_ratio", "h_minus_g_l2", "converged"},
    "split": {"eta", "K", "l2_flat", "lip_sharp"},
    "smoothing": {"n", "gain", "input_slope", "output_slope", "lip_drift"},
    "constant": {"value", "t0", "lambda0", "note"},
    "regularity-profile": {"n", "l2", "decay_slope", "calH", "holder"},
}


def _jsonable(x):
    """Recursively coerce numpy/dataclass values into plain JSON types.

    Complex numbers become [re, im] pairs so payloads stay valid JSON while
    round-tripping exactly (float repr is deterministic for a given double).
    """
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return _jsonable(dataclasses.asdict(x))
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.complexfloating, complex)):
        return [float(x.real), float(x.imag)]
    return x


def make_envelope(command: str, config: dict, payload: dict,
                  oracle: dict | None, wall_clock_s: float) -> dict:
    return {
        "command": command,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "wall_clock_s": float(wall_clock_s),
        "config": _jsonable(config),
        "payload": _jsonable(payload),
        "oracle": _jsonable(oracle) if oracle is not None else None,
    }


def validate_envelope(env: dict) -> None:
    """Hand-rolled schema check; raises ConfigError on any violation."""
    required = ("command", "version", "created_utc", "wall_clock_s",
                "config", "payload", "oracle")
    missing = [k for k in required if k not in env]
    if missing:
        raise ConfigError(f"envelope missing fields: {missing}")
    if env["command"] not in COMMANDS:
        raise ConfigError(f"unknown command in envelope: {env['command']!r}")
    if not isinstance(env["version"], str) or not env["version"]:
        raise ConfigError("envelope version must be a non-empty string")
    if not isinstance(env["config"], dict) or "seed" not in env["config"]:
        raise ConfigError("envelope config must record the seed")
    if not isinstance(env["wall_clock_s"], (int, float)) or env["wall_clock_s"] < 0:
        raise ConfigError("wall_clock_s must be a non-negative number")
    try:
        datetime.fromisoformat(env["created_utc"])
    except (TypeError, ValueError):
        raise ConfigError("created_utc is not an ISO-8601 timestamp")
    if not isinstance(env["payload"], dict):
        raise ConfigError("payload must be a JSON object")
    want = _PAYLOAD_KEYS[env["command"]]
    have = set(env["payload"])
    if not want <= have:
        raise ConfigError(f"payload for {env['command']} missing keys: {sorted(want - have)}")
    if env["oracle"] is not None and not isinstance(env["oracle"], dict):
        raise ConfigError("oracle must be null or a JSON object")


def cache_roundtrip(tensor: BesselTensor, path) -> BesselTensor:
    """Write `tensor` to `path`, read it back, and insist on bit identity."""
    tensor.save(path)
    loaded = BesselTensor.load(path)
    same = (
        loaded.N == tensor.N
        and loaded.cutoff == tensor.cutoff
        and np.array_equal(loaded.keys, tensor.keys)
        and np.array_equal(
            loaded.values.view(np.uint64), tensor.values.view(np.uint64))
        and np.array_equal(
            loaded.errors.view(np.uint64), tensor.errors.view(np.uint64))
    )
    if not same:
        raise CacheError(f"cache round trip through {path} is not bit-identical")
    return loaded


def _load_tensor(path) -> BesselTensor:
    if path is None:
        return None
    return BesselTensor.load(path)


def _random_input(n: int, seed: int) -> CircleFunction:
    if n == 0:
        return constant_function(1.0)
    return random_function(n, seed=seed, decay=0.8)


def _coeff_pairs(f: CircleFunction) -> list:
    return [[float(c.real), float(c.imag)] for c in f.coeffs]


# ---------------------------------------------------------------------------
# command handlers: each returns (config, payload, oracle_fn)

def cmd_tensor_build(args):
    if args.tensor is None:
        args.tensor = f"tensor_n{args.n}.b6t"
    config = {"n": args.n, "cutoff": args.cutoff, "seed": args.seed,
              "tensor": str(args.tensor)}
    grid = RadialGrid(cutoff=args.cutoff)
    tensor = build_tensor(args.n, grid=grid)
    loaded = cache_roundtrip(tensor, args.tensor)
    payload = {
        "n": tensor.N,
        "cutoff": tensor.cutoff,
        "n_entries": int(len(tensor.keys)),
        "t_zero": float(tensor.value(0, 0, 0, 0, 0, 0)),
        "max_abs_value": float(np.max(np.abs(tensor.values))),
        "max_error_bound": float(np.max(tensor.errors)),
    }

    def oracle():
        # re-integrate a handful of stored classes on a once-refined grid
        # with scipy's J_n; stored values are the raw nonnegative-order
        # integrals
        idx = np.linspace(0, len(loaded.keys) - 1, min(5, len(loaded.keys))).astype(int)
        fine = grid.refine()
        drift = 0.0
        for i in idx:
            orders = loaded.keys[i]

            def integrand(rho, orders=orders):
                out = rho.copy()
                for n in orders:
                    out = out * _sp.jv(int(n), rho)
                return out

            val, _ = radial_integrate(integrand, orders, grid=fine)
            drift = max(drift, abs(val - float(loaded.values[i])))
        return {"roundtrip_bit_identical": True, "spot_refine_drift": drift,
                "n_spot_checks": int(len(idx))}

    return config, payload, oracle


def cmd_extend(args):
    config = {"n": args.n, "seed": args.seed, "cutoff": args.cutoff}
    f = _random_input(args.n, args.seed)
    grid = RadialGrid(cutoff=args.cutoff) if args.cutoff != 200.0 else None
    field = extend(f, grid=grid)
    rep = decay_check(field)
    payload = {
        "n": args.n,
        "l2": float(l2_norm(f)),
        "l6": float(l6_norm(field)),
        "origin_value": [float(field.origin_value.real), float(field.origin_value.imag)],
        "decay_sup": float(rep.sup),
        "decay_envelope": float(rep.envelope),
        "coefficients": _coeff_pairs(f),
    }

    def oracle():
        phi = ts_functional(f)
        gap = abs(payload["l6"] ** 6 / TAU ** 2 - phi) / max(phi, 1e-300)
        return {"sixth_power_vs_functional_rel": float(gap)}

    return config, payload, oracle


def cmd_density(args):
    config = {"k": args.k, "n_points": args.n_points, "seed": args.seed,
              "cutoff": args.cutoff}
    dens = auto_density(args.k, n_points=args.n_points,
                        grid=default_grid(args.cutoff))
    payload = {
        "k": dens.k,
        "mass": float(dens.mass),
        "mass_expected": float(dens.mass_expected),
        "sup": float(dens.sup()),
        "arg_sup": float(dens.arg_sup()),
        "exclusion": float(dens.exclusion),
        "singular_radii": [float(r) for r in dens.singular_radii],
        "radii": [float(r) for r in dens.radii],
        "values": [float(v) if ok else None
                   for v, ok in zip(dens.values, dens.valid)],
    }

    def oracle():
        out = {"mass_rel_error": abs(dens.mass - dens.mass_expected) / dens.mass_expected}
        if args.k == 2:
            rr = np.array([0.3, 0.9, 1.5])
            exact = 4.0 / (rr * np.sqrt(4.0 - rr ** 2))
            got = np.array([mu_value(2, float(r)) for r in rr])
            out["closed_form_max_gap"] = float(np.max(np.abs(got - exact)))
        if args.k == 5:
            from .variational import lambda0_value
            out["value_at_1_vs_lambda0_rel"] = float(
                abs(mu_value(5, 1.0) - lambda0_value()) / lambda0_value())
        return out

    return config, payload, oracle


def cmd_sup_bound(args):
    config = {"k": args.k, "n_points": args.n_points, "seed": args.seed,
              "cutoff": args.cutoff}
    grid = default_grid(args.cutoff)
    rep = sup_bound_check(args.k, n_points=args.n_points, grid=grid)
    payload = {
        "k": rep.k,
        "sup": float(rep.sup),
        "at_radius": float(rep.at_radius),
        "mass_rel_error": float(abs(rep.mass - rep.mass_expected) / rep.mass_expected),
        "n_points": rep.n_points,
        "exclusion": float(rep.exclusion),
    }

    def oracle():
        fine = sup_bound_check(args.k, n_points=2 * args.n_points - 1,
                               grid=grid)
        drift = abs(fine.sup - rep.sup) / max(abs(rep.sup), 1e-300)
        return {"sup_drift_on_doubling": float(drift)}

    return config, payload, oracle


def cmd_functional(args):
    config = {"n": args.n, "seed": args.seed,
              "tensor": str(args.tensor) if args.tensor else None}
    tensor = _load_tensor(args.tensor)
    f = _random_input(args.n, args.seed)
    phi = ts_functional(f, tensor=tensor)
    nrm = l2_norm(f)
    payload = {
        "n": args.n,
        "phi": float(phi),
        "quotient": float(quotient(f)),
        "lambda_fit": float(phi / nrm ** 2),
        "l2": float(nrm),
        "coefficients": _coeff_pairs(f),
    }

    def oracle():
        l6 = l6_norm(extend(f))
        gap = abs(l6 ** 6 / TAU ** 2 - phi) / max(phi, 1e-300)
        return {"sixth_power_vs_functional_rel": float(gap)}

    return config, payload, oracle


def cmd_el_residual(args):
    config = {"n": args.n, "seed": args.seed,
              "tensor": str(args.tensor) if args.tensor else None}
    tensor = _load_tensor(args.tensor)
    f = _random_input(args.n, args.seed)
    rep = el_residual(f, tensor=tensor)
    payload = {
        "n": args.n,
        "lambda_fit": float(rep.lambda_fit),
        "lambda_from_quotient": float(rep.lambda_from_quotient),
        "quotient": float(rep.quotient),
        "residual_l2": float(rep.residual_l2),
        "residual_rel": float(rep.residual_rel),
        "residual_sup": float(rep.residual_sup),
        "leakage": float(rep.leakage),
    }

    def oracle():
        gap = abs(rep.lambda_fit - rep.lambda_from_quotient) / rep.lambda_fit
        return {"lambda_route_agreement_rel": float(gap)}

    return config, payload, oracle


def cmd_solve(args):
    config = {"n": args.n, "seed": args.seed, "max_iter": args.max_iter}
    res = ascend(config=AscentConfig(n=args.n, seed=args.seed,
                                     max_iter=args.max_iter))
    payload = {
        "n": args.n,
        "quotient": float(res.quotient),
        "phi": float(res.phi),
        "lambda_fit": float(res.lambda_fit),
        "iterations": int(res.iterations),
        "converged": bool(res.converged),
        "gap_to_constant_quotient": float(abs(res.quotient - quotient(constant_function(1.0)))),
        "coefficients": _coeff_pairs(res.f),
    }

    def oracle():
        rep = el_residual(res.f)
        return {"el_residual_rel": float(rep.residual_rel),
                "el_residual_sup": float(rep.residual_sup)}

    return config, payload, oracle


def cmd_picard(args):
    config = {"n": args.n, "seed": args.seed, "eps": args.eps}
    res = ascend(config=AscentConfig(n=args.n, seed=args.seed))
    rep = picard_iterate(res.f, eps=args.eps)
    payload = {
        "eps": float(rep.eps),
        "K": int(rep.K),
        "s_norm": float(rep.s_norm),
        "lambda_used": float(rep.lambda_used),
        "iterations": int(rep.iterations),
        "converged": bool(rep.converged),
        "max_ratio": float(rep.max_ratio),
        "ratios_l2": [float(r) for r in rep.ratios_l2],
        "ratios_s": [float(r) for r in rep.ratios_s],
        "h_minus_g_l2": float(rep.h_minus_g_l2),
        "h_norm": float(rep.h_norm),
        "ball_radius": float(rep.ball_radius),
        "inside_ball": bool(rep.inside_ball),
    }

    def oracle():
        from .solver import decompose
        lam = rep.lambda_used
        scaled = res.f * float(lam) ** -0.25
        phi, g, _ = decompose(scaled, args.eps)
        return {"expansion_identity_rel": float(expansion_residual(phi, g))}

    return config, payload, oracle


def cmd_split(args):
    config = {"n": args.n, "seed": args.seed, "eta": args.eta, "s_scale": args.s}
    f = _random_input(args.n, args.seed)
    rep = sharp_flat_split(f, args.eta, s_scale=args.s)
    payload = {
        "eta": float(rep.eta),
        "K": int(rep.K),
        "l2_flat": float(rep.l2_flat),
        "lip_sharp": float(rep.lip_sharp),
        "scale_norm": float(rep.scale_norm),
        "s_scale": float(rep.s_scale),
    }

    def oracle():
        recomb = l2_norm((rep.sharp + rep.flat) - f)
        return {"recombination_l2_error": float(recomb),
                "flat_below_threshold": bool(rep.l2_flat <= args.eta * rep.scale_norm + 1e-12)}

    return config, payload, oracle


def cmd_smoothing(args):
    config = {"n": args.n, "seed": args.seed}
    rep = smoothing_experiment(n=args.n)
    payload = {
        "n": rep.n,
        "input_slope": float(rep.input_slope),
        "output_slope": float(rep.output_slope),
        "gain": float(rep.gain),
        "in_band": [int(b) for b in rep.in_band],
        "out_band": [int(b) for b in rep.out_band],
        "lip_coarse": float(rep.lip_coarse),
        "lip_fine": float(rep.lip_fine),
        "lip_drift": float(rep.lip_drift),
    }

    def oracle():
        # square-wave coefficients are exactly c_n ~ 1/n, so slope -1
        return {"input_slope_gap_from_minus_one": float(abs(rep.input_slope + 1.0))}

    return config, payload, oracle


def cmd_constant(args):
    config = {"method": args.method, "n": args.n, "seed": args.seed}
    rep = constant_estimate(method=args.method, n=args.n, seed=args.seed)
    payload = {
        "value": float(rep.value),
        "t0": None if rep.t0 is None else float(rep.t0),
        "lambda0": None if rep.lambda0 is None else float(rep.lambda0),
        "method": rep.method,
        "label": rep.label,
        "note": ("value is the best constant for the sixth-power inequality: "
                 "sup of ||extension||_L6 / ||f||_L2 over the unit sphere"),
    }

    def oracle():
        vals = [t0_value(RadialGrid(cutoff=p)) for p in (200.0, 400.0, 800.0)]
        return {"t0_regimes": [float(v) for v in vals],
                "t0_regime_spread": float(max(vals) - min(vals))}

    return config, payload, oracle


def cmd_regularity_profile(args):
    config = {"n": args.n, "seed": args.seed}
    f = _random_input(args.n, args.seed)
    prof = regularity_profile(f)
    d = prof.to_dict()
    payload = {
        "n": args.n,
        "l2": d["l2"],
        "decay_slope": d["decay_slope"],
        "decay_band": d["decay_band"],
        "calH": d["calH"],
        "holder": d["holder"],
    }

    def oracle():
        from .regularity import calH_estimate
        gap = abs(calH_estimate(f, 0.0) - l2_norm(f))
        return {"calH_zero_vs_l2_gap": float(gap)}

    return config, payload, oracle


_HANDLERS = {
    "tensor-build": cmd_tensor_build,
    "extend": cmd_extend,
    "density": cmd_density,
    "sup-bound": cmd_sup_bound,
    "functional": cmd_functional,
    "el-residual": cmd_el_residual,
    "solve": cmd_solve,
    "picard": cmd_picard,
    "split": cmd_split,
    "smoothing": cmd_smoothing,
    "constant": cmd_constant,
    "regularity-profile": cmd_regularity_profile,
}

# commands whose payload carries a natural table for --format csv
_CSV_TABLES = {
    "density": ("radii", "values", ["r", "value"]),
}


def _write_csv(env: dict, stream) -> None:
    command = env["command"]
    if command == "tensor-build":
        raise ConfigError("csv export of a tensor cache: use the cache file itself")
    if command not in _CSV_TABLES:
        raise ConfigError(f"--format csv is not supported for {command!r}")
    xkey, ykey, header = _CSV_TABLES[command]
    for k, v in sorted(env["config"].items()):
        stream.write(f"# {k}={v}\n")
    stream.write(",".join(header) + "\n")
    for x, y in zip(env["payload"][xkey], env["payload"][ykey]):
        stream.write(f"{x!r},{'' if y is None else repr(y)}\n")


def _emit(env: dict, args) -> None:
    validate_envelope(env)
    if args.format == "csv":
        if args.out:
            with open(args.out, "w") as fh:
                _write_csv(env, fh)
        else:
            _write_csv(env, sys.stdout)
        return
    text = json.dumps(env, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


_DEFAULT_N = {"tensor-build": 4, "solve": 16, "picard": 16, "smoothing": 64,
              "constant": 16, "el-residual": 0}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tscircle",
        description="circle-extension numerical laboratory (one experiment per run)")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--n", type=int, default=_DEFAULT_N.get(name, 8))
        sp.add_argument("--cutoff", type=float, default=200.0)
        sp.add_argument("--eps", type=float, default=0.05)
        sp.add_argument("--eta", type=float, default=0.1)
        sp.add_argument("--s", type=float, default=0.5)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tensor", type=str, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--verify", action="store_true")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if name in ("density", "sup-bound"):
            sp.add_argument("--k", type=int, default=5, choices=(2, 3, 4, 5))
            sp.add_argument("--n-points", type=int,
                            default=801 if name == "density" else 1001)
        if name == "solve":
            sp.add_argument("--max-iter", type=int, default=500)
        if name == "constant":
            sp.add_argument("--method", choices=("constants", "solver"),
                            default="constants")
    return p


def run(command: str, args) -> dict:
    """Dispatch one command; returns the validated envelope.

    Compute commands never build a tensor cache on their own: without
    --tensor they take the direct polar route, so only an explicit
    tensor-build ever pays the enumeration cost.
    """
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    t0 = time.perf_counter()
    config, payload, oracle_fn = _HANDLERS[command](args)
    oracle = oracle_fn() if args.verify else None
    wall = time.perf_counter() - t0
    env = make_envelope(command, config, payload, oracle, wall)
    validate_envelope(env)
    return env


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        env = run(args.command, args)
        _emit(env, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # last resort: keep the exit-code contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
