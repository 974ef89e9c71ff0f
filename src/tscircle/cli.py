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
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from typing import Callable

import numpy as np
from scipy import special as _sp

from . import __version__
from .bessel import (DEFAULT_CUTOFF, BesselTensor, build_tensor, default_grid,
                     radial_integrate, six_bessel_integral)
from .errors import CacheError, ConfigError, NumericalError, PreconditionError
from .extension import decay_check, extend, l6_norm
from .quintic import _ring_mean, auto_density, el_quintic, mu_value
from .regularity import (calH_estimate, decay_slope, regularity_profile,
                         sharp_flat_split, smoothing_experiment, square_wave)
from .solver import (AscentConfig, ascend, decompose, expansion_residual,
                     picard_iterate)
from .spectral import (TAU, CircleFunction, constant_function, l2_norm,
                       modulate, random_function)
from .variational import (constant_from_t0, el_residual, lambda0_value, quotient,
                          t0_value, ts_functional)

def _jsonable(x):
    """Recursively coerce numpy/dataclass values into plain JSON types.

    Complex numbers become [re, im] pairs so payloads stay valid JSON while
    round-tripping exactly (float repr is deterministic for a given double).
    Python floats in a list pass through, and a real, integer or boolean
    array is its tolist(), which holds only plain floats, ints and bools
    (not for long doubles, which tolist() keeps as numpy scalars).
    """
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return _jsonable(dataclasses.asdict(x))
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [v if type(v) is float else _jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        if x.dtype.kind in "fiub" and x.dtype != np.longdouble:
            return x.tolist()
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


def make_envelope(command: str, config: dict, payload,
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
    want = COMMANDS[env["command"]].payload_keys
    have = set(env["payload"])
    if not want <= have:
        raise ConfigError(f"payload for {env['command']} missing keys: {sorted(want - have)}")
    if env["oracle"] is not None and not isinstance(env["oracle"], dict):
        raise ConfigError("oracle must be null or a JSON object")


def cache_roundtrip(tensor: BesselTensor, path) -> BesselTensor:
    """Write `tensor` to `path`, read it back, and insist on bit identity."""
    try:
        tensor.save(path)
        loaded = BesselTensor.load(path)
    except OSError as exc:
        raise ConfigError(f"--tensor {path}: {exc.strerror}") from exc
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


def _load_tensor(path, cutoff: float) -> BesselTensor:
    if path is None:
        return None
    try:
        tensor = BesselTensor.load(path)
    except OSError as exc:
        raise ConfigError(f"--tensor {path}: {exc.strerror}") from exc
    if tensor.cutoff != cutoff:
        raise ConfigError(f"--cutoff {cutoff:g} differs from the cutoff "
                          f"{tensor.cutoff:g} stored in {path}")
    return tensor


def _random_input(n: int, seed: int) -> CircleFunction:
    if n == 0:
        return constant_function(1.0)
    return random_function(n, seed=seed, decay=0.8)


# ---------------------------------------------------------------------------
# the command table

# argparse settings of each flag; the defaults are per command, in COMMANDS
_FLAGS = {
    "--n": {"type": int}, "--n-points": {"type": int}, "--max-iter": {"type": int},
    "--seed": {"type": int}, "--k": {"type": int, "choices": (2, 3, 4, 5)},
    "--cutoff": {"type": float}, "--eps": {"type": float}, "--eta": {"type": float},
    "--s": {"type": float, "dest": "s_scale"},
    "--tensor": {"type": str}, "--out": {"type": str},
    "--format": {"choices": ("json", "csv")}, "--verify": {"action": "store_true"},
}

# flags of every command
_COMMON_FLAGS = {"--out": None, "--verify": False}


def _dest(flag: str) -> str:
    return _FLAGS[flag].get("dest", flag[2:].replace("-", "_"))


@dataclass(frozen=True)
class Command:
    """A handler, the flags it reads with this command's defaults, the
    payload keys it must emit and, if it has one, the payload table
    (x key, y key, header) that --format csv writes.  The parser accepts
    `flags` and _COMMON_FLAGS (and --format with a csv table).  config
    records `flags`; a command that reads no --seed records it as null,
    because every envelope keeps the seed's key."""
    handler: Callable
    flags: dict
    payload_keys: set
    csv: tuple | None = None

    def parser_flags(self) -> dict:
        flags = {**self.flags, **_COMMON_FLAGS}
        if self.csv:
            flags["--format"] = "json"
        return flags

    def config(self, args) -> dict:
        return {"seed": None,
                **{_dest(f): getattr(args, _dest(f)) for f in self.flags}}


COMMANDS: dict[str, Command] = {}


def command(name: str, flags: dict, payload_keys: set, csv: tuple | None = None):
    """Register the decorated handler in COMMANDS under `name`."""
    def register(handler):
        COMMANDS[name] = Command(handler, flags, payload_keys, csv)
        return handler
    return register


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, oracle_fn), the payload a dict
# or a report dataclass; run() records the flags the command declares and
# reads as its config

@command("tensor-build", {"--n": 4, "--cutoff": DEFAULT_CUTOFF, "--tensor": None},
         {"n", "cutoff", "n_entries", "t_zero"})
def cmd_tensor_build(args):
    if args.tensor is None:  # set on args so that config records the path used
        args.tensor = f"tensor_n{args.n}.b6t"
    grid = default_grid(args.cutoff)
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

    return payload, oracle


@command("extend", {"--n": 8, "--seed": 0, "--cutoff": DEFAULT_CUTOFF},
         {"n", "l6", "origin_value", "decay_sup", "decay_envelope"})
def cmd_extend(args):
    f = _random_input(args.n, args.seed)
    grid = default_grid(args.cutoff)
    field = extend(f, grid)
    rep = decay_check(field)
    payload = {
        "n": args.n,
        "l2": float(l2_norm(f)),
        "l6": float(l6_norm(field)),
        "origin_value": field.origin_value,
        "decay_sup": float(rep.sup),
        "decay_envelope": float(rep.envelope),
        "coefficients": f.coeffs,
    }

    def oracle():
        phi = ts_functional(f, grid=grid)
        gap = abs(payload["l6"] ** 6 / TAU ** 2 - phi) / max(phi, 1e-300)
        return {"sixth_power_vs_functional_rel": float(gap)}

    return payload, oracle


@command("density", {"--k": 5, "--n-points": 801},
         {"k", "mass", "mass_expected", "sup", "arg_sup"},
         csv=("radii", "values", ("r", "value")))
def cmd_density(args):
    dens = auto_density(args.k, n_points=args.n_points)
    payload = {
        "k": dens.k,
        "mass": float(dens.mass),
        "mass_expected": float(dens.mass_expected),
        "sup": dens.sup(),
        "arg_sup": dens.arg_sup(),
        "exclusion": float(dens.exclusion),
        "singular_radii": [float(r) for r in dens.singular_radii],
        "radii": [float(r) for r in dens.radii],
        "values": [float(v) if ok else None
                   for v, ok in zip(dens.values, dens.valid)],
    }

    def oracle():
        # the sup on 2n - 1 radii, half the spacing; none where mu_k has none
        sup, drift = dens.sup(), None
        if sup is not None:
            fine = auto_density(args.k, n_points=2 * args.n_points - 1).sup()
            drift = abs(fine - sup) / sup
        out = {"sup_drift_on_doubling": drift}
        # the closed forms' mass is (2 pi)^k by construction: no oracle
        if args.k >= 4:
            out["mass_rel_error"] = (abs(dens.mass - dens.mass_expected)
                                     / dens.mass_expected)
        else:
            # the closed form against (2 pi)^k A(r, s), the convolution
            # route's kernel, with s the length of the other k - 2 steps
            rr = np.array([0.3, 0.9, 1.5] if args.k == 2 else [0.5, 1.5, 2.5])
            exact = np.array([mu_value(args.k, r) for r in rr])
            got = TAU ** args.k * _ring_mean(rr, float(args.k - 2))
            out["convolution_route_max_rel_gap"] = float(
                np.max(np.abs(got - exact) / exact))
        if args.k == 5:
            # lambda_0 carries the two-term tail model's error at P = 200
            lam0 = lambda0_value(default_grid())
            out["value_at_1_vs_lambda0_rel"] = float(
                abs(mu_value(5, 1.0) - lam0) / lam0)
        return out

    return payload, oracle


@command("functional", {"--n": 8, "--seed": 0,
                        "--cutoff": DEFAULT_CUTOFF, "--tensor": None},
         {"n", "phi", "quotient", "lambda_fit"})
def cmd_functional(args):
    tensor = _load_tensor(args.tensor, args.cutoff)
    grid = default_grid(args.cutoff)
    f = _random_input(args.n, args.seed)
    phi = ts_functional(f, tensor=tensor, grid=grid)
    nrm = l2_norm(f)
    quo = quotient(f, grid)
    payload = {
        "n": args.n,
        "phi": float(phi),
        "quotient": float(quo),
        "lambda_fit": float(phi / nrm ** 2),
        "l2": float(nrm),
        "coefficients": f.coeffs,
    }

    def oracle():
        gap = abs((quo * nrm) ** 6 / TAU ** 2 - phi) / max(phi, 1e-300)
        return {"sixth_power_vs_functional_rel": float(gap)}

    return payload, oracle


@command("el-residual", {"--n": 0, "--seed": 0,
                         "--cutoff": DEFAULT_CUTOFF, "--tensor": None},
         {"n", "residual_rel", "residual_sup", "leakage", "lambda_fit"})
def cmd_el_residual(args):
    tensor = _load_tensor(args.tensor, args.cutoff)
    f = _random_input(args.n, args.seed)
    rep = el_residual(f, tensor=tensor, grid=default_grid(args.cutoff))
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

    return payload, oracle


@command("solve", {"--n": 16, "--seed": 0,
                   "--max-iter": 500, "--cutoff": DEFAULT_CUTOFF},
         {"n", "quotient", "phi", "iterations", "converged", "stop"})
def cmd_solve(args):
    grid = default_grid(args.cutoff)
    res = ascend(config=AscentConfig(n=args.n, seed=args.seed,
                                     max_iter=args.max_iter), grid=grid)
    payload = {
        "n": args.n,
        "quotient": float(res.quotient),
        "phi": float(res.phi),
        "iterations": int(res.iterations),
        "converged": bool(res.converged),
        "stop": res.stop,
        "gap_to_constant_quotient": float(abs(
            res.quotient - quotient(constant_function(1.0), grid))),
        "coefficients": res.f.coeffs,
    }

    def oracle():
        rep = el_residual(res.f, grid=grid)
        # Phi is translation invariant: the change shows the tail's defect
        moved = ts_functional(modulate(res.f, (3.0, 0.0)), grid=grid)
        return {"el_residual_rel": float(rep.residual_rel),
                "el_residual_sup": float(rep.residual_sup),
                "translation_defect": float(moved / res.phi - 1.0)}

    return payload, oracle


@command("picard", {"--n": 16, "--seed": 0, "--eps": 0.05, "--cutoff": DEFAULT_CUTOFF},
         {"eps", "K", "max_ratio", "h_minus_g_l2", "converged"})
def cmd_picard(args):
    grid = default_grid(args.cutoff)
    res = ascend(config=AscentConfig(n=args.n, seed=args.seed), grid=grid)
    rep = picard_iterate(res.f, eps=args.eps, grid=grid)
    payload = {
        "eps": float(rep.eps),
        "K": int(rep.K),
        "s_norm": float(rep.s_norm),
        "lambda_used": float(rep.lambda_used),
        "iterations": int(rep.iterations),
        "converged": bool(rep.converged),
        "max_ratio": float(rep.max_ratio) if len(rep.ratios_l2) > 1 else None,
        "ratios_l2": [float(r) for r in rep.ratios_l2],
        "ratios_s": [float(r) for r in rep.ratios_s],
        "h_minus_g_l2": float(rep.h_minus_g_l2),
        "h_norm": float(rep.h_norm),
        "ball_radius": float(rep.ball_radius),
        "inside_ball": bool(rep.inside_ball),
    }

    def oracle():
        lam = rep.lambda_used
        scaled = res.f * float(lam) ** -0.25
        phi, g, _ = decompose(scaled, args.eps)
        return {"expansion_identity_rel":
                float(expansion_residual(phi, g, grid))}

    return payload, oracle


@command("split", {"--n": 8, "--seed": 0, "--eta": 0.1, "--s": 0.5},
         {"eta", "K", "l2_flat", "lip_sharp"})
def cmd_split(args):
    f = _random_input(args.n, args.seed)
    rep = sharp_flat_split(f, args.eta, s_scale=args.s_scale)
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

    return payload, oracle


@command("smoothing", {"--n": 64, "--cutoff": DEFAULT_CUTOFF},
         {"n", "gain", "input_slope", "output_slope", "lip_drift"})
def cmd_smoothing(args):
    rep = smoothing_experiment(n=args.n, grid=default_grid(args.cutoff))

    def oracle():
        # the same square wave through Q at twice the cutoff
        Q = el_quintic(square_wave(args.n), default_grid(2.0 * args.cutoff))
        fine = decay_slope(Q, band=rep.band).slope
        return {"output_slope_gap_on_doubling": float(abs(rep.output_slope - fine))}

    return rep, oracle


@command("constant", {"--cutoff": DEFAULT_CUTOFF},
         {"value", "t0", "lambda0", "note"})
def cmd_constant(args):
    grid = default_grid(args.cutoff)
    t0 = t0_value(grid)
    payload = {
        "value": float(constant_from_t0(t0)),
        "t0": float(t0),
        "lambda0": float(TAU ** 4 * t0),
        "note": ("value is R(1) = ((2 pi)^7 t0)^(1/6) / sqrt(2 pi), the "
                 "sixth-power quotient ||extension||_L6 / ||f||_L2 at the "
                 "constants: a critical value, a local maximum (Carneiro, "
                 "Foschi, Oliveira e Silva, Thiele 2017), and conjecturally "
                 "the best constant"),
    }

    def oracle():
        vals = [t0_value(default_grid(p)) for p in (200.0, 400.0, 800.0)]
        # translation in the plane leaves Phi invariant, so the constant's
        # second variation along e_{+-1} is exactly 1: 5 a_1 = T0 with
        # a_1 = int J_0^4 J_1^2 rho drho.  The two-term tail breaks this at
        # O(P^-3), and the defect reports by how much at this cutoff.
        a1 = six_bessel_integral(0, 0, 1, 0, 0, 1, grid)
        return {"t0_regimes": [float(v) for v in vals],
                "t0_regime_spread": float(max(vals) - min(vals)),
                "translation_defect": float(1.0 - 5.0 * a1 / t0)}

    return payload, oracle


@command("regularity-profile", {"--n": 8, "--seed": 0},
         {"n", "l2", "decay_slope", "calH", "holder"})
def cmd_regularity_profile(args):
    f = _random_input(args.n, args.seed)
    payload = regularity_profile(f).to_dict()

    def oracle():
        gap = abs(calH_estimate(f, 0.0) - l2_norm(f))
        return {"calH_zero_vs_l2_gap": float(gap)}

    return payload, oracle


def _csv_text(env: dict) -> str:
    xkey, ykey, header = COMMANDS[env["command"]].csv
    lines = [f"# {k}={v}" for k, v in sorted(env["config"].items())]
    lines.append(",".join(header))
    lines += [f"{x!r},{'' if y is None else repr(y)}"
              for x, y in zip(env["payload"][xkey], env["payload"][ykey])]
    return "\n".join(lines) + "\n"


def _emit(env: dict, args) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _csv_text(env)
    else:
        try:
            text = json.dumps(env, sort_keys=True, indent=2,
                              allow_nan=False) + "\n"
        except ValueError as exc:        # NaN or Infinity is not JSON
            raise NumericalError(f"non-finite output number: {exc}") from exc
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, accepting only the flags it reads, each
    spelled in full: a prefix such as `--n` for `--n-points` exits 2.
    Built once per process; parsing leaves the parser unchanged."""
    p = argparse.ArgumentParser(
        prog="tscircle",
        description="circle-extension numerical laboratory (one experiment per run)")
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag, default in cmd.parser_flags().items():
            sp.add_argument(flag, default=default, **_FLAGS[flag])
    return p


def run(command: str, args) -> dict:
    """Dispatch one command; returns the validated envelope.

    Compute commands never build a tensor cache on their own: without
    --tensor they take the direct polar route, so only an explicit
    tensor-build ever pays the enumeration cost.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    cmd = COMMANDS[command]
    t0 = time.perf_counter()
    payload, oracle_fn = cmd.handler(args)
    oracle = oracle_fn() if args.verify else None
    wall = time.perf_counter() - t0
    env = make_envelope(command, cmd.config(args), payload, oracle, wall)
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
