"""Envelope schema, reproducibility, exit codes, and artifact files."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tscircle import (AscentConfig, BesselTensor, RadialGrid, ascend,
                      auto_density, build_tensor, decompose, default_grid,
                      el_residual, expansion_residual, extend, l6_norm,
                      lambda0_value, mu_value, picard_iterate, quotient,
                      random_function, smoothing_experiment, t0_value,
                      ts_functional)
from tscircle.cli import (
    COMMANDS,
    _jsonable,
    build_parser,
    cache_roundtrip,
    main,
    make_envelope,
    validate_envelope,
)
import tscircle.bessel
from tscircle.errors import CacheError, ConfigError, DivergenceError
from tscircle.quintic import _density_route

# the flags each command reads besides --out and --verify, which every
# command takes; stated here independently of the command table
READS = {
    "tensor-build": {"--n", "--cutoff", "--tensor"},
    "extend": {"--n", "--seed", "--cutoff"},
    "density": {"--k", "--n-points", "--format"},
    "functional": {"--n", "--seed", "--cutoff", "--tensor"},
    "el-residual": {"--n", "--seed", "--cutoff", "--tensor"},
    "solve": {"--n", "--seed", "--max-iter", "--cutoff"},
    "picard": {"--n", "--seed", "--eps", "--cutoff"},
    "split": {"--n", "--seed", "--eta", "--s"},
    "smoothing": {"--n", "--cutoff"},
    "constant": {"--cutoff"},
    "regularity-profile": {"--n", "--seed"},
}
SEEDED = sorted(name for name, flags in READS.items() if "--seed" in flags)
SHARED_FLAGS = {"--n", "--cutoff", "--eps", "--eta", "--s", "--seed",
                "--tensor", "--out", "--verify", "--format"}


def dest(flag):
    return {"--s": "s_scale"}.get(flag, flag[2:].replace("-", "_"))


def good_envelope():
    return make_envelope(
        "functional", {"n": 4, "seed": 0},
        {"n": 4, "phi": 1.0, "quotient": 1.0, "lambda_fit": 1.0},
        None, 0.1)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    assert rc == 0, argv
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def test_validate_accepts_real_envelope():
    validate_envelope(good_envelope())  # no raise


@pytest.mark.parametrize("mutate,label", [
    (lambda e: e.pop("payload"), "missing field"),
    (lambda e: e.update(command="frobnicate"), "unknown command"),
    (lambda e: e.update(version=""), "empty version"),
    (lambda e: e.update(config={"n": 4}), "config without seed"),
    (lambda e: e.update(wall_clock_s=-1.0), "negative wall clock"),
    (lambda e: e.update(created_utc="yesterday-ish"), "bad timestamp"),
    (lambda e: e["payload"].pop("phi"), "payload missing keys"),
    (lambda e: e.update(oracle=[1, 2]), "non-dict oracle"),
])
def test_validate_rejects(mutate, label):
    env = good_envelope()
    mutate(env)
    with pytest.raises(ConfigError):
        validate_envelope(env)


def test_command_table_consistent():
    # every command parses at its defaults into exactly the flags it reads,
    # and has a payload contract
    assert set(COMMANDS) == set(READS)
    parser = build_parser()
    for name in COMMANDS:
        args = parser.parse_args([name])
        assert args.command == name
        assert set(vars(args)) == ({"command", "out", "verify"}
                                   | {dest(f) for f in READS[name]})
        assert COMMANDS[name].payload_keys


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_functional_run_schema_and_verify(tmp_path):
    env = run_to_file(tmp_path, "f.json", [
        "functional", "--n", "4", "--seed", "7", "--verify"])
    validate_envelope(env)
    assert env["command"] == "functional"
    assert env["config"]["seed"] == 7
    assert env["payload"]["phi"] > 0
    # --verify ran the independent route and recorded the gap
    assert env["oracle"]["sixth_power_vs_functional_rel"] < 1e-6


def test_oracle_absent_without_verify(tmp_path):
    env = run_to_file(tmp_path, "f.json", ["functional", "--n", "4"])
    assert env["oracle"] is None


def test_payload_byte_reproducible(tmp_path):
    pairs = [
        ["functional", "--n", "4", "--seed", "11"],
        ["density", "--k", "2", "--n-points", "51"],
        ["el-residual", "--n", "0"],
    ]
    for argv in pairs:
        a = run_to_file(tmp_path, "a.json", list(argv))
        b = run_to_file(tmp_path, "b.json", list(argv))
        pa = json.dumps(a["payload"], sort_keys=True)
        pb = json.dumps(b["payload"], sort_keys=True)
        assert pa == pb, argv
        assert a["config"] == b["config"]


def test_constant_command_reports_convention(tmp_path):
    env = run_to_file(tmp_path, "c.json", ["constant"])
    assert env["payload"]["value"] > 0
    assert "sixth" in env["payload"]["note"]
    assert env["payload"]["t0"] == pytest.approx(0.336827961766468, rel=1e-6)


def test_constant_uses_cutoff(tmp_path):
    env = run_to_file(tmp_path, "c.json", ["constant", "--cutoff", "400"])
    assert env["config"]["cutoff"] == 400.0
    assert env["payload"]["t0"] == t0_value(RadialGrid(400))


def test_constant_verify_reads_cached_grids(tmp_path, monkeypatch):
    # the oracle's three T0 regimes come from the cached product grids,
    # bit for bit the values of fresh grids, so a second run in the same
    # process builds no Bessel rows at all
    env = run_to_file(tmp_path, "c.json", ["constant", "--verify"])
    assert env["oracle"]["t0_regimes"] == [
        t0_value(RadialGrid(cutoff=p)) for p in (200.0, 400.0, 800.0)]
    builds = []
    real = tscircle.bessel._miller_block

    def counting(*args, **kwargs):
        builds.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(tscircle.bessel, "_miller_block", counting)
    again = run_to_file(tmp_path, "d.json", ["constant", "--verify"])
    assert again["oracle"] == env["oracle"]
    assert builds == []


def test_constant_verify_reports_the_translation_defect(tmp_path):
    # 1 - 5 a_1/T0 at the run's cutoff: 1.49e-8 at P = 200, falling like
    # the two-term tail's P^-3 (8x per doubling) to 1.87e-9 at P = 400;
    # the payload does not carry it
    defect = {}
    for P in ("200", "400"):
        env = run_to_file(tmp_path, f"c{P}.json",
                          ["constant", "--cutoff", P, "--verify"])
        assert "translation_defect" not in env["payload"]
        defect[P] = env["oracle"]["translation_defect"]
    assert defect["200"] == pytest.approx(1.49e-8, rel=0.05)
    assert 7.0 <= defect["200"] / defect["400"] <= 9.0


def test_solve_verify_reports_the_translation_defect(tmp_path):
    # the relative change of polar Phi when the run's extremizer is
    # translated by |xi| = 3: -2.11e-7 at n = 16, seed 0, P = 200, where
    # the constant's own is -(3/2) 9 (1 - 5 a_1/T0) = -2.01e-7; the
    # payload does not carry it
    env = run_to_file(tmp_path, "s.json", ["solve", "--verify"])
    assert "translation_defect" not in env["payload"]
    assert env["oracle"]["translation_defect"] == pytest.approx(-2.11e-7,
                                                                rel=0.05)


def test_density_reports_auto_density(tmp_path):
    # density takes no cutoff: the convolution route has none
    env = run_to_file(tmp_path, "d.json", [
        "density", "--k", "5", "--n-points", "51", "--verify"])
    direct = auto_density(5, 51)
    assert "cutoff" not in env["config"]
    assert env["payload"]["mass"] == float(direct.mass)
    assert env["payload"]["values"] == [
        float(v) if ok else None for v, ok in zip(direct.values, direct.valid)]
    # the oracle reads lambda_0's two-term tail error at P = 200
    lam0 = lambda0_value(default_grid())
    assert env["oracle"]["value_at_1_vs_lambda0_rel"] == float(
        abs(mu_value(5, 1.0) - lam0) / lam0)
    assert env["oracle"]["value_at_1_vs_lambda0_rel"] == pytest.approx(
        3.72e-9, rel=0.05)
    # and the Simpson mass of the profile against (2 pi)^5
    assert env["oracle"]["mass_rel_error"] == float(
        abs(direct.mass - direct.mass_expected) / direct.mass_expected)
    # the sup, where it sits, and its drift on 2n - 1 radii
    assert env["payload"]["sup"] == direct.sup()
    assert env["payload"]["arg_sup"] == direct.arg_sup()
    fine = auto_density(5, 101).sup()
    assert env["oracle"]["sup_drift_on_doubling"] == float(
        abs(fine - direct.sup()) / direct.sup())


def test_sup_bound_is_not_a_command(capsys):
    # density reports the sup and, with --verify, its drift on doubling
    with pytest.raises(SystemExit) as exc:
        main(["sup-bound"])
    assert exc.value.code == 2
    assert "sup-bound" in capsys.readouterr().err


def test_functional_uses_cutoff(tmp_path):
    grid = RadialGrid(400)
    f = random_function(4, seed=3, decay=0.8)
    argv = ["--n", "4", "--seed", "3", "--cutoff", "400"]
    env = run_to_file(tmp_path, "f.json", ["functional"] + argv)
    assert env["config"]["cutoff"] == 400.0
    assert env["payload"]["phi"] == ts_functional(f, grid=grid)
    assert env["payload"]["quotient"] == quotient(f, grid)
    env = run_to_file(tmp_path, "r.json", ["el-residual"] + argv)
    assert env["config"]["cutoff"] == 400.0
    assert env["payload"]["lambda_fit"] == el_residual(f, grid=grid).lambda_fit
    env = run_to_file(tmp_path, "e.json", ["extend"] + argv)
    assert env["config"]["cutoff"] == 400.0
    assert env["payload"]["l6"] == l6_norm(extend(f, grid))


def test_solver_commands_use_cutoff(tmp_path):
    grid = RadialGrid(400)
    env = run_to_file(tmp_path, "s.json", [
        "solve", "--n", "4", "--max-iter", "50", "--cutoff", "400"])
    res = ascend(config=AscentConfig(n=4, seed=0, max_iter=50), grid=grid)
    assert env["config"]["cutoff"] == 400.0
    assert env["payload"]["quotient"] == res.quotient
    assert env["payload"]["stop"] == res.stop

    env = run_to_file(tmp_path, "p.json", [
        "picard", "--n", "6", "--cutoff", "400", "--verify"])
    f = ascend(config=AscentConfig(n=6, seed=0), grid=grid).f
    rep = picard_iterate(f, eps=0.05, grid=grid)
    phi, g, _ = decompose(f * rep.lambda_used ** -0.25, 0.05)
    assert env["config"]["cutoff"] == 400.0
    assert env["payload"]["h_minus_g_l2"] == rep.h_minus_g_l2
    assert env["payload"]["ratios_l2"] == rep.ratios_l2
    assert (env["oracle"]["expansion_identity_rel"]
            == expansion_residual(phi, g, grid))

    env = run_to_file(tmp_path, "m.json", [
        "smoothing", "--n", "16", "--cutoff", "400", "--verify"])
    rep = smoothing_experiment(n=16, grid=grid)
    assert env["config"]["cutoff"] == 400.0
    assert env["payload"]["output_slope"] == rep.output_slope
    assert env["payload"]["lip_fine"] == rep.lip_fine
    assert env["payload"]["band"] == [4, 16]
    # the oracle reruns the output slope at twice the cutoff
    fine = smoothing_experiment(n=16, grid=RadialGrid(800)).output_slope
    assert (env["oracle"]["output_slope_gap_on_doubling"]
            == abs(rep.output_slope - fine))


@pytest.mark.parametrize("k", [2, 3])
def test_density_closed_form_oracle_is_the_convolution_route(k, tmp_path):
    # the closed forms' mass is exact by construction, so it is no oracle;
    # theirs is the convolution route's kernel (2 pi)^k A(r, s), s = k - 2:
    # for k = 3 the four-root reduction against Pearson's modulus
    env = run_to_file(tmp_path, "d.json", [
        "density", "--k", str(k), "--n-points", "51", "--verify"])
    assert "mass_rel_error" not in env["oracle"]
    assert env["oracle"]["convolution_route_max_rel_gap"] < 1e-13


@pytest.mark.parametrize("k", [2, 3, 4])
def test_density_reports_no_sup_where_mu_k_is_unbounded(k, tmp_path):
    # mu_2, mu_3 and mu_4 grow without bound at r = 0, 1 and 0, so the
    # largest valid value would sit at the edge of the mask: no sup, no
    # radius for it and no drift are reported
    r0 = {2: 0.0, 3: 1.0, 4: 0.0}[k]
    near = _density_route(k)(r0 + np.array([1e-2, 1e-4, 1e-6]))
    assert np.all(np.diff(near) > 0.0) and near[-1] > 2.0 * near[0]
    env = run_to_file(tmp_path, "d.json", ["density", "--k", str(k),
                                           "--verify"])
    assert env["payload"]["sup"] is None
    assert env["payload"]["arg_sup"] is None
    assert env["oracle"]["sup_drift_on_doubling"] is None
    direct = auto_density(k)
    assert direct.sup() is None and direct.arg_sup() is None


def test_tensor_cutoff_mismatch_is_config_error(tmp_path, capsys):
    path = tmp_path / "t.b6t"
    build_tensor(1).save(path)
    for name in ("functional", "el-residual"):
        rc = main([name, "--n", "1", "--cutoff", "400", "--tensor", str(path)])
        assert rc == 2, name
        assert "cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(READS))
def test_unread_flags_rejected(name, capsys):
    # a flag the command does not read exits 2 in argparse, before any work
    rejected = SHARED_FLAGS - READS[name] - {"--out", "--verify"}
    for flag in sorted(rejected) + ["--alpha"]:
        with pytest.raises(SystemExit) as exc:
            main([name, flag, "1"])
        assert exc.value.code == 2, (name, flag)
        assert flag in capsys.readouterr().err


def test_parser_built_once_and_rejections_repeat(capsys):
    # one parser serves every call; a rejected argv leaves it as it was,
    # so the same rejection and the same defaults come back next time
    assert build_parser() is build_parser()
    for _ in range(2):
        for argv in (["density", "--n", "51"], ["solve", "--alpha", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            capsys.readouterr()
        assert build_parser().parse_args(["density"]).n_points == 801


@pytest.mark.parametrize("argv", [
    ["functional", "--n", "2"],
    ["split"],
    ["regularity-profile", "--n", "4"],
    ["density", "--k", "2", "--n-points", "51"],
    ["constant"],
], ids=lambda argv: argv[0])
def test_config_records_declared_flags(tmp_path, argv):
    env = run_to_file(tmp_path, "c.json", argv)
    parsed = vars(build_parser().parse_args(argv))
    config = {"seed": None}
    config.update({dest(f): parsed[dest(f)]
                   for f in READS[argv[0]] - {"--format"}})
    assert env["config"] == config


def test_regularity_profile_command(tmp_path):
    env = run_to_file(tmp_path, "r.json", [
        "regularity-profile", "--n", "8", "--seed", "3"])
    assert set(env["payload"]) >= {"n", "l2", "decay_slope", "calH", "holder"}


# ---------------------------------------------------------------------------
# cache artifacts
# ---------------------------------------------------------------------------

def test_tensor_build_writes_loadable_cache(tmp_path):
    # the command reads the cached product grid, whose rows were grown past
    # what N = 4 needs; it writes the bytes a fresh grid gives
    default_grid(200.0).j_matrix(80)
    cache = tmp_path / "t4.b6t"
    env = run_to_file(tmp_path, "t.json", [
        "tensor-build", "--n", "4", "--tensor", str(cache), "--verify"])
    fresh = tmp_path / "fresh.b6t"
    build_tensor(4, RadialGrid(200.0)).save(fresh)
    assert cache.read_bytes() == fresh.read_bytes()
    loaded = BesselTensor.load(cache)
    assert loaded.N == 4
    assert env["payload"]["n_entries"] == len(loaded.keys)
    assert env["oracle"]["roundtrip_bit_identical"] is True
    assert env["oracle"]["spot_refine_drift"] < 1e-8


def test_tensor_build_defaults_to_a_cache_in_the_working_directory(
        tmp_path, monkeypatch):
    # without --tensor the cache is tensor_n{n}.b6t in the working
    # directory, and config records that path
    monkeypatch.chdir(tmp_path)
    assert main(["tensor-build", "--n", "2", "--out", "t.json"]) == 0
    env = json.loads((tmp_path / "t.json").read_text())
    assert env["config"]["tensor"] == "tensor_n2.b6t"
    assert BesselTensor.load(tmp_path / "tensor_n2.b6t").N == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json",
                                                          "tensor_n2.b6t"]


def test_main_without_out_writes_the_envelope_to_stdout(tmp_path, monkeypatch,
                                                         capsys):
    # the validated envelope goes to stdout, and no file is written
    monkeypatch.chdir(tmp_path)
    assert main(["density", "--k", "2", "--n-points", "11"]) == 0
    env = json.loads(capsys.readouterr().out)
    validate_envelope(env)
    assert env["command"] == "density"
    direct = auto_density(2, 11)
    assert env["payload"]["values"] == [
        float(v) if ok else None for v, ok in zip(direct.values, direct.valid)]
    assert list(tmp_path.iterdir()) == []


def _run_subprocess(args, env=None):
    src = str(Path(tscircle.bessel.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + args, env=env, capture_output=True,
                          text=True, check=True, timeout=120)


def test_tensor_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the six-Bessel reductions round alike under one and two BLAS threads
    blobs = []
    for threads in ("1", "2"):
        path = tmp_path / f"t{threads}.b6t"
        _run_subprocess(["-m", "tscircle.cli", "tensor-build", "--n", "8",
                         "--tensor", str(path), "--out", os.devnull],
                        env={"OPENBLAS_NUM_THREADS": threads})
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("name", ["density"])
def test_mu5_payload_does_not_depend_on_blas_threads(name, tmp_path):
    # the convolution route sums each radius's row in a fixed order with no
    # matrix product, so the payload cannot depend on the BLAS thread count
    payloads = []
    for threads in ("1", "2"):
        path = tmp_path / f"{name}{threads}.json"
        _run_subprocess(["-m", "tscircle.cli", name, "--k", "5",
                         "--out", str(path)],
                        env={"OPENBLAS_NUM_THREADS": threads})
        payloads.append(json.dumps(json.loads(path.read_text())["payload"],
                                   sort_keys=True))
    assert payloads[0] == payloads[1]


def test_tensor_route_does_not_depend_on_blas_threads(tensor8, tmp_path):
    # the contraction sums with bincount alone, no matrix product, and at
    # N = 8 the polar sides of the oracles round alike too: payloads and
    # oracles read the same under one and two BLAS threads
    cache = tmp_path / "n8.b6t"
    tensor8.save(cache)
    for name in ("functional", "el-residual"):
        envs = []
        for threads in ("1", "2"):
            path = tmp_path / f"{name}{threads}.json"
            _run_subprocess(["-m", "tscircle.cli", name, "--n", "8",
                             "--tensor", str(cache), "--verify",
                             "--out", str(path)],
                            env={"OPENBLAS_NUM_THREADS": threads})
            env = json.loads(path.read_text())
            envs.append(json.dumps([env["payload"], env["oracle"]],
                                   sort_keys=True))
        assert envs[0] == envs[1], name


def _recursive_jsonable(x):
    # the element-by-element coercion that cli._jsonable shortcuts
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return _recursive_jsonable(dataclasses.asdict(x))
    if isinstance(x, dict):
        return {str(k): _recursive_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_recursive_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_recursive_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.complexfloating, complex)):
        return [float(x.real), float(x.imag)]
    return x


@dataclasses.dataclass
class _Record:
    name: str
    values: np.ndarray
    weight: np.float32


def test_jsonable_writes_the_recursive_coercions_bytes():
    rng = np.random.default_rng(5)
    payload = {
        "scalars": [np.float64(0.1), np.float32(1 / 3), np.int64(-7),
                    np.uint8(200), np.bool_(True), np.complex128(1 - 2j),
                    np.longdouble(0.3), 2.5, 3, True, 1j, None, "text"],
        "floats": [0.1 * i for i in range(9)] + [float("nan"), None],
        "real": rng.standard_normal(7),
        "nan": np.array([1.0, np.nan, -np.inf]),
        "complex": rng.standard_normal(4) + 1j * rng.standard_normal(4),
        "matrix": rng.standard_normal((3, 4)),
        "ints": np.arange(-3, 3).reshape(2, 3),
        "unsigned": np.arange(5, dtype=np.uint16),
        "bools": np.array([[True, False], [False, True]]),
        "single": rng.standard_normal(3).astype(np.float32),
        "long": np.array([0.25, 1 / 3], dtype=np.longdouble),
        "tuple": (1.5, np.float64(2.5), (np.int32(4), [np.nan])),
        "record": _Record("r", rng.standard_normal(2), np.float32(0.7)),
        7: {"nested": [{"deep": np.array([1 + 1j])}, np.array([])]},
    }
    want = json.dumps(_recursive_jsonable(payload), sort_keys=True, indent=2)
    assert json.dumps(_jsonable(payload), sort_keys=True, indent=2) == want


def test_package_import_leaves_scipy_integrate_out():
    out = _run_subprocess(["-c", "import sys, tscircle, tscircle.cli; "
                           "print('scipy.integrate' in sys.modules)"])
    assert out.stdout.strip() == "False"


def test_cache_roundtrip_unit(tmp_path):
    t = build_tensor(2)
    loaded = cache_roundtrip(t, tmp_path / "t2.b6t")
    assert np.array_equal(loaded.values.view(np.uint64),
                          t.values.view(np.uint64))


def test_corrupted_cache_detected(tmp_path):
    t = build_tensor(1)
    path = tmp_path / "t.b6t"
    t.save(path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError):
        BesselTensor.load(path)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_config_error(capsys):
    # solve has no csv table: argparse exits 2 before the ascent starts
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--format", "csv"])
    assert exc.value.code == 2
    assert "csv" in capsys.readouterr().err


def test_exit_code_numerical_error(tmp_path, capsys):
    t = build_tensor(1)
    path = tmp_path / "t.b6t"
    t.save(path)
    raw = bytearray(path.read_bytes())
    del raw[-8:]
    path.write_bytes(bytes(raw))
    rc = main(["functional", "--n", "1", "--tensor", str(path)])
    assert rc == 3
    assert capsys.readouterr().err


def test_exit_code_precondition_error(tmp_path, capsys):
    path = tmp_path / "t.b6t"
    build_tensor(1).save(path)
    rc = main(["functional", "--n", "6", "--tensor", str(path)])
    assert rc == 4
    assert "bandwidth" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["functional", "--n", "2", "--tensor", "{tmp}/absent.b6t"], "--tensor"),
    (["tensor-build", "--n", "1", "--tensor", "{tmp}/absent/x.b6t"],
     "--tensor"),
    (["constant", "--out", "{tmp}/absent/x.json"], "--out"),
    (["functional", "--tensor", "{tmp}"], "--tensor"),
], ids=["missing tensor", "tensor in a missing directory",
        "out in a missing directory", "tensor is a directory"])
def test_unusable_path_exits_2_naming_its_flag(argv, flag, tmp_path, capsys):
    # a path that cannot be opened is a configuration error, not an
    # internal one (exit 3 with a traceback)
    rc = main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {flag} ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["density", "--k", "5", "--n-points", "0"],
    ["density", "--k", "5", "--n-points", "-3"],
    ["density", "--k", "5", "--n-points", "2"],
    ["density", "--n-points", "1"],
    ["density", "--k", "2", "--n-points", "2"],
    ["density", "--k", "3", "--n-points", "0"],
    ["density", "--k", "4", "--n-points", "3"],
    ["density", "--k", "4", "--n-points", "3", "--verify"],
    ["solve", "--n", "2", "--max-iter", "-1"],
])
def test_density_bad_configuration_exits_2(argv, capsys):
    # Simpson's rule needs three points, for every k; three radii on
    # [0, 4] all sit on singular radii of mu_4, with or without the
    # oracle; the ascent takes no negative iteration count
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff", ["1e-300", "1e-100", "1e-50", "29.9"])
@pytest.mark.parametrize("name", ["constant", "functional", "picard",
                                  "tensor-build", "el-residual", "solve"])
def test_cutoff_below_the_hankel_radius_exits_2(name, cutoff, tmp_path,
                                                capsys):
    # below rho = 30 the two-term tail does not hold even for J_0: such
    # cutoffs overflowed the tail integrals (exit 3), or gave NaN or a
    # lambda_0 of 5e51 with exit 0
    argv = [name, "--cutoff", cutoff, "--out", str(tmp_path / "env.json")]
    if name == "tensor-build":
        argv += ["--tensor", str(tmp_path / "t.b6t")]
    assert main(argv) == 2
    assert "cutoff" in capsys.readouterr().err
    assert not (tmp_path / "env.json").exists()


def test_cutoff_at_the_hankel_radius_is_accepted(tmp_path):
    env = run_to_file(tmp_path, "c.json", ["constant", "--cutoff", "30"])
    assert env["config"]["cutoff"] == 30.0
    assert np.isfinite(env["payload"]["lambda0"])


@pytest.mark.parametrize("argv", [
    ["split", "--s", "nan"],
    ["split", "--s", "inf"],
    ["split", "--eta", "nan"],
    ["picard", "--n", "2", "--eps", "nan"],
    ["picard", "--n", "2", "--eps", "inf"],
    ["split", "--eta", "inf"],
])
def test_non_finite_flag_values_exit_2(argv, capsys):
    # NaN passes a check written as x <= 0, and an infinite s has no
    # integer part: both are configuration errors, not internal ones, and
    # the message names the flag that was set
    assert main(argv) == 2
    assert f"{argv[-2][2:]} must be" in capsys.readouterr().err


def test_picard_refuses_a_non_finite_iterate(extremizer16, capsys):
    # at eps = 1e300 the ball radius eps^0.75 sets the divergence limit,
    # and the iterate overflows to NaN before it passes that limit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DivergenceError):
            picard_iterate(extremizer16.f, eps=1e300)
        assert main(["picard", "--eps", "1e300"]) == 3
    assert "iterate grew to nan" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_command_at_defaults_verifies(name, tmp_path):
    # the whole contract at each command's default flags: exit 0, oracle
    # run, envelope valid
    argv = [name, "--verify", "--out", str(tmp_path / "env.json")]
    if name == "tensor-build":
        argv += ["--tensor", str(tmp_path / "t.b6t")]
    assert main(argv) == 0
    env = json.loads((tmp_path / "env.json").read_text())
    validate_envelope(env)
    assert isinstance(env["oracle"], dict) and env["oracle"]
    # config records exactly the declared flags, and a null seed where
    # the command takes none
    assert set(env["config"]) == {"seed"} | {
        dest(f) for f in READS[name] - {"--format"}}
    assert (env["config"]["seed"] is None) == ("--seed" not in READS[name])


@pytest.mark.parametrize("name", SEEDED)
def test_negative_bandwidth_exits_2(name, capsys):
    assert main([name, "--n", "-1"]) == 2
    assert "bandwidth" in capsys.readouterr().err


def test_readme_command_table_matches_parser():
    # README's command table lists every command with the flags its
    # parser accepts, less --out and --verify, which the text names once
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, re.M))
    assert set(rows) == set(COMMANDS)
    for name, cell in rows.items():
        assert set(re.findall(r"`(--[a-z-]+)", cell)) == (
            set(COMMANDS[name].parser_flags()) - {"--out", "--verify"}), name


def refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def test_picard_without_two_ratios_writes_null(tmp_path):
    # at n = 0 the iteration takes at most two steps, so there is no ratio
    # to take the max of: max_ratio is null, and the file is strict JSON
    out = tmp_path / "p.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["picard", "--n", "0", "--out", str(out)]) == 0
    env = json.loads(out.read_text(), parse_constant=refuse_constant)
    assert len(env["payload"]["ratios_l2"]) < 2
    assert env["payload"]["max_ratio"] is None


def test_non_finite_output_exits_3_and_writes_nothing(monkeypatch, tmp_path,
                                                      capsys):
    # NaN and Infinity are not JSON: a payload holding one is a numerical
    # failure, not a file that strict readers refuse
    def nan_payload(args):
        return {k: float("nan") for k in COMMANDS["extend"].payload_keys}, None

    monkeypatch.setitem(COMMANDS, "extend", dataclasses.replace(
        COMMANDS["extend"], handler=nan_payload))
    out = tmp_path / "e.json"
    assert main(["extend", "--n", "2", "--out", str(out)]) == 3
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


def test_exit_code_internal_error(monkeypatch, capsys):
    # an exception outside the three error families still maps to exit 3
    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setitem(COMMANDS, "extend",
                        dataclasses.replace(COMMANDS["extend"], handler=boom))
    rc = main(["extend", "--n", "2"])
    assert rc == 3
    assert "internal error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# csv export
# ---------------------------------------------------------------------------

def test_density_csv(tmp_path):
    out = tmp_path / "mu2.csv"
    rc = main(["density", "--k", "2", "--n-points", "51",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert any(ln.startswith("# k=2") for ln in comments)
    assert body[0] == "r,value"
    assert len(body) == 1 + 51
    # rows near the k=2 singular radii are masked, not fabricated
    assert any(ln.endswith(",") for ln in body[1:])


def test_csv_rejected_for_scalar_commands(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["constant", "--format", "csv", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "csv" in capsys.readouterr().err
