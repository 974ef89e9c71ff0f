"""Envelope schema, reproducibility, exit codes, and artifact files."""

import json

import numpy as np
import pytest

from tscircle import (BesselTensor, RadialGrid, auto_density, build_tensor,
                      sup_bound_check)
from tscircle.cli import (
    _HANDLERS,
    COMMANDS,
    cache_roundtrip,
    main,
    make_envelope,
    validate_envelope,
)
from tscircle.errors import CacheError, ConfigError


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
    # every command can be parsed and has a payload contract
    from tscircle.cli import _PAYLOAD_KEYS, build_parser
    assert set(_PAYLOAD_KEYS) == set(COMMANDS)
    parser = build_parser()
    for name in COMMANDS:
        args = parser.parse_args([name])
        assert args.command == name


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
    env = run_to_file(tmp_path, "c.json", ["constant", "--method", "constants"])
    assert env["payload"]["value"] > 0
    assert "sixth" in env["payload"]["note"]
    assert env["payload"]["t0"] == pytest.approx(0.336827961766468, rel=1e-6)


def test_constant_solver_method_emits_null_t0(tmp_path):
    # the search route has no T0; its payload says so instead of crashing
    env = run_to_file(tmp_path, "s.json", [
        "constant", "--method", "solver", "--n", "2"])
    validate_envelope(env)
    assert env["payload"]["t0"] is None
    assert env["payload"]["lambda0"] is None
    assert env["payload"]["value"] > 0


def test_density_uses_cutoff(tmp_path):
    env = run_to_file(tmp_path, "d.json", [
        "density", "--k", "5", "--cutoff", "400", "--n-points", "51"])
    direct = auto_density(5, 51, grid=RadialGrid(400))
    assert env["config"]["cutoff"] == 400.0
    assert env["payload"]["mass"] == float(direct.mass)
    assert env["payload"]["values"] == [
        float(v) if ok else None for v, ok in zip(direct.values, direct.valid)]


def test_sup_bound_uses_cutoff(tmp_path):
    env = run_to_file(tmp_path, "s.json", [
        "sup-bound", "--k", "5", "--cutoff", "400", "--n-points", "51"])
    direct = sup_bound_check(5, 51, grid=RadialGrid(400))
    assert env["config"]["cutoff"] == 400.0
    assert env["payload"]["sup"] == float(direct.sup)
    assert env["payload"]["at_radius"] == float(direct.at_radius)
    assert env["payload"]["mass_rel_error"] == float(
        abs(direct.mass - direct.mass_expected) / direct.mass_expected)


def test_alpha_flag_rejected():
    for name in COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([name, "--alpha", "0.5"])
        assert exc.value.code == 2, name


def test_regularity_profile_command(tmp_path):
    env = run_to_file(tmp_path, "r.json", [
        "regularity-profile", "--n", "8", "--seed", "3"])
    assert set(env["payload"]) >= {"n", "l2", "decay_slope", "calH", "holder"}


# ---------------------------------------------------------------------------
# cache artifacts
# ---------------------------------------------------------------------------

def test_tensor_build_writes_loadable_cache(tmp_path):
    cache = tmp_path / "t1.b6t"
    env = run_to_file(tmp_path, "t.json", [
        "tensor-build", "--n", "1", "--tensor", str(cache), "--verify"])
    assert cache.exists()
    loaded = BesselTensor.load(cache)
    assert loaded.N == 1
    assert env["payload"]["n_entries"] == len(loaded.keys)
    assert env["oracle"]["roundtrip_bit_identical"] is True
    assert env["oracle"]["spot_refine_drift"] < 1e-8


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
    rc = main(["solve", "--format", "csv"])
    assert rc == 2
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


def test_exit_code_internal_error(monkeypatch, capsys):
    # an exception outside the three error families still maps to exit 3
    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setitem(_HANDLERS, "extend", boom)
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


def test_csv_rejected_for_scalar_commands(tmp_path):
    rc = main(["constant", "--format", "csv", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
