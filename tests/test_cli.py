"""End-to-end command-line tests (in-process)."""

import csv
import json
import os
import subprocess
import sys

import pytest

import scw_cvqkd
from scw_cvqkd.cli import UsageError, main
from scw_cvqkd.errors import (
    ConfigError,
    DomainError,
    InternalError,
    MismatchError,
    NoRootError,
)
from scw_cvqkd.noise import ChannelModel
from scw_cvqkd.optics import SystemParams, TunableParams
from scw_cvqkd.search import Bounds
from scw_cvqkd.security import asymptotic_key_rate

POINT_CFG = """
[channel]
loss_db = 3.0
xi = 0.1

[tunables]
mu_0 = 0.278
beta_A_deg = 72.0
v_0 = 1.62
"""

SWEEP_CFG = """
[channel]
xi = 0.1

[sweep]
loss_grid = 2.0, 3.0
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_keyrate_point_ok(tmp_path, capsys):
    code = main(["keyrate", "--config", write(tmp_path, POINT_CFG)])
    out = capsys.readouterr().out
    assert code == 0
    assert "status = ok" in out
    assert "K_bits_per_s" in out
    assert "n = inf" in out


def test_keyrate_reports_canonical_ridge_point(capsys):
    # the S=1 optimum is reported at the largest in-box angle
    assert main(["keyrate", "--loss-db", "3", "--xi", "0.1"]) == 0
    out = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert float(out["beta_A"]) == Bounds().beta_A[1]


def test_keyrate_flag_overrides(tmp_path, capsys):
    cfg = write(tmp_path, POINT_CFG)
    code = main(["keyrate", "--config", cfg, "--loss-db", "20"])
    out = capsys.readouterr().out
    assert code == 2
    assert "status = infeasible" in out


def test_keyrate_finite_mode(tmp_path, capsys):
    cfg = write(tmp_path, POINT_CFG + "\n[run]\nmode = finite\n")
    code = main(["keyrate", "--config", cfg, "--n", "1e10"])
    out = capsys.readouterr().out
    assert "n = 10000000000" in out
    assert "R_bits_per_s" in out
    assert code in (0, 2)


def test_keyrate_writes_csv_and_meta(tmp_path, capsys):
    out_csv = tmp_path / "point.csv"
    cfg = write(tmp_path, POINT_CFG)
    code = main(["keyrate", "--config", cfg, "--out", str(out_csv)])
    assert code == 0
    with out_csv.open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    meta = json.loads((tmp_path / "point.csv.meta.json").read_text())
    assert meta["command"] == "keyrate"
    assert meta["version"]
    assert "[tunables]" in meta["config_text"]
    capsys.readouterr()


def test_infeasible_point_exit_2_via_optimizer():
    # no config at all: optimizer runs at the flag-selected point
    code = main(["keyrate", "--loss-db", "15", "--xi", "0.1"])
    assert code == 2


def test_malformed_config_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "[channel]\nxi = banana\n")
    out_csv = tmp_path / "x.csv"
    code = main(["keyrate", "--config", cfg, "--out", str(out_csv)])
    assert code == 1
    assert not out_csv.exists()
    assert "error:" in capsys.readouterr().err


def test_unknown_key_exit_1(tmp_path, capsys):
    code = main(["keyrate", "--config", write(tmp_path, "[channel]\nfoo = 1\n")])
    assert code == 1
    assert "foo" in capsys.readouterr().err


def test_invalid_system_setting_exit_1(tmp_path, capsys):
    # a zero detector sensitivity is a configuration error, not "no key"
    code = main(["keyrate", "--config", write(tmp_path, "[system]\ns = 0\n")])
    assert code == 1
    assert "error: invalid configuration" in capsys.readouterr().err


def test_tunables_k_sample_past_block_exit_1(tmp_path, capsys):
    # [tunables] k_sample is charged in place of [finitekey] k_sample, so
    # one of at least the block size is a configuration error
    cfg = write(tmp_path, POINT_CFG + "k_sample = 1000\n")
    assert main(["keyrate", "--config", cfg, "--n", "1000"]) == 1
    assert "k_sample" in capsys.readouterr().err


def test_missing_config_exit_1(tmp_path, capsys):
    code = main(["keyrate", "--config", str(tmp_path / "nope.ini")])
    assert code == 1
    capsys.readouterr()


def test_usage_error_exit_1(capsys):
    assert main(["keyrate", "--mode", "finite", "--n", "inf"]) == 1
    assert main(["keyrate", "--mode", "asymptotic", "--n", "1000"]) == 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["keyrate", "--n", "2.5"]) == 1
    capsys.readouterr()


def test_sweep_csv_contract(tmp_path, capsys):
    out_csv = tmp_path / "grid.csv"
    cfg = write(tmp_path, SWEEP_CFG)
    code = main(["sweep", "--config", cfg, "--out", str(out_csv)])
    assert code == 0
    text = out_csv.read_bytes().decode("utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == (
        "loss_db,xi,n,K_or_R_bits_per_s,Q,P,chi,mu0,beta_A,delta,v0,k_sample,status"
    )
    with out_csv.open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["loss_db"]) for r in rows] == [2.0, 3.0]
    assert all(r["n"] == "inf" and r["status"] == "ok" for r in rows)
    assert float(rows[0]["K_or_R_bits_per_s"]) > float(rows[1]["K_or_R_bits_per_s"])
    # recorded parameters reproduce the recorded rate
    for row in rows:
        tun = TunableParams(
            mu_0=float(row["mu0"]),
            beta_A=float(row["beta_A"]),
            delta=float(row["delta"]),
            v_0=float(row["v0"]),
            k_sample=int(row["k_sample"]),
        )
        ch = ChannelModel(loss_db=float(row["loss_db"]), xi=float(row["xi"]))
        again = asymptotic_key_rate(tun, SystemParams(), ch).rate
        recorded = float(row["K_or_R_bits_per_s"])
        assert abs(again - recorded) <= 1e-9 * recorded
    meta = json.loads((tmp_path / "grid.csv.meta.json").read_text())
    assert meta["command"] == "sweep"
    capsys.readouterr()


def test_sweep_includes_infeasible_rows(tmp_path, capsys):
    cfg = write(tmp_path, "[sweep]\nloss_grid = 15.0\nnoise_levels = 0.1\n")
    code = main(["sweep", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 2
    line = out.splitlines()[1]
    assert line.endswith("infeasible")
    assert line.startswith("15.0,0.1,inf,0.0,,,,,,,,")


def test_sweep_without_grid_exit_1(tmp_path, capsys):
    code = main(["sweep", "--config", write(tmp_path, POINT_CFG)])
    assert code == 1
    assert "loss_grid" in capsys.readouterr().err


def test_sweep_rejects_point_flags(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP_CFG)
    assert main(["sweep", "--config", cfg, "--loss-db", "3"]) == 1
    capsys.readouterr()


def test_simulate_json_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, POINT_CFG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code_a = main(
        ["simulate", "--config", cfg, "--rounds", "200000",
         "--seed", "5", "--out", str(out_a)]
    )
    code_b = main(
        ["simulate", "--config", cfg, "--rounds", "200000",
         "--seed", "5", "--out", str(out_b)]
    )
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["report"]["pass"] is True
    assert payload["seed"] == 5 and payload["rounds"] == 200000
    assert payload["version"]
    assert {"n_matched", "n_accepted", "n_errors"} <= payload["counters"].keys()
    capsys.readouterr()


def test_simulate_seed_changes_output(tmp_path, capsys):
    cfg = write(tmp_path, POINT_CFG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    main(["simulate", "--config", cfg, "--rounds", "50000",
          "--seed", "1", "--out", str(out_a)])
    main(["simulate", "--config", cfg, "--rounds", "50000",
          "--seed", "2", "--out", str(out_b)])
    assert out_a.read_bytes() != out_b.read_bytes()
    capsys.readouterr()


def test_simulate_zero_rounds_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, POINT_CFG)
    assert main(["simulate", "--config", cfg, "--rounds", "0"]) == 1
    capsys.readouterr()


def test_simulate_without_sifted_round_exit_0(tmp_path, capsys):
    # two rounds at seed 0 match no basis: nothing to grade, no traceback
    cfg = write(tmp_path, POINT_CFG)
    out = tmp_path / "two.json"
    code = main(["simulate", "--config", cfg, "--rounds", "2", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["counters"]["n_matched"] == 0
    assert payload["report"]["z"]["accept"] is None
    capsys.readouterr()


def test_simulate_no_key_leaves_no_output(tmp_path, capsys):
    # the optimizer finds no key at 30 dB: exit 2 and no empty JSON file
    out = tmp_path / "x.json"
    code = main(["simulate", "--loss-db", "30", "--xi", "0.1", "--rounds", "1000",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "no key" in capsys.readouterr().err


FAILING_FK_CFG = "[finitekey]\nk_sample = 1000\n"


@pytest.mark.parametrize(
    "argv, cfg_text, code",
    [
        # k_sample above the block size: a configuration error
        (["keyrate", "--n", "100"], FAILING_FK_CFG, 1),
        (["sweep", "--n", "100"], FAILING_FK_CFG + "\n[sweep]\nloss_grid = 1 2\n", 1),
        # 45 degrees has no calibration root: a failed numerical check
        (["keyrate"], "[tunables]\nmu_0 = 1\nbeta_A_deg = 45\nv_0 = 0.1\n", 3),
    ],
    ids=["keyrate-k-sample", "sweep-k-sample", "keyrate-no-root"],
)
def test_failed_command_leaves_no_output(argv, cfg_text, code, tmp_path, capsys):
    # the command fails after opening --out: the file it created is removed
    cfg = write(tmp_path, cfg_text)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "x.csv")]) == code
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_simulate_mismatch_exit_3(tmp_path, capsys, monkeypatch):
    import scw_cvqkd.cli as cli_mod

    def fake_compare(stats, tun, sys, ch, z_max=4.0, strict=False):
        return {"pass": False, "z": {}, "analytic": {}, "empirical": {}}

    monkeypatch.setattr(cli_mod, "compare_analytic", fake_compare)
    cfg = write(tmp_path, POINT_CFG)
    code = main(["simulate", "--config", cfg, "--rounds", "1000"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc, code",
    [
        (InternalError("self-check failed"), 3),
        (NoRootError("no calibration root"), 3),
        (MismatchError("statistics disagree"), 3),
        (DomainError("bad value"), 1),
        (ConfigError("bad config"), 1),
        (UsageError("bad flags"), 1),
    ],
)
def test_error_exit_codes(exc, code, capsys, monkeypatch):
    import scw_cvqkd.cli as cli_mod

    def failing_optimizer(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_mod, "optimize_point", failing_optimizer)
    assert main(["keyrate", "--loss-db", "3", "--xi", "0.1"]) == code
    assert f"error: {exc}" in capsys.readouterr().err


def test_keyrate_calibration_self_check_failure_exit_3(capsys, monkeypatch):
    import scw_cvqkd.search as search

    def failing(beta_A, sys):
        raise InternalError(f"calibration residual at {beta_A}")

    monkeypatch.setattr(search, "calibrate_delta", failing)
    assert main(["keyrate", "--loss-db", "3", "--xi", "0.1"]) == 3
    assert "calibration residual" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cfg_text",
    [
        (["keyrate"], POINT_CFG),
        (["sweep"], "[sweep]\nloss_grid = 15.0\nnoise_levels = 0.1\n"),
        (["simulate", "--rounds", "1000"], POINT_CFG),
    ],
)
def test_unwritable_out_exit_1(argv, cfg_text, tmp_path, capsys, monkeypatch):
    import scw_cvqkd.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("computed before the --out path was checked")

    # the path is opened first, so no computation may start
    for name in ("optimize_point", "asymptotic_key_rate", "sweep", "simulate_rounds"):
        monkeypatch.setattr(cli_mod, name, never)
    out = tmp_path / "missing" / "x.out"
    code = main(argv + ["--config", write(tmp_path, cfg_text), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {out}" in captured.err
    assert not out.parent.exists()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 5
    assert "FAIL" not in out


_NO_SCIPY_RUN = """
import contextlib, io, json, sys
from scw_cvqkd import cli
from scw_cvqkd.optics import SystemParams, calibrate_delta

point, grid = sys.argv[1], sys.argv[2]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["keyrate", "--loss-db", "3", "--xi", "0.1"],
        ["keyrate", "--loss-db", "3", "--xi", "0.1", "--n", "1e10"],
        ["sweep", "--config", grid],
        ["simulate", "--config", point, "--rounds", "1000"],
    ):
        codes.append(cli.main(argv))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
masked = "numpy.ma" in sys.modules
polynomial = "numpy.polynomial" in sys.modules
pools = sorted(m for m in sys.modules
               if m.split(".")[0] in ("concurrent", "multiprocessing"))
delta = calibrate_delta(0.9, SystemParams(S=2))
print(json.dumps({"codes": codes, "loaded": loaded, "masked": masked,
                  "polynomial": polynomial,
                  "pools": pools, "delta": delta, "on_demand": "scipy.optimize" in sys.modules}))
"""


def test_rate_paths_never_import_scipy(tmp_path):
    # a fresh interpreter: the S=1 rate path, finite keys, a sweep and
    # the emulator run on numpy alone, without numpy.ma, numpy.polynomial
    # or a process pool; only the S>1 calibration loads scipy
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(scw_cvqkd.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN,
         write(tmp_path, POINT_CFG), write(tmp_path, SWEEP_CFG, "grid.ini")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert result["loaded"] == []
    assert not result["masked"]
    assert not result["polynomial"]
    assert result["pools"] == []
    assert 0.0 < result["delta"] <= 10.0
    assert result["on_demand"]


@pytest.mark.parametrize(
    "argv, cfg_text",
    [
        (["simulate", "--rounds", "1000", "--seed", "-1"], POINT_CFG),
        (["simulate", "--rounds", "1000"], POINT_CFG + "\n[run]\nseed = -3\n"),
        (["keyrate", "--seed", "-2"], POINT_CFG),
    ],
)
def test_negative_seed_exit_1(argv, cfg_text, tmp_path, capsys):
    assert main(argv + ["--config", write(tmp_path, cfg_text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "non-negative" in captured.err


def test_selftest_negative_seed_exit_1(capsys):
    assert main(["selftest", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "non-negative" in captured.err


def test_unreadable_config_exit_1(tmp_path, capsys):
    # a directory passes the existence check but cannot be read
    assert main(["keyrate", "--config", str(tmp_path)]) == 1
    assert f"error: could not read {tmp_path}" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes("[channel]\n# d\xe9faut\nxi = 0.1\n".encode("latin-1"))
    assert main(["simulate", "--config", str(latin1)]) == 1
    assert f"error: could not read {latin1}" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
