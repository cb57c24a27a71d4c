"""Config parsing tests."""

import math

import pytest

from scw_cvqkd.cli import main
from scw_cvqkd.config import _SCHEMA, RunConfig, TunableSpec, load_config
from scw_cvqkd.errors import ConfigError
from scw_cvqkd.optics import SystemParams, calibrate_delta

FULL = """
[system]
T = 100e-9
theta_carrier = 1e-6
S = 2
s = 1.0
symmetric_doubling = true

[channel]
loss_db = 4.5
xi = 0.05

[bounds]
mu_0 = 0.01, 5
beta_A_deg = 10, 80
v_0_sigmas = 0, 5

[finitekey]
n = 1e9
eps_s = 1e-10
eps_PA = 1e-10
check_EC = 256
f_EC = 1.1
dQ = 0.005
k_sample = 0

[sweep]
loss_grid = 1, 2, 3
noise_levels = 0.0, 0.1
n_values = 1e8, 1e10
ec_mode = block

[run]
mode = finite
seed = 42
out = results.csv
"""


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg == RunConfig()
    assert cfg.system == SystemParams()
    assert cfg.mode == "asymptotic"
    assert cfg.loss_db == 3.0 and cfg.xi == 0.1
    assert cfg.tunables is None and cfg.loss_grid is None


def test_empty_sections_load_as_defaults(tmp_path):
    # every section present, no key set: the file adds nothing to RunConfig()
    sections = "".join(f"[{name}]\n" for name in _SCHEMA)
    assert load_config(write(tmp_path, sections)) == RunConfig()


def test_full_file_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, FULL))
    assert cfg.system.S == 2
    assert cfg.loss_db == 4.5 and cfg.xi == 0.05
    assert cfg.bounds.beta_A == pytest.approx(
        (math.radians(10.0), math.radians(80.0))
    )
    assert cfg.fk.n == 10**9 and cfg.fk.f_EC == 1.1
    assert cfg.loss_grid == (1.0, 2.0, 3.0)
    assert cfg.noise_levels == (0.0, 0.1)
    assert cfg.n_values == (10**8, 10**10)
    assert cfg.ec_mode == "block"
    assert cfg.mode == "finite" and cfg.seed == 42 and cfg.out == "results.csv"


def test_sweep_spec_assembly(tmp_path):
    cfg = load_config(write(tmp_path, FULL))
    spec = cfg.sweep_spec(finite=True)
    assert spec.loss_grid == (1.0, 2.0, 3.0)
    assert spec.n_values == (10**8, 10**10)
    assert spec.fk_template == cfg.fk
    assert spec.ec_mode == "block"
    asym = cfg.sweep_spec(finite=False)
    assert asym.n_values is None and asym.fk_template is None


def test_sweep_spec_defaults_noise_to_channel(tmp_path):
    cfg = load_config(write(tmp_path, "[sweep]\nloss_grid = 2, 4\n"))
    spec = cfg.sweep_spec(finite=False)
    assert spec.noise_levels == (cfg.xi,)
    bare = load_config(None)
    with pytest.raises(ConfigError):
        bare.sweep_spec(finite=False)


def test_tunables_resolution(tmp_path):
    text = "[tunables]\nmu_0 = 0.4\nbeta_A_deg = 51.56620156177409\nv_0 = 1.6\n"
    cfg = load_config(write(tmp_path, text))
    assert isinstance(cfg.tunables, TunableSpec)
    tun = cfg.tunables.resolve(cfg.system)
    assert tun.beta_A == pytest.approx(0.9, abs=1e-12)
    assert tun.delta == calibrate_delta(tun.beta_A, cfg.system)
    explicit = load_config(
        write(tmp_path, text + "delta = 0.87\nk_sample = 100\n")
    )
    tun2 = explicit.tunables.resolve(explicit.system)
    assert tun2.delta == 0.87 and tun2.k_sample == 100


def test_tunables_missing_required(tmp_path):
    with pytest.raises(ConfigError, match="beta_A_deg"):
        load_config(write(tmp_path, "[tunables]\nmu_0 = 0.4\nv_0 = 1.6\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[channnel\]"):
        load_config(write(tmp_path, "[channnel]\nloss_db = 3\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="loss_dbb"):
        load_config(write(tmp_path, "[channel]\nloss_dbb = 3\n"))


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("sweep", "restarts", "4"),
        ("bounds", "k_frac", "0, 0.4"),
        ("system", "phi_0_deg", "5"),
        ("system", "theta_2_deg", "0"),
        ("system", "theta_1_deg", "0"),
        ("system", "N", "2"),
        ("system", "mean_convention", "sideband"),
        ("system", "eta_B", "0.229"),
    ],
)
def test_removed_search_knobs_rejected(section, key, value, tmp_path, capsys):
    # the optimizer has no restart count and no parameter-estimation axis,
    # no result depends on the phi_0, theta_2 or theta_1 modulator phases,
    # the link always has two bases and the sideband mean convention, and
    # no mean or rate reads Bob's module transmittance
    path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        load_config(path)
    assert main(["keyrate", "--config", path]) == 1
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_bad_values_are_located(tmp_path):
    with pytest.raises(ConfigError, match=r"'xi' in section \[channel\]"):
        load_config(write(tmp_path, "[channel]\nxi = banana\n"))
    with pytest.raises(ConfigError, match=r"'ec_mode' in section \[sweep\]"):
        load_config(write(tmp_path, "[sweep]\nec_mode = blok\n"))
    with pytest.raises(ConfigError, match="symmetric_doubling"):
        load_config(write(tmp_path, "[system]\nsymmetric_doubling = maybe\n"))
    with pytest.raises(ConfigError, match="n_values"):
        load_config(write(tmp_path, "[sweep]\nn_values = 1e8.5\n"))


def test_invariants_revalidated_on_load(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[system]\ntheta_carrier = 1.7\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[finitekey]\nf_EC = 0.5\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[bounds]\nbeta_A_deg = 80, 10\n"))


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("system", "s", "nan"),
        ("system", "s", "0"),
        ("system", "s", "-1"),
        ("system", "s", "inf"),
        ("system", "T", "inf"),
        ("system", "T", "nan"),
        ("bounds", "mu_0", "0.001 inf"),
        ("bounds", "mu_0", "0.001 1e400"),
        ("bounds", "beta_A_deg", "-inf 80"),
        ("bounds", "v_0_sigmas", "0 inf"),
        ("finitekey", "f_EC", "inf"),
    ],
)
def test_non_finite_or_non_positive_settings_rejected(section, key, value, tmp_path):
    # each of these once loaded and made keyrate report "infeasible"
    with pytest.raises(ConfigError, match="invalid configuration"):
        load_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.ini"))
    with pytest.raises(ConfigError, match="could not parse"):
        load_config(write(tmp_path, "loss_db = 3\n"))


def test_inline_comments_allowed(tmp_path):
    cfg = load_config(write(tmp_path, "[channel]\nloss_db = 6.0  # midline\n"))
    assert cfg.loss_db == 6.0
