"""Flat INI-style run configuration.

One file drives every command: system constants, channel point, sweep
grids, search bounds, finite-key overheads, and run bookkeeping.  Keys
are grouped in sections, every key is optional (defaults mirror the
dataclass defaults), and unknown sections or keys are rejected with
their location.  Angles are written in degrees in the file and
converted to radians on load.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .errors import ConfigError, ScwError
from .finitekey import _EC_MODES, FiniteKeyParams
from .optics import SystemParams, TunableParams, calibrate_delta
from .search import Bounds, SweepSpec

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in _TRUE:
        return True
    if t in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    return float(text)


def _parse_degrees(text: str) -> float:
    return math.radians(float(text))


def _parse_int(text: str) -> int:
    # accept scientific notation for big counts as long as it is exact
    val = float(text)
    if not val.is_integer():
        raise ValueError(f"expected an integer, got {text!r}")
    return int(val)


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_choice(*options: str):
    def parse(text: str) -> str:
        t = text.strip()
        if t not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return t

    return parse


def _split_list(text: str) -> list[str]:
    return [tok for tok in text.replace(",", " ").split() if tok]


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _split_list(text))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(tok) for tok in _split_list(text))


def _parse_pair(text: str) -> tuple[float, float]:
    vals = _parse_float_list(text)
    if len(vals) != 2:
        raise ValueError(f"expected two numbers, got {text!r}")
    return vals


def _parse_degree_pair(text: str) -> tuple[float, float]:
    lo, hi = _parse_pair(text)
    return (math.radians(lo), math.radians(hi))


_SCHEMA: dict[str, dict[str, object]] = {
    "system": {
        "T": _parse_float,
        "theta_carrier": _parse_float,
        "S": _parse_int,
        "s": _parse_float,
        "symmetric_doubling": _parse_bool,
    },
    "channel": {
        "loss_db": _parse_float,
        "xi": _parse_float,
    },
    "tunables": {
        "mu_0": _parse_float,
        "beta_A_deg": _parse_degrees,
        "delta": _parse_float,
        "v_0": _parse_float,
        "k_sample": _parse_int,
    },
    "bounds": {
        "mu_0": _parse_pair,
        "beta_A_deg": _parse_degree_pair,
        "v_0_sigmas": _parse_pair,
    },
    "finitekey": {
        "n": _parse_int,
        "eps_s": _parse_float,
        "eps_PA": _parse_float,
        "check_EC": _parse_int,
        "f_EC": _parse_float,
        "dQ": _parse_float,
        "k_sample": _parse_int,
    },
    "sweep": {
        "loss_grid": _parse_float_list,
        "noise_levels": _parse_float_list,
        "n_values": _parse_int_list,
        "ec_mode": _parse_choice(*_EC_MODES),
    },
    "run": {
        "mode": _parse_choice("asymptotic", "finite"),
        "seed": _parse_int,
        "out": _parse_str,
    },
}

# config key -> dataclass field, where the names differ
_FIELD_NAME = {"beta_A_deg": "beta_A"}


@dataclass(frozen=True)
class TunableSpec:
    """Explicit working point from the config; delta may be left to calibration."""

    mu_0: float
    beta_A: float
    v_0: float
    delta: float | None = None
    k_sample: int = 0

    def resolve(self, sys: SystemParams) -> TunableParams:
        delta = self.delta if self.delta is not None else calibrate_delta(self.beta_A, sys)
        return TunableParams(
            mu_0=self.mu_0,
            beta_A=self.beta_A,
            delta=delta,
            v_0=self.v_0,
            k_sample=self.k_sample,
        )


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, already validated."""

    system: SystemParams = SystemParams()
    bounds: Bounds = Bounds()
    fk: FiniteKeyParams = FiniteKeyParams(n=10**10)
    loss_db: float = 3.0
    xi: float = 0.1
    tunables: TunableSpec | None = None
    loss_grid: tuple[float, ...] | None = None
    noise_levels: tuple[float, ...] | None = None
    n_values: tuple[int, ...] | None = None
    ec_mode: str = "pointwise"
    mode: str = "asymptotic"
    seed: int = 0
    out: str | None = None

    def sweep_spec(self, finite: bool) -> SweepSpec:
        if not self.loss_grid:
            raise ConfigError("sweep requires a non-empty [sweep] loss_grid")
        noise = self.noise_levels if self.noise_levels else (self.xi,)
        n_values = (self.n_values or (self.fk.n,)) if finite else None
        return SweepSpec(
            loss_grid=self.loss_grid,
            noise_levels=noise,
            n_values=n_values,
            bounds=self.bounds,
            fk_template=self.fk if finite else None,
            ec_mode=self.ec_mode,
        )


def _section_values(parser, section):
    out = {}
    schema = _SCHEMA[section]
    if not parser.has_section(section):
        return out
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        try:
            out[_FIELD_NAME.get(key, key)] = schema[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in section [{section}]: {exc}")
    return out


def load_config(path: str | None) -> RunConfig:
    """Parse and validate a config file; ``None`` yields pure defaults."""
    if path is None:
        return RunConfig()
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    parser.optionxform = str  # keys are case-sensitive (T, S, dQ, f_EC, ...)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse {path}: {exc}")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")

    system_kw = _section_values(parser, "system")
    channel = _section_values(parser, "channel")
    tun_kw = _section_values(parser, "tunables")
    bounds_kw = _section_values(parser, "bounds")
    fk_kw = _section_values(parser, "finitekey")
    sweep_kw = _section_values(parser, "sweep")
    run_kw = _section_values(parser, "run")

    try:
        system = SystemParams(**system_kw)
        bounds = Bounds(**bounds_kw)
        fk = FiniteKeyParams(**{"n": 10**10, **fk_kw})
        tunables = None
        if tun_kw:
            for required in ("mu_0", "beta_A", "v_0"):
                if required in tun_kw:
                    continue
                key = "beta_A_deg" if required == "beta_A" else required
                raise ConfigError(
                    f"section [tunables] needs {key!r} when present"
                )
            tunables = TunableSpec(**tun_kw)
    except ConfigError:
        raise
    except (ScwError, ValueError) as exc:
        raise ConfigError(f"invalid configuration in {path}: {exc}")

    return RunConfig(
        system=system,
        bounds=bounds,
        fk=fk,
        loss_db=channel.get("loss_db", 3.0),
        xi=channel.get("xi", 0.1),
        tunables=tunables,
        loss_grid=sweep_kw.get("loss_grid"),
        noise_levels=sweep_kw.get("noise_levels"),
        n_values=sweep_kw.get("n_values"),
        ec_mode=sweep_kw.get("ec_mode", "pointwise"),
        mode=run_kw.get("mode", "asymptotic"),
        seed=run_kw.get("seed", 0),
        out=run_kw.get("out"),
    )
