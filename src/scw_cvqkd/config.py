"""Flat INI-style run configuration.

One file drives every command: system constants, channel point, sweep
grids, search bounds, finite-key overheads, and run bookkeeping.  Keys
are grouped in sections, every key is optional (defaults mirror the
dataclass defaults), and unknown sections or keys are rejected with
their location.  Angles are written in degrees in the file and
converted to radians on load.

The finite-key and search-box parameter sets are defined here, where the
file builds them, so reading a config loads neither ``finitekey`` nor
``search``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, DomainError, ScwError
from .optics import SystemParams, TunableParams, calibrate_delta

if TYPE_CHECKING:
    from .search import SweepSpec

_EC_MODES = ("pointwise", "block")


@dataclass(frozen=True)
class FiniteKeyParams:
    """Block size, security parameters and error-correction overheads."""

    n: int
    eps_s: float = 1e-10
    eps_PA: float = 1e-10
    check_EC: int = 256
    f_EC: float = 1.15
    dQ: float = 0.01
    k_sample: int = 0
    Q_est: float | None = None

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"block size must be a positive int, got {self.n!r}")
        for name in ("eps_s", "eps_PA"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise DomainError(f"{name} must be in (0, 1), got {val}")
        if not (isinstance(self.check_EC, int) and self.check_EC >= 1):
            raise DomainError(
                f"verification hash length must be a positive int, got {self.check_EC!r}"
            )
        if not (math.isfinite(self.f_EC) and self.f_EC >= 1.0):
            raise DomainError(f"f_EC must be finite and >= 1, got {self.f_EC}")
        if not 0.0 <= self.dQ < 0.5:
            raise DomainError(f"dQ must be in [0, 1/2), got {self.dQ}")
        if not 0 <= self.k_sample < self.n:
            raise DomainError(
                f"k_sample must be in [0, n), got {self.k_sample} with n={self.n}"
            )
        if self.Q_est is not None and not 0.0 <= self.Q_est <= 0.5:
            raise DomainError(f"Q_est must be in [0, 1/2], got {self.Q_est}")

    @property
    def eps_EC(self) -> float:
        return 2.0 ** -self.check_EC

    @property
    def loss_PA(self) -> float:
        return math.log2(1.0 / self.eps_PA) - 2.0

    @property
    def eps_QKD(self) -> float:
        return self.eps_EC + self.eps_s + self.eps_PA


@dataclass(frozen=True)
class Bounds:
    """Box bounds for the decision variables.

    The threshold bound is expressed in units of the readout standard
    deviation so one box serves every noise level.
    """

    mu_0: tuple[float, float] = (1e-3, 10.0)
    beta_A: tuple[float, float] = (0.1, 1.45)
    v_0_sigmas: tuple[float, float] = (0.0, 6.0)

    def __post_init__(self):
        for name in ("mu_0", "beta_A", "v_0_sigmas"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError(f"bounds for {name} must be finite, got ({lo}, {hi})")
            if not lo < hi:
                raise DomainError(f"bounds for {name} must be ordered, got ({lo}, {hi})")
        if self.mu_0[0] <= 0.0:
            raise DomainError(f"mu_0 lower bound must be positive, got {self.mu_0[0]}")
        if not 0.0 < self.beta_A[0] < self.beta_A[1] < 0.5 * math.pi:
            raise DomainError(
                f"beta_A bounds must sit inside (0, pi/2), got {self.beta_A}"
            )
        if self.v_0_sigmas[0] < 0.0:
            raise DomainError(
                f"threshold lower bound must be >= 0, got {self.v_0_sigmas[0]}"
            )


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


def _parse_seed(text: str) -> int:
    # numpy's SeedSequence takes non-negative integers only
    val = _parse_int(text)
    if val < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return val


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
        "seed": _parse_seed,
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
        from .search import SweepSpec

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
    import configparser

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
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, a file without read permission, or one not in UTF-8
        raise ConfigError(f"could not read {path}: {exc}")

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
