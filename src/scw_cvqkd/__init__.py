"""Numerical laboratory for subcarrier-wave CV-QKD key-rate analysis."""

from .angular import DRow, carrier_weight, wigner_d_row
from .config import RunConfig, TunableSpec, load_config
from .errors import (
    ConfigError,
    DegenerateError,
    DomainError,
    EmptyAcceptanceError,
    InfeasibleError,
    InternalError,
    MismatchError,
    NoRootError,
    ScwError,
)
from .finitekey import (
    FiniteKeyParams,
    FiniteKeyResult,
    finite_key_length,
    finite_key_rate,
)
from .noise import ChannelModel, DecisionStats, decision_stats, noise_sigma
from .optics import (
    SystemParams,
    TunableParams,
    calibrate_delta,
    matched_means,
    mean_table,
)
from .search import (
    Bounds,
    KeyRateReport,
    OptimumPoint,
    SweepSpec,
    optimize_point,
    sweep,
)
from .security import (
    KeyRateResult,
    SecurityQuantities,
    asymptotic_key_rate,
    holevo_dr,
    security_quantities,
)
from .simulate import EmpiricalStats, compare_analytic, simulate_rounds

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "ChannelModel",
    "ConfigError",
    "DRow",
    "DecisionStats",
    "DegenerateError",
    "DomainError",
    "EmpiricalStats",
    "EmptyAcceptanceError",
    "FiniteKeyParams",
    "FiniteKeyResult",
    "InfeasibleError",
    "InternalError",
    "KeyRateReport",
    "KeyRateResult",
    "MismatchError",
    "NoRootError",
    "OptimumPoint",
    "RunConfig",
    "ScwError",
    "SecurityQuantities",
    "SweepSpec",
    "SystemParams",
    "TunableParams",
    "TunableSpec",
    "__version__",
    "asymptotic_key_rate",
    "calibrate_delta",
    "carrier_weight",
    "compare_analytic",
    "decision_stats",
    "finite_key_length",
    "finite_key_rate",
    "holevo_dr",
    "load_config",
    "matched_means",
    "mean_table",
    "noise_sigma",
    "optimize_point",
    "security_quantities",
    "simulate_rounds",
    "sweep",
    "wigner_d_row",
]
