"""Numerical laboratory for subcarrier-wave CV-QKD key-rate analysis."""

import os as _os
import sys as _sys

# No rate path gives BLAS work big enough to split across threads, yet
# numpy's OpenBLAS starts one thread per CPU when it loads, which can cost
# a fresh process tens of milliseconds.  Unless the user has chosen a
# thread count, numpy is loaded with one BLAS thread and the environment
# is then put back as it was.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(
    name in _os.environ for name in _BLAS_THREAD_VARS
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
