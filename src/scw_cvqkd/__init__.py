"""Numerical laboratory for subcarrier-wave CV-QKD key-rate analysis.

``import scw_cvqkd`` loads numpy alone.  A public name is read from the
module that defines it when it is accessed, and that module is imported
the first time (PEP 562); a module name (``scw_cvqkd.search``) imports
that module.  A program loads only the layers it uses.
"""

import importlib as _importlib
import os as _os
import sys as _sys

# No rate path gives BLAS work big enough to split across threads, yet
# OpenBLAS starts one thread per CPU when it loads, which can cost a fresh
# process tens of milliseconds.  numpy and scipy each bundle their own.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _import_one_blas_thread(name: str):
    """Import module ``name`` so that a BLAS it loads starts one thread.

    Unless the user has chosen a thread count, the module is already
    loaded, or numpy was loaded before this package (and so with its own
    default), ``OPENBLAS_NUM_THREADS=1`` is set for the import alone and
    the environment is then put back as it was.
    """
    if (
        not _ONE_BLAS_THREAD
        or name in _sys.modules
        or any(var in _os.environ for var in _BLAS_THREAD_VARS)
    ):
        return _importlib.import_module(name)
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return _importlib.import_module(name)
    finally:
        _os.environ.pop("OPENBLAS_NUM_THREADS", None)


# a user who loads numpy first keeps OpenBLAS's default in scipy as well
_ONE_BLAS_THREAD = "numpy" not in _sys.modules
_import_one_blas_thread("numpy")

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "angular": ("DRow", "carrier_weight", "wigner_d_row"),
    "config": ("Bounds", "FiniteKeyParams", "RunConfig", "TunableSpec", "load_config"),
    "errors": (
        "ConfigError", "DegenerateError", "DomainError", "EmptyAcceptanceError",
        "InfeasibleError", "InternalError", "MismatchError", "NoRootError", "ScwError",
    ),
    "finitekey": ("FiniteKeyResult", "finite_key_length", "finite_key_rate"),
    "noise": ("ChannelModel", "DecisionStats", "decision_stats", "noise_sigma"),
    "optics": (
        "SystemParams", "TunableParams", "calibrate_delta", "matched_means", "mean_table",
    ),
    "search": ("KeyRateReport", "OptimumPoint", "SweepSpec", "optimize_point", "sweep"),
    "security": (
        "KeyRateResult", "SecurityQuantities", "asymptotic_key_rate", "holevo_dr",
        "security_quantities",
    ),
    "simulate": ("EmpiricalStats", "compare_analytic", "simulate_rounds"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    # not cached here: a name always reads what its defining module holds
    # now, a patched or wrapped function included
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__all__ = sorted([*_MODULE_OF, "__version__"])
