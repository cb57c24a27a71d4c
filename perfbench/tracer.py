"""Span tracer that wraps the package's public functions from outside.

Each target function is replaced, for the duration of a ``with Tracer()``
block, at every module attribute of the package that holds it, because
callers look functions up in their own module namespace (for example
``scw_cvqkd.search.calibrate_delta``).  The package's source is never
touched and every attribute is restored on exit.

Spans (name, parent, start, end) are kept in flat in-memory arrays while
the traced code runs and turned into per-layer numbers at the end: a
span's self time is its duration minus the durations of its children.
Counters that need a call's arguments or result (distinct calibration
angles, readout points, zero rates, evaluation counts) are taken at the
same boundary.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

from scw_cvqkd.errors import InfeasibleError

PACKAGE = "scw_cvqkd"

# (module, function): the layer boundaries named in METRICS.md
TARGETS = (
    ("angular", "wigner_d_row"),
    ("angular", "carrier_weight"),
    ("optics", "calibrate_delta"),
    ("optics", "matched_means"),
    ("noise", "decision_stats"),
    ("noise", "erasure_error_profiles"),
    ("security", "asymptotic_key_rate"),
    ("security", "security_quantities"),
    ("finitekey", "finite_key_rate"),
    ("search", "optimize_point"),
    ("simulate", "simulate_rounds"),
    ("simulate", "compare_analytic"),
    ("config", "load_config"),
    ("cli", "main"),
)
_RATE_FUNCTIONS = ("security.asymptotic_key_rate", "finitekey.finite_key_rate")


class Tracer:
    """Context manager that records a span around every target call."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.betas: set[float] = set()
        self.readout_points = 0
        self.zero_rates = {name: 0 for name in _RATE_FUNCTIONS}
        self.positive_search_evals = 0
        self.evaluations: list[int] = []
        self.infeasible_points = 0
        self.infeasible_grid_evals = 0
        self.rounds = 0

    def __enter__(self):
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        try:
            for nid, (mod, fn) in enumerate(TARGETS):
                original = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fn)
                wrapper = self._wrap(nid, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, nid: int, original):
        observe = getattr(self, "_on_" + self.names[nid].replace(".", "_"), None)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return functools.wraps(original)(wrapper)

    # -- counters taken at the boundaries ---------------------------------

    def _parent_is(self, name: str) -> bool:
        return bool(self._stack) and self.names[self.span_name[self._stack[-1]]] == name

    def _on_optics_calibrate_delta(self, args, kwargs, result, exc):
        self.betas.add(args[0] if args else kwargs["beta_A"])

    def _on_noise_erasure_error_profiles(self, args, kwargs, result, exc):
        self.readout_points += int(np.size(args[0] if args else kwargs["v"]))

    def _on_rate(self, name, result, exc):
        if exc is None and result.rate == 0.0:
            self.zero_rates[name] += 1
        if exc is None and result.rate > 0.0 and self._parent_is("search.optimize_point"):
            self.positive_search_evals += 1

    def _on_security_asymptotic_key_rate(self, args, kwargs, result, exc):
        self._on_rate("security.asymptotic_key_rate", result, exc)

    def _on_finitekey_finite_key_rate(self, args, kwargs, result, exc):
        self._on_rate("finitekey.finite_key_rate", result, exc)

    def _on_search_optimize_point(self, args, kwargs, result, exc):
        if exc is None:
            self.evaluations.append(result.evaluations)
            # optimize_point re-evaluates its winner once outside the count
            self.positive_search_evals -= 1
        elif isinstance(exc, InfeasibleError):
            self.infeasible_points += 1
            self.infeasible_grid_evals += int(exc.diagnostics["grid_points"])

    def _on_simulate_simulate_rounds(self, args, kwargs, result, exc):
        if exc is None:
            self.rounds += result.rounds

    # -- aggregation -------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per traced function."""
        n_names = len(self.names)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = dur - children
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=dur, minlength=n_names)
        self_time = np.bincount(names, weights=own, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_time[i])}
            for i, name in enumerate(self.names)
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of METRICS.md that spans and counters give."""
        times = self.layer_times()
        out: dict[str, tuple[float, str]] = {}

        def calls(name):
            out[f"{name}.calls"] = (times[name]["calls"], "count")

        def self_mean(name, unit):
            n = times[name]["calls"]
            scale = 1e6 if unit == "us" else 1e3
            value = times[name]["self_s"] / n * scale if n else 0.0
            out[f"{name}.self_{unit}"] = (value, unit)

        for name in ("angular.wigner_d_row", "angular.carrier_weight",
                     "optics.calibrate_delta", "optics.matched_means",
                     "noise.decision_stats", "noise.erasure_error_profiles",
                     "security.asymptotic_key_rate", "security.security_quantities",
                     "finitekey.finite_key_rate"):
            calls(name)
            self_mean(name, "us")
        n_cal = times["optics.calibrate_delta"]["calls"]
        out["optics.calibrate_delta.distinct_ratio"] = (
            len(self.betas) / n_cal if n_cal else 0.0, "ratio")
        out["noise.erasure_error_profiles.points"] = (self.readout_points, "count")
        for name in _RATE_FUNCTIONS:
            n = times[name]["calls"]
            out[f"{name}.zero_ratio"] = (self.zero_rates[name] / n if n else 0.0, "ratio")

        calls("search.optimize_point")
        self_mean("search.optimize_point", "ms")
        out["search.evals_per_point"] = (
            sum(self.evaluations) / len(self.evaluations) if self.evaluations else 0.0,
            "count")
        all_evals = sum(self.evaluations) + self.infeasible_grid_evals
        out["search.infeasible_eval_ratio"] = (
            1.0 - self.positive_search_evals / all_evals if all_evals else 0.0, "ratio")
        out["search.infeasible_points"] = (self.infeasible_points, "count")

        calls("simulate.simulate_rounds")
        self_mean("simulate.simulate_rounds", "ms")
        sim_s = times["simulate.simulate_rounds"]["total_s"]
        out["simulate.rounds_per_s"] = (self.rounds / sim_s if sim_s else 0.0, "1/s")
        self_mean("simulate.compare_analytic", "ms")
        self_mean("config.load_config", "ms")
        self_mean("cli.main", "ms")
        return out
