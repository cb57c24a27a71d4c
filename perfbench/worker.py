"""Child side of the benchmark: one fresh interpreter per invocation.

A fresh interpreter per pass or request means the package's caches start
cold every time, as they do for a user of the ``scw-cvqkd`` command.

    worker.py sweep SPEC RESULT          one timed ``sweep()`` call
    worker.py cli RESULT ARG...          one CLI request, like ``scw-cvqkd ARG...``
    worker.py pass SPEC RESULT traced|plain
                                         one serial pass of a workload, with or
                                         without the span tracer

RESULT is a JSON file the runner reads back; times are ``time.monotonic``
readings, which share one clock across processes on Linux, so the runner
can subtract its own launch time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _import_package():
    import scw_cvqkd

    done = time.monotonic()
    expected = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(scw_cvqkd.__file__).startswith(expected + os.sep):
        raise SystemExit(f"scw_cvqkd imported from {scw_cvqkd.__file__}, not {expected}")
    return scw_cvqkd, done


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _row(report) -> dict:
    p = report.params
    return {
        "loss_db": report.loss_db, "xi": report.xi, "n": report.n,
        "rate": report.rate, "status": report.status,
        "params": None if p is None else {
            "mu_0": p.mu_0, "beta_A": p.beta_A, "delta": p.delta,
            "v_0": p.v_0, "k_sample": p.k_sample,
        },
    }


def _sweep_spec(pkg, spec: dict):
    return pkg.SweepSpec(
        loss_grid=tuple(spec["loss_grid"]),
        noise_levels=tuple(spec["noise_levels"]),
        n_values=None if spec["n_values"] is None else tuple(spec["n_values"]),
    )


def _environment(pkg) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "package": pkg.__version__,
        "nproc": os.cpu_count(),
    }


def _cpu_s() -> float:
    # this process and its reaped children: the sweep pool is joined on exit
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_sweep(spec_path: str, result_path: str) -> None:
    pkg, imported = _import_package()
    from scw_cvqkd.search import thread_count

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["threads"] is not None:
        os.environ["SCW_THREADS"] = str(spec["threads"])
    sweep_spec = _sweep_spec(pkg, spec)
    sys_p = pkg.SystemParams()
    t0, c0 = time.perf_counter(), _cpu_s()
    reports = pkg.sweep(sweep_spec, sys_p)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    _write(result_path, {
        "imported": imported,
        "sweep_s": wall,
        "sweep_cpu_s": cpu,
        "rows": [_row(r) for r in reports],
        "sweep_workers": thread_count(len(reports)),
        "environment": _environment(pkg),
    })


def run_cli(result_path: str, argv: list[str]) -> int:
    pkg, imported = _import_package()
    _write(result_path, {"imported": imported, "environment": _environment(pkg)})
    from scw_cvqkd.cli import main

    return main(argv)


def _clear_caches(pkg_name: str = "scw_cvqkd") -> None:
    # what a fresh CLI process starts with: every functools cache empty
    for name, module in list(sys.modules.items()):
        if name == pkg_name or name.startswith(pkg_name + "."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def _cli_pass(pkg, spec: dict) -> dict:
    codes, written = [], 0
    for i, argv in enumerate(spec["requests"]):
        _clear_caches()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            # looked up on the module at call time, where a tracer wraps it
            codes.append(pkg.cli.main(argv))
        out = spec["outputs"][i]
        for path in (out, out + ".meta.json"):
            if os.path.exists(path):
                written += os.path.getsize(path)
    return {"codes": codes, "bytes_written": written}


def run_pass(spec_path: str, result_path: str, traced: bool) -> None:
    """One serial pass; the tracer, if on, wraps only this pass."""
    pkg, _ = _import_package()
    import scw_cvqkd.cli  # noqa: F401  (the tracer patches modules already loaded)
    from tracer import Tracer

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer() if traced else None
    t0 = time.perf_counter()
    with tracer if traced else contextlib.nullcontext():
        if spec["kind"] == "cli":
            out = _cli_pass(pkg, spec)
        else:
            out = {"rows": [_row(r) for r in pkg.sweep(_sweep_spec(pkg, spec),
                                                        pkg.SystemParams())]}
    out["wall_s"] = time.perf_counter() - t0
    if traced:
        out["per_layer"] = {k: list(v) for k, v in tracer.per_layer().items()}
        out["spans"] = tracer.span_count()
    _write(result_path, out)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "sweep":
        run_sweep(argv[1], argv[2])
        return 0
    if mode == "cli":
        return run_cli(argv[1], argv[2:])
    if mode == "pass":
        run_pass(argv[1], argv[2], argv[3] == "traced")
        return 0
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
