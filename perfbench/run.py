"""Benchmark of the scw-cvqkd key-rate pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  Workloads, metrics
and the reasoning behind them are in ``perfbench/METRICS.md``.

``--trace 0`` repeats the workload in fresh interpreters for about S
seconds and reports the end-to-end metrics.  ``--trace 1`` runs one
serial pass untraced and one traced, each in a fresh interpreter, and
reports the per-layer metrics plus the tracing overhead.  Either way
every output is checked, failures are printed and counted, and the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from workloads import (
    SIM_INI, WORKLOADS, cli_argv, cli_requests, keyrate_points, sweep_inputs,
)

HERE = Path(__file__).resolve().parent
# every run ends well inside the 180 s a run may take
RUN_DEADLINE_S = 165.0
# every pass samples setup_s once; three give it a median
MIN_SWEEP_PASSES = 3
RATE_FLOOR = 1e-12
TAIL_BEYOND = 10


class Run:
    """Launches fresh interpreters for one benchmark run and keeps its files."""

    def __init__(self, root: Path, trace: bool):
        self.root = root
        self.start = time.monotonic()
        scratch = root / ".perfbench_work"
        scratch.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=scratch))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PERFBENCH_SRC"] = str(root / "src")
        if trace:
            # serial: every span stays in the one traced process
            self.env["SCW_THREADS"] = "1"
        else:
            # the sweep pool takes its default size, one worker per CPU,
            # unless the workload's spec sets a thread count
            self.env.pop("SCW_THREADS", None)
        self.failures: list[str] = []
        self._count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def path(self, suffix: str) -> str:
        self._count += 1
        return str(self.work / f"{self._count}{suffix}")

    def launch(self, args: list[str]) -> tuple[int, float, float]:
        """Run ``worker.py ARGS`` to completion: (exit code, launch, exit) times."""
        remaining = RUN_DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise TimeoutError("benchmark run deadline passed")
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=self.root,
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=remaining)
        except BaseException as exc:
            # the worker and any pool it started share one process group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise TimeoutError(f"worker {args[0]} still running at the deadline")
            raise
        t1 = time.monotonic()
        # a CLI request's exit code is judged by the output checks
        if proc.returncode and args[0] != "cli":
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            self.failures.append(f"worker {args[0]} exited {proc.returncode}: {tail}")
        return proc.returncode, t0, t1

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run shares the directory


def _read(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _write(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def tail_latency(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it.

    The tail is left out while that percentile would not exceed the median.
    """
    s = sorted(samples)
    out = {"count": len(s), "p50": statistics.median(s) if s else None,
           "tail": None, "tail_percentile": None}
    if len(s) > 2 * TAIL_BEYOND + 1:
        out["tail"] = s[len(s) - TAIL_BEYOND - 1]
        out["tail_percentile"] = round(100.0 * (len(s) - TAIL_BEYOND) / len(s), 1)
    return out


def rate_quality(rates) -> dict:
    """Geometric-mean rate over distinct points, each floored at 1e-12 b/s.

    A relative change of the geometric mean reads as a rate ratio: every
    point 10% lower moves it by 10%, and one point in N that falls to the
    floor moves it by many decades over N.  ``decades`` is the same
    figure as a sum of log10(rate / floor), kept for the detail line.
    """
    logs = [math.log10(max(r, RATE_FLOOR)) for r in rates]
    return {"rate_gmean": 10.0 ** statistics.fmean(logs),
            "decades": sum(x - math.log10(RATE_FLOOR) for x in logs)}


def provenance(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    # only this checkout's own repository, never one git finds further up
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "caches": "cold: every timed pass and request is a fresh interpreter, "
                      "nothing is warmed"}


# -- timed runs ------------------------------------------------------------

def timed_sweep(run: Run, workload: str, seed: int, seconds: float):
    spec = sweep_inputs(workload, seed)
    spec_path = run.path(".json")
    _write(spec_path, spec)
    finite = spec["mode"] == "finite"
    setups, environment = [], None
    passes, reference = [], None
    attempted = failed = 0
    n_points = len(spec["loss_grid"]) * len(spec["noise_levels"]) * len(spec["n_values"] or [1])
    while True:
        result = run.path(".json")
        _, t0, t1 = run.launch(["sweep", spec_path, result])
        data = _read(result)
        attempted += n_points
        if data is None:
            failed += n_points
        else:
            setups.append(data["imported"] - t0)
            rows = data["rows"]
            environment = {**data["environment"], "sweep_workers": data["sweep_workers"]}
            bad = 0
            for row in rows:
                msgs = checks.check_row(row, finite)
                run.failures += msgs
                bad += bool(msgs)
            pass_level = [] if finite else checks.check_cutoff(rows)
            if reference is None:
                reference = rows
            else:
                pass_level += checks.check_same_rows(rows, reference)
            run.failures += pass_level
            failed += len(rows) if pass_level else bad
            passes.append({"points": len(rows), "sweep_s": data["sweep_s"],
                           "sweep_cpu_s": data["sweep_cpu_s"], "pass_s": t1 - t0})
        est = statistics.median([p["pass_s"] for p in passes]) if passes else 0.0
        if len(passes) >= MIN_SWEEP_PASSES and run.elapsed() + est > seconds:
            break
        if not passes and run.elapsed() > seconds:
            break
    if reference is None or not setups:
        raise RuntimeError("no sweep pass completed")

    past = sum(r["status"] == "infeasible" for r in reference) / len(reference)
    quality = rate_quality(r["rate"] for r in reference)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(p["points"] / p["sweep_s"] for p in passes), "1/s"),
        "rate_gmean": (quality["rate_gmean"], "b/s"),
    }
    detail = {
        "points": len(reference), "past_cutoff_share": past,
        "log_rate_decades": quality["decades"],
        "loss_grid": spec["loss_grid"], "noise_levels": spec["noise_levels"],
        "n_values": spec["n_values"], "passes": passes, "setup_s": setups,
        "environment": environment,
    }
    return metrics, detail, attempted, failed


def timed_cli(run: Run, seed: int, seconds: float):
    ini = run.path(".ini")
    Path(ini).write_text(SIM_INI, encoding="utf-8")
    requests = cli_requests(seed)
    n_points = len(keyrate_points(seed))
    setups, environment = [], None
    done = []
    for i, req in enumerate(requests):
        out = run.path(".csv" if req["command"] == "keyrate" else ".json")
        result = run.path(".json")
        code, t0, t1 = run.launch(["cli", result, *cli_argv(req, out, ini)])
        data = _read(result)
        if data is not None:
            setups.append(data["imported"] - t0)
            environment = data["environment"]
        done.append((req, out, code, t1 - t0))
        pairs = (i + 1) // 2
        if (i + 1) % 2 == 0 and pairs >= n_points:
            pair_s = sum(d[3] for d in done) / pairs
            if run.elapsed() + pair_s > seconds:
                break

    rates: dict[tuple[float, float], tuple] = {}
    failed = 0
    for req, out, code, _ in done:
        if req["command"] == "keyrate":
            row, msgs = checks.check_keyrate(out, code, req["loss_db"], req["xi"])
            key = (req["loss_db"], req["xi"])
            if row is not None:
                seen = rates.setdefault(key, (row["rate"], row["params"]))
                if seen != (row["rate"], row["params"]):
                    msgs.append(f"keyrate at {key} differs between repeats")
        else:
            msgs = checks.check_simulate(out, code)
        run.failures += msgs
        failed += bool(msgs)
    if len(rates) < n_points or not setups:
        raise RuntimeError("the session did not cover every keyrate point")

    keyrate = [d[3] for d in done if d[0]["command"] == "keyrate"]
    simulate = [d[3] for d in done if d[0]["command"] == "simulate"]
    quality = rate_quality(r for r, _ in rates.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(done) / sum(d[3] for d in done), "1/s"),
        "rate_gmean": (quality["rate_gmean"], "b/s"),
    }
    detail = {
        "requests": len(done), "keyrate_points": n_points,
        "log_rate_decades": quality["decades"],
        "past_cutoff_share": sum(r == 0.0 for r, _ in rates.values()) / n_points,
        "keyrate_s": tail_latency(keyrate), "simulate_s": tail_latency(simulate),
        "setup_s": setups, "environment": environment,
        "loop": "closed, one client, one request in flight",
    }
    return metrics, detail, len(done), failed


# -- traced runs -----------------------------------------------------------

def _trace_spec(run: Run, workload: str, seed: int, tag: str) -> tuple[dict, list]:
    if workload != "cli-session":
        return {"kind": "sweep", **sweep_inputs(workload, seed)}, []
    ini = run.path(".ini")
    Path(ini).write_text(SIM_INI, encoding="utf-8")
    cycle = cli_requests(seed)[: 2 * len(keyrate_points(seed))]
    outputs = [run.path(f".{tag}." + ("csv" if r["command"] == "keyrate" else "json"))
               for r in cycle]
    spec = {"kind": "cli", "outputs": outputs,
            "requests": [cli_argv(r, o, ini) for r, o in zip(cycle, outputs)]}
    return spec, cycle


def _pass(run: Run, spec: dict, mode: str) -> dict | None:
    spec_path, result = run.path(".json"), run.path(".json")
    _write(spec_path, spec)
    run.launch(["pass", spec_path, result, mode])
    return _read(result)


def traced_run(run: Run, workload: str, seed: int):
    plain_spec, _ = _trace_spec(run, workload, seed, "plain")
    traced_spec, cycle = _trace_spec(run, workload, seed, "traced")
    plain = _pass(run, plain_spec, "plain")
    traced = _pass(run, traced_spec, "traced")
    if plain is None or traced is None:
        raise RuntimeError("a trace pass did not complete")

    failed = 0
    if workload == "cli-session":
        attempted = len(cycle)
        for req, out, code, plain_out in zip(
            cycle, traced_spec["outputs"], traced["codes"], plain_spec["outputs"]
        ):
            if req["command"] == "keyrate":
                row, msgs = checks.check_keyrate(out, code, req["loss_db"], req["xi"])
                again, _ = checks.read_keyrate_output(plain_out)
                if row != again:
                    msgs.append(f"traced keyrate at {req['loss_db']} dB differs from untraced")
            else:
                msgs = checks.check_simulate(out, code)
            run.failures += msgs
            failed += bool(msgs)
        bytes_written = traced["bytes_written"]
    else:
        finite = traced_spec["mode"] == "finite"
        rows = traced["rows"]
        attempted = len(rows)
        for row in rows:
            msgs = checks.check_row(row, finite)
            run.failures += msgs
            failed += bool(msgs)
        same = [] if finite else checks.check_cutoff(rows)
        same += checks.check_same_rows(rows, plain["rows"])
        if same:
            run.failures += [f"traced pass: {m}" for m in same]
            failed = attempted
        bytes_written = 0

    metrics = {k: tuple(v) for k, v in traced["per_layer"].items()}
    metrics["cli.bytes_written"] = (bytes_written, "bytes")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    detail = {"traced_s": traced["wall_s"], "untraced_s": plain["wall_s"],
              "spans": traced["spans"], "serial": True}
    return metrics, detail, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # unwind through the cleanup below, which stops every worker still running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "scw_cvqkd" / "__init__.py").is_file():
        print(f"error: no src/scw_cvqkd under {root}; run from a source checkout",
              file=sys.stderr)
        return 2

    # the output checks re-evaluate rates through this checkout's package
    sys.path.insert(0, str(root / "src"))
    run = Run(root, trace=bool(args.trace))
    try:
        if args.trace:
            metrics, detail, attempted, failed = traced_run(run, args.workload, args.seed)
        elif args.workload == "cli-session":
            metrics, detail, attempted, failed = timed_cli(run, args.seed, args.seconds)
        else:
            metrics, detail, attempted, failed = timed_sweep(
                run, args.workload, args.seed, args.seconds)
    except (RuntimeError, TimeoutError) as exc:
        for msg in run.failures:
            print(f"FAIL {msg}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    if not args.trace:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MiB")
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, wall_s=run.elapsed(), **provenance(root))
    for msg in run.failures:
        print(f"FAIL {msg}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
