"""Paired benchmark runs of two checkouts: the record behind a BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        --pairs N --seed-base S --out FILE [--workload W2 ...]

Each pair runs ``perfbench/run.py --workload W --seed S+i --seconds T
--trace 0`` once from each checkout, one after the other, both with the
same seed; ``T`` is the ``run_seconds`` of the change's ``BENCHMARK.json``.
Pair 0 runs the parent first, pair 1 the change first, and so on, so a
drift of the machine's speed does not favour one side.  After its pairs,
each workload gets one ``--trace 1`` run per side, seed ``S``, for the
per-layer metrics.  Each run is the checkout's own copy of
``perfbench/run.py``, started with this interpreter from the checkout's
root; nothing under ``perfbench/`` is edited.  ``--workload`` may be given
more than once; the pairs of one workload finish before the next
workload starts.

``FILE`` is rewritten after every pair, so an interrupted session keeps
the pairs it finished.  It holds, per workload, every run's metrics and
verdict, the number of each side's runs that were ``correct``, and, per
end-to-end metric of the change's ``BENCHMARK.json``, each side's first
quartile, median and third quartile, the number of pairs in which the
change is better, and the median per-pair ratio change / parent; and
each side's traced run, with its verdict and per-layer metrics.  It also
records both checkouts' git shas (and whether their trees differ from
them), the source digest each run reports, and the Python and numpy
versions and CPU count of the machine.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def order(pair: int) -> tuple[str, str]:
    """Which side runs first in pair ``pair``: they alternate."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, wins and ratios.

    Only pairs in which both runs finished and report the metric count.
    A win is a pair in which the change is strictly better.
    """
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        both = [
            (p["parent"]["metrics"][name], p["change"]["metrics"][name])
            for p in pairs
            if all(name in p[side].get("metrics", {}) for side in SIDES)
        ]
        if not both:
            continue
        parent, change = ([b[i] for b in both] for i in (0, 1))
        wins = sum((c > p) if higher else (c < p) for p, c in both)
        ratios = [c / p for p, c in both if p]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "pairs": len(both),
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_better": wins,
            "ratio_median": statistics.median(ratios) if ratios else None,
        }
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run from ``root``; its verdict and metrics."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=seconds + 300)
    lines = proc.stdout.strip().splitlines()
    result = {"exit": proc.returncode}
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        result["error"] = proc.stderr.strip().splitlines()[-3:]
        return result
    result.update(correct=last["correct"], attempted=last["attempted"],
                  failed=last["failed"],
                  metrics={k: v["value"] for k, v in last["metrics"].items()})
    result["fail_lines"] = [ln for ln in lines if ln.startswith("FAIL ")][:5]
    for line in lines:
        if line.startswith("detail "):
            result["src_sha256"] = json.loads(line[len("detail "):]).get("src_sha256")
    return result


def checkout(root: Path) -> dict:
    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=root, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    # only the checkout's own repository, never one git finds further up
    if not (root / ".git").exists():
        return {"dir": root.name, "git_sha": None, "dirty": None}
    return {"dir": root.name, "git_sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def host() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py under {root}", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("error: --pairs must be >= 1", file=sys.stderr)
        return 2
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    record = {
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seconds": seconds,
        "seed_base": args.seed_base,
        "host": host(),
        **{side: checkout(root) for side, root in roots.items()},
        "workloads": {},
    }
    for workload in args.workload:
        pairs: list[dict] = []
        record["workloads"][workload] = {"pairs": pairs, "summary": {}}
        for i in range(args.pairs):
            seed = args.seed_base + i
            pair = {"seed": seed, "first": order(i)[0]}
            for side in order(i):
                pair[side] = run_once(roots[side], workload, seed, seconds)
                print(f"{workload} pair {i} seed {seed} {side}: "
                      f"{pair[side].get('metrics', pair[side])}", file=sys.stderr)
            pairs.append(pair)
            record["workloads"][workload]["summary"] = summarise(
                pairs, spec["end_to_end"])
            record["workloads"][workload]["runs_correct"] = {
                side: sum(p[side].get("correct") is True for p in pairs)
                for side in SIDES}
            args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        traced = record["workloads"][workload]["traced"] = {}
        for side in SIDES:
            traced[side] = run_once(roots[side], workload, args.seed_base, seconds,
                                    trace=1)
            print(f"{workload} traced {side}: correct={traced[side].get('correct')}",
                  file=sys.stderr)
            args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
