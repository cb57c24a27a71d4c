"""Optimum gate: record optimizer results on a fixed point set, compare two records.

    PYTHONPATH=src python3 tools/optimum_gate.py dump OUT.json
    PYTHONPATH=src python3 tools/optimum_gate.py compare A.json B.json

``dump`` runs ``optimize_point`` on 540 channel points with the package
found on the import path, so pointing ``PYTHONPATH`` at another checkout's
``src`` records that checkout:

- S=1: losses 0.25-10 dB in 0.25 dB steps x xi 0/0.1/0.2 x asymptotic and
  finite pointwise n = 1e8, 1e10, 1e12 (480 points);
- S=3: losses 1-10 dB in 1 dB steps x xi 0/0.1/0.2 x asymptotic and
  n = 1e10 (60 points).

Each point records its status (``ok``, ``infeasible`` or the error), the
rate, ``OptimumPoint.evaluations`` (kernel points scored) and the number
of kernel calls (``search._score`` calls).

``compare`` prints the status changes from A to B, the range of the
relative rate change over points that are ``ok`` in both, and the totals
of kernel points and kernel calls (the coarse grid's one call included),
per optimum for each S.  It exits 1 when a status changed or a rate moved
by more than ``RTOL`` relative, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys

LOSSES_S1 = [round(0.25 * i, 2) for i in range(1, 41)]
LOSSES_S3 = [float(i) for i in range(1, 11)]
NOISE = (0.0, 0.1, 0.2)
RTOL = 1e-12


def points():
    """(S, loss_db, xi, n) of every gated point; n is None for asymptotic."""
    for S, losses, n_values in (
        (1, LOSSES_S1, (None, 10**8, 10**10, 10**12)),
        (3, LOSSES_S3, (None, 10**10)),
    ):
        for n in n_values:
            for xi in NOISE:
                for loss_db in losses:
                    yield S, loss_db, xi, n


def dump(out: str) -> None:
    from scw_cvqkd import search
    from scw_cvqkd.errors import InfeasibleError
    from scw_cvqkd.finitekey import FiniteKeyParams
    from scw_cvqkd.noise import ChannelModel
    from scw_cvqkd.optics import SystemParams

    calls = 0
    score = search._score

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return score(*args, **kwargs)

    search._score = counted
    records = []
    for S, loss_db, xi, n in points():
        calls = 0
        record = {"S": S, "loss_db": loss_db, "xi": xi, "n": n}
        fk = FiniteKeyParams(n=n) if n is not None else None
        try:
            opt = search.optimize_point(
                ChannelModel(loss_db=loss_db, xi=xi), SystemParams(S=S), fk=fk
            )
        except InfeasibleError:
            record.update(status="infeasible", rate=0.0, evaluations=None)
        except Exception as exc:  # recorded, so a compare shows it
            record.update(status=f"error: {type(exc).__name__}: {exc}", rate=0.0,
                          evaluations=None)
        else:
            record.update(status="ok", rate=opt.rate, evaluations=opt.evaluations)
        record["calls"] = calls
        records.append(record)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=0)
    ok = sum(r["status"] == "ok" for r in records)
    print(f"{len(records)} points, {ok} ok, written to {out}")


def _key(record):
    return record["S"], record["loss_db"], record["xi"], record["n"]


def _name(key) -> str:
    S, loss_db, xi, n = key
    return f"S={S} {loss_db} dB xi={xi} n={'inf' if n is None else f'{n:.0e}'}"


def compare(a_path: str, b_path: str) -> int:
    with open(a_path, encoding="utf-8") as fh:
        a = {_key(r): r for r in json.load(fh)}
    with open(b_path, encoding="utf-8") as fh:
        b = {_key(r): r for r in json.load(fh)}
    bad = 0
    if a.keys() != b.keys():
        only = len(a.keys() ^ b.keys())
        print(f"point sets differ: {only} points in one record only")
        bad += 1
    shared = [k for k in a if k in b]
    changed = [k for k in shared if a[k]["status"] != b[k]["status"]]
    for k in changed:
        print(f"status {_name(k)}: {a[k]['status']} -> {b[k]['status']}")
    print(f"{len(shared)} points, {len(changed)} status changes")
    bad += len(changed)

    both = [k for k in shared if a[k]["status"] == b[k]["status"] == "ok"]
    rel = [(b[k]["rate"] - a[k]["rate"]) / a[k]["rate"] for k in both]
    if rel:
        worst = max(both, key=lambda k: abs(b[k]["rate"] - a[k]["rate"]) / a[k]["rate"])
        print(f"relative rate change over {len(both)} ok points: "
              f"{min(rel):+.2e} ... {max(rel):+.2e} (largest at {_name(worst)})")
        bad += sum(abs(r) > RTOL for r in rel)

    for S in sorted({k[0] for k in both}):
        group = [k for k in both if k[0] == S]
        for label, field in (
            ("kernel points", "evaluations"),
            ("kernel calls, grid included", "calls"),
        ):
            ta = sum(a[k][field] for k in group)
            tb = sum(b[k][field] for k in group)
            print(f"S={S}, {len(group)} ok points, {label}: {ta} -> {tb} "
                  f"({ta / len(group):.2f} -> {tb / len(group):.2f} per optimum)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("dump").add_argument("out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.mode == "dump":
        dump(args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
