"""Optimum gate: record optimizer results on a fixed point set, compare two records.

    PYTHONPATH=src python3 tools/optimum_gate.py dump [--block] OUT.json
    PYTHONPATH=src python3 tools/optimum_gate.py compare A.json B.json

``dump`` runs ``optimize_point`` on 540 channel points with the package
found on the import path.  To record another checkout, run that
checkout's own copy of this tool with ``PYTHONPATH`` at its ``src``: the
function that counts kernel calls is private and may differ between
checkouts (``search._kernel`` has kept its name since the lockstep
search, so a checkout without ``--block`` can be recorded with this
copy).  The points are:

- S=1: losses 0.25-10 dB in 0.25 dB steps x xi 0/0.1/0.2 x asymptotic and
  finite pointwise n = 1e8, 1e10, 1e12 (480 points);
- S=3: losses 1-10 dB in 1 dB steps x xi 0/0.1/0.2 x asymptotic and
  n = 1e10 (60 points).

``dump --block`` writes a separate record of 90 finite points in block
``ec_mode``: S=1 and S=3 x losses 0.5/1/3/6/8 dB x xi 0/0.1/0.2 x
n = 1e8, 1e10, 1e12.  Its records carry ``"ec_mode": "block"``, which is
part of the key ``compare`` matches records by; a record without it is a
pointwise (or asymptotic) one.

Each point records its status (``ok``, ``infeasible`` or the error), the
rate, ``OptimumPoint.evaluations`` (kernel points scored), the number of
kernel calls (``search._kernel`` calls: one for the coarse grid, one per
refinement block), and the optimum's Q, P, chi and parameters
(mu_0, beta_A, delta, v_0).

``compare`` prints the status changes from A to B, the range of the
relative rate change over points that are ``ok`` in both, overall and
per (S, ``ec_mode``) group (a group whose records are equal in every
field says so), and the totals
of kernel points and kernel calls (the coarse grid's one call included),
per optimum for each S.  It exits 1 when a status changed or a rate moved
by more than ``RTOL`` relative, else 0.  For information only it also
prints the largest relative change of Q, P and chi, and for each rate
that moved by more than ``RTOL`` it recomputes both records' rates at
their own reported parameters in 30-digit arithmetic (mpmath; the symbol
means and chi of the package on the import path are taken as exact
inputs), both as the integral and as the kernel's 48-node rule, and says
which record lies closer to each: the first includes the rule's own
truncation error, the second isolates the kernel's rounding.  The oracle
integrates the pointwise charge, so block records get none.  Records
written before these fields existed are compared on the rest.
"""

from __future__ import annotations

import argparse
import json
import sys

LOSSES_S1 = [round(0.25 * i, 2) for i in range(1, 41)]
LOSSES_S3 = [float(i) for i in range(1, 11)]
LOSSES_BLOCK = [0.5, 1.0, 3.0, 6.0, 8.0]
N_BLOCK = (10**8, 10**10, 10**12)
NOISE = (0.0, 0.1, 0.2)
RTOL = 1e-12


def points(ec_mode: str = "pointwise"):
    """(S, loss_db, xi, n) of every gated point of ``ec_mode``; n is None
    for asymptotic."""
    if ec_mode == "block":
        sets = ((1, LOSSES_BLOCK, N_BLOCK), (3, LOSSES_BLOCK, N_BLOCK))
    else:
        sets = (
            (1, LOSSES_S1, (None, 10**8, 10**10, 10**12)),
            (3, LOSSES_S3, (None, 10**10)),
        )
    for S, losses, n_values in sets:
        for n in n_values:
            for xi in NOISE:
                for loss_db in losses:
                    yield S, loss_db, xi, n


def dump(out: str, ec_mode: str = "pointwise") -> None:
    from scw_cvqkd import search
    from scw_cvqkd.errors import InfeasibleError
    from scw_cvqkd.finitekey import FiniteKeyParams
    from scw_cvqkd.noise import ChannelModel
    from scw_cvqkd.optics import SystemParams

    calls = 0
    kernel = search._kernel

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kernel(*args, **kwargs)

    search._kernel = counted
    records = []
    for S, loss_db, xi, n in points(ec_mode):
        calls = 0
        record = {"S": S, "loss_db": loss_db, "xi": xi, "n": n}
        if ec_mode != "pointwise":
            record["ec_mode"] = ec_mode
        fk = FiniteKeyParams(n=n) if n is not None else None
        try:
            opt = search.optimize_point(
                ChannelModel(loss_db=loss_db, xi=xi), SystemParams(S=S), fk=fk,
                ec_mode=ec_mode,
            )
        except InfeasibleError:
            record.update(status="infeasible", rate=0.0, evaluations=None)
        except Exception as exc:  # recorded, so a compare shows it
            record.update(status=f"error: {type(exc).__name__}: {exc}", rate=0.0,
                          evaluations=None)
        else:
            t = opt.params
            record.update(status="ok", rate=opt.rate, evaluations=opt.evaluations,
                          Q=opt.Q, P=opt.P, chi=opt.chi,
                          params=[t.mu_0, t.beta_A, t.delta, t.v_0])
        record["calls"] = calls
        records.append(record)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=0)
    ok = sum(r["status"] == "ok" for r in records)
    print(f"{len(records)} points, {ok} ok, written to {out}")


def _key(record):
    return (record["S"], record["loss_db"], record["xi"], record["n"],
            record.get("ec_mode", "pointwise"))


def _name(key) -> str:
    S, loss_db, xi, n, ec_mode = key
    mode = " block" if ec_mode == "block" else ""
    return f"S={S} {loss_db} dB xi={xi} n={'inf' if n is None else f'{n:.0e}'}{mode}"


def _oracle_rates(record):
    """The rate at a record's reported parameters, asymptotic or finite
    pointwise, in 30-digit arithmetic (mpmath): the integral over the
    kernel's region [v_0, ceiling], and the kernel's 48-node
    Gauss-Legendre sum on that region.  The symbol means, chi and the
    finite charges not set by the readout are the package's floats, taken
    as exact."""
    import mpmath as mp
    from numpy.polynomial.legendre import leggauss

    from scw_cvqkd.finitekey import FiniteKeyParams, _fixed_charge
    from scw_cvqkd.noise import ChannelModel, integration_ceiling, noise_sigma
    from scw_cvqkd.optics import SystemParams, TunableParams, matched_means
    from scw_cvqkd.security import N_BASES, holevo_dr

    mp.mp.dps = 30
    sys_p = SystemParams(S=record["S"])
    ch = ChannelModel(loss_db=record["loss_db"], xi=record["xi"])
    mu_0, beta_A, delta, v_0 = record["params"]
    tun = TunableParams(mu_0=mu_0, beta_A=beta_A, delta=delta, v_0=v_0)
    plus, minus = matched_means(tun, sys_p, ch.eta)
    chi = holevo_dr(mu_0, beta_A, sys_p.S)
    fk = None if record["n"] is None else FiniteKeyParams(n=record["n"])
    fixed = mp.mpf(chi if fk is None else _fixed_charge(chi, fk, fk.n))
    var = (1 + mp.mpf(ch.xi)) / 4
    peak = 1 / mp.sqrt(2 * mp.pi * var)

    def entropy(p):
        return -p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2)

    def integrand(v):
        p_plus = peak * mp.exp(-(v - mp.mpf(plus)) ** 2 / (2 * var))
        p_minus = peak * mp.exp(-(v - mp.mpf(minus)) ** 2 / (2 * var))
        e = p_minus / (p_plus + p_minus)
        if fk is None:
            charge = entropy(e)
        else:
            charge = fk.f_EC * entropy(min(e + mp.mpf(fk.dQ), mp.mpf(0.5)))
        return (p_plus + p_minus) / 2 * (1 - fixed - charge)

    lo = mp.mpf(v_0)
    hi = mp.mpf(float(integration_ceiling(plus, minus, noise_sigma(ch.xi))))
    scale = (2 if sys_p.symmetric_doubling else 1) / mp.mpf(N_BASES * sys_p.T)
    exact = mp.quad(integrand, mp.linspace(lo, hi, 5))
    x, w = leggauss(48)
    rule = (hi - lo) / 2 * mp.fsum(
        mp.mpf(wi) * integrand((hi + lo) / 2 + (hi - lo) / 2 * mp.mpf(xi))
        for xi, wi in zip(x.tolist(), w.tolist())
    )
    return scale * exact, scale * rule


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
        for S, ec_mode in sorted({(k[0], k[4]) for k in both}):
            group = [k for k in both if (k[0], k[4]) == (S, ec_mode)]
            moves = [(b[k]["rate"] - a[k]["rate"]) / a[k]["rate"] for k in group]
            same = " (every record identical)" if all(a[k] == b[k] for k in group) else ""
            print(f"  S={S} {ec_mode}, {len(group)} ok points: "
                  f"{min(moves):+.2e} ... {max(moves):+.2e}{same}")

    for field in ("Q", "P", "chi"):
        moves = [abs(b[k][field] - a[k][field]) / abs(a[k][field]) for k in both
                 if a[k].get(field) and b[k].get(field) is not None]
        if moves:
            print(f"largest relative {field} change over {len(moves)} points: "
                  f"{max(moves):.2e} (information only)")
    for k in both:
        moved = abs(b[k]["rate"] - a[k]["rate"]) / a[k]["rate"] > RTOL
        if moved and "params" in a[k] and "params" in b[k] and k[4] != "block":
            print(f"oracle at {_name(k)}, relative error of A and B "
                  "at their own parameters:")
            errors = [
                [float((r[k]["rate"] - ref) / ref) for ref in _oracle_rates(r[k])]
                for r in (a, b)
            ]
            for i, label in enumerate(("the integral", "the 48-node rule")):
                err_a, err_b = abs(errors[0][i]), abs(errors[1][i])
                closer = "A" if err_a < err_b else "B" if err_b < err_a else "neither"
                print(f"  against {label}: A {errors[0][i]:+.2e}, "
                      f"B {errors[1][i]:+.2e}; {closer} is closer")

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
    dump_cmd = sub.add_parser("dump")
    dump_cmd.add_argument("--block", action="store_true",
                          help="record the block ec_mode points instead")
    dump_cmd.add_argument("out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.mode == "dump":
        dump(args.out, "block" if args.block else "pointwise")
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
