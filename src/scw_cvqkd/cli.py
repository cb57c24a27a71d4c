"""Command-line front end.

Four commands share one config file and a small set of override flags:

* ``keyrate``  - optimize (or evaluate) a single channel point
* ``sweep``    - optimize a loss/noise/block-size grid, emit CSV
* ``simulate`` - Monte Carlo emulation at one point, emit JSON
* ``selftest`` - re-run the numerical identity checks

Exit codes: 0 success, 1 usage or configuration error, 2 no key at the
requested point, 3 failed statistical or numerical check.

Importing this module loads every layer of the package: the benchmark's
tracer (``perfbench/tracer.py``) wraps functions only in modules that are
loaded when it starts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys as _sys
from dataclasses import replace

import numpy as np

from . import __version__
from .angular import wigner_d_row
from .config import RunConfig, _parse_seed, load_config
from .errors import InfeasibleError, InternalError, MismatchError, NoRootError, ScwError
from .finitekey import finite_key_rate
from .noise import ChannelModel, decision_stats
from .optics import calibrate_delta
from .search import KeyRateReport, _report, optimize_point, sweep
from .security import asymptotic_key_rate
from .simulate import compare_analytic, simulate_rounds

_CSV_COLUMNS = [
    "loss_db", "xi", "n", "K_or_R_bits_per_s", "Q", "P", "chi",
    "mu0", "beta_A", "delta", "v0", "k_sample", "status",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_KEY = 2
EXIT_CHECK_FAILED = 3


class UsageError(Exception):
    """Bad flags or bad config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route through our own
    # exception so the code stays 1
    def error(self, message):
        raise UsageError(message)


def _seed_flag(text: str) -> int:
    # the config file's rule, with argparse's error type
    try:
        return _parse_seed(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _n_flag(text: str):
    if text.strip().lower() == "inf":
        return "inf"
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {text!r}")
    if not val.is_integer() or val < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(val)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scw-cvqkd", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--loss-db", type=float, help="channel loss in dB")
        p.add_argument("--xi", type=float, help="excess noise")
        p.add_argument("--seed", type=_seed_flag, help="non-negative RNG seed")
        p.add_argument("--out", metavar="PATH", help="output file")

    p_key = sub.add_parser("keyrate", help="key rate at one channel point")
    common(p_key)
    p_key.add_argument("--mode", choices=("asymptotic", "finite"))
    p_key.add_argument("--n", type=_n_flag, metavar="INT|inf", help="sifted block size")

    p_sweep = sub.add_parser("sweep", help="optimize over a channel grid, write CSV")
    common(p_sweep)
    p_sweep.add_argument("--mode", choices=("asymptotic", "finite"))
    p_sweep.add_argument("--n", type=_n_flag, metavar="INT|inf")

    p_sim = sub.add_parser("simulate", help="Monte Carlo emulation, write JSON")
    common(p_sim)
    p_sim.add_argument("--rounds", type=int, help="number of emulated rounds")

    p_self = sub.add_parser("selftest", help="numerical identity checks")
    p_self.add_argument("--seed", type=_seed_flag, default=0)
    return parser


def _resolve_mode(cfg: RunConfig, args) -> tuple[str, int]:
    """Final (mode, block size) after flag overrides; flags win over config."""
    mode = args.mode or cfg.mode
    n = cfg.fk.n
    if args.n is not None:
        if args.n == "inf":
            if args.mode == "finite":
                raise UsageError("--mode finite conflicts with --n inf")
            mode = "asymptotic"
        else:
            if args.mode == "asymptotic":
                raise UsageError("--mode asymptotic conflicts with a finite --n")
            mode = "finite"
            n = args.n
    return mode, n


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _report_row(report: KeyRateReport) -> list[str]:
    p = report.params
    return [
        _format_cell(float(report.loss_db)),
        _format_cell(float(report.xi)),
        "inf" if report.n is None else str(report.n),
        _format_cell(float(report.rate)),
        _format_cell(report.Q),
        _format_cell(report.P),
        _format_cell(report.chi),
        _format_cell(p.mu_0 if p else None),
        _format_cell(p.beta_A if p else None),
        _format_cell(p.delta if p else None),
        _format_cell(p.v_0 if p else None),
        _format_cell(p.k_sample if p else None),
        report.status,
    ]


@contextlib.contextmanager
def _open_out(path: str | None):
    """Open an output file for writing; an unwritable path is a usage error.

    Commands open ``--out`` before computing, so a bad path costs nothing;
    no path (no file) yields ``None``.  When the block raises, the file
    is removed: a command that fails leaves no empty or partial output.
    """
    if not path:
        yield None
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        with fh:
            yield fh
    except Exception:
        os.remove(path)
        raise


def _write_csv(fh, reports: list[KeyRateReport]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    fh.flush()
    for r in reports:
        # flush per row so an interrupted sweep keeps finished points
        writer.writerow(_report_row(r))
        fh.flush()


def _write_meta(out_path: str, command: str, args, cfg_text: str | None, seed) -> None:
    meta = {
        "version": __version__,
        "command": command,
        "seed": seed,
        "config_path": args.config,
        "config_text": cfg_text,
        "overrides": {
            key: val
            for key, val in vars(args).items()
            if key not in ("command", "config") and val is not None
        },
    }
    with _open_out(out_path + ".meta.json") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _config_text(args) -> str | None:
    if getattr(args, "config", None) is None:
        return None
    with open(args.config, encoding="utf-8") as fh:
        return fh.read()


def _json_safe(obj):
    """Replace non-finite floats so strict JSON encoding never fails."""
    if isinstance(obj, dict):
        return {key: _json_safe(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _evaluate_point(cfg: RunConfig, loss_db, xi, mode, n) -> KeyRateReport:
    """One channel point: explicit tunables if configured, else optimize."""
    ch = ChannelModel(loss_db=loss_db, xi=xi)
    fk = replace(cfg.fk, n=n) if mode == "finite" else None
    n_out = n if mode == "finite" else None
    if cfg.tunables is not None:
        tun = cfg.tunables.resolve(cfg.system)
        if fk is not None:
            res = finite_key_rate(tun, cfg.system, ch, fk, ec_mode=cfg.ec_mode)
            bad = res.abort
        else:
            res = asymptotic_key_rate(tun, cfg.system, ch)
            bad = res.insecure
        status = "ok" if res.rate > 0.0 and not bad else "infeasible"
        stats = res.stats
        return KeyRateReport(
            loss_db=loss_db, xi=xi, n=n_out, rate=res.rate,
            Q=stats.Q if stats else None,
            P=stats.P if stats else None,
            chi=res.chi, params=tun, status=status,
        )
    try:
        outcome = optimize_point(
            ch, cfg.system, fk=fk, ec_mode=cfg.ec_mode, bounds=cfg.bounds
        )
    except InfeasibleError as exc:
        outcome = exc
    return _report(ch, fk, outcome)


def cmd_keyrate(cfg: RunConfig, args) -> int:
    mode, n = _resolve_mode(cfg, args)
    loss_db = args.loss_db if args.loss_db is not None else cfg.loss_db
    xi = args.xi if args.xi is not None else cfg.xi
    out = args.out or cfg.out
    with _open_out(out) as fh:
        report = _evaluate_point(cfg, loss_db, xi, mode, n)
        if fh is not None:
            seed = args.seed if args.seed is not None else cfg.seed
            _write_csv(fh, [report])
            _write_meta(out, "keyrate", args, _config_text(args), seed)

    label = "R" if mode == "finite" else "K"
    print(f"loss_db = {loss_db}")
    print(f"xi = {xi}")
    print(f"n = {report.n if report.n is not None else 'inf'}")
    print(f"status = {report.status}")
    print(f"{label}_bits_per_s = {report.rate!r}")
    if report.params is not None:
        p = report.params
        print(f"mu0 = {p.mu_0!r}")
        print(f"beta_A = {p.beta_A!r}")
        print(f"delta = {p.delta!r}")
        print(f"v0 = {p.v_0!r}")
        print(f"k_sample = {p.k_sample}")
    return EXIT_OK if report.status == "ok" else EXIT_NO_KEY


def cmd_sweep(cfg: RunConfig, args) -> int:
    if args.loss_db is not None or args.xi is not None:
        raise UsageError("sweep grids come from the config; "
                         "--loss-db/--xi apply to keyrate and simulate")
    mode, n = _resolve_mode(cfg, args)
    spec = cfg.sweep_spec(finite=(mode == "finite"))
    if args.n is not None and args.n != "inf":
        spec = replace(spec, n_values=(n,))
    out = args.out or cfg.out
    with _open_out(out) as fh:
        reports = sweep(spec, cfg.system)
        _write_csv(fh or _sys.stdout, reports)
        if fh is not None:
            seed = args.seed if args.seed is not None else cfg.seed
            _write_meta(out, "sweep", args, _config_text(args), seed)
            print(f"wrote {len(reports)} rows to {out}")
    return EXIT_OK if any(r.status == "ok" for r in reports) else EXIT_NO_KEY


def cmd_simulate(cfg: RunConfig, args) -> int:
    loss_db = args.loss_db if args.loss_db is not None else cfg.loss_db
    xi = args.xi if args.xi is not None else cfg.xi
    rounds = args.rounds if args.rounds is not None else 10**6
    if rounds < 1:
        raise UsageError(f"--rounds must be >= 1, got {rounds}")
    seed = args.seed if args.seed is not None else cfg.seed
    ch = ChannelModel(loss_db=loss_db, xi=xi)

    out = args.out or cfg.out
    with _open_out(out) as fh:
        if cfg.tunables is not None:
            tun = cfg.tunables.resolve(cfg.system)
        else:
            # no key raises InfeasibleError: exit 2, and _open_out removes the file
            tun = optimize_point(ch, cfg.system, bounds=cfg.bounds).params
        stats = simulate_rounds(tun, cfg.system, ch, rounds=rounds, seed=seed)
        report = compare_analytic(stats, tun, cfg.system, ch)
        payload = {
            "version": __version__,
            "seed": seed,
            "rounds": rounds,
            "loss_db": loss_db,
            "xi": xi,
            "params": {
                "mu0": tun.mu_0,
                "beta_A": tun.beta_A,
                "delta": tun.delta,
                "v0": tun.v_0,
                "k_sample": tun.k_sample,
            },
            "counters": {
                "n_matched": stats.n_matched,
                "n_accepted": stats.n_accepted,
                "n_errors": stats.n_errors,
            },
            "report": report,
            "config_path": args.config,
            "config_text": _config_text(args),
        }
        text = json.dumps(
            _json_safe(payload), sort_keys=True, indent=2, allow_nan=False
        ) + "\n"
        if fh is not None:
            fh.write(text)
            print(f"wrote {out}")
        else:
            print(text, end="")
    print(f"verdict = {'pass' if report['pass'] else 'FAIL'}", file=_sys.stderr)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def _check_d_row_identities(rng) -> bool:
    for S in range(1, 21):
        for beta in rng.uniform(0.0, math.pi, size=25):
            row = wigner_d_row(S, float(beta))
            if abs(row.norm_sq - 1.0) > 1e-10:
                return False
            for k in range(-S, S + 1):
                if abs(row.value(k) - (-1.0) ** k * row.value(-k)) > 1e-10:
                    return False
    return True


def _check_first_order_row(rng) -> bool:
    for beta in rng.uniform(0.0, math.pi, size=50):
        row = wigner_d_row(1, float(beta))
        expected = (
            -math.sin(beta) / math.sqrt(2.0),
            math.cos(beta),
            math.sin(beta) / math.sqrt(2.0),
        )
        if any(abs(row.value(k) - e) > 5e-16 for k, e in zip((-1, 0, 1), expected)):
            return False
    return True


def _check_decision_integrals(rng) -> bool:
    for _ in range(20):
        mean = rng.uniform(0.05, 2.0)
        xi = rng.uniform(0.0, 0.3)
        v_0 = rng.uniform(0.0, 2.5)
        a = decision_stats(v_0, mean, -mean, xi, method="closed_form")
        b = decision_stats(v_0, mean, -mean, xi, method="quadrature")
        if abs(a.P - b.P) > 1e-9 or abs(a.E - b.E) > 1e-9:
            return False
    return True


def _check_calibration(rng) -> bool:
    from .optics import SystemParams, matched_contrasts

    sys_p = SystemParams()
    for beta_A in (0.3, 0.7, 1.1):
        delta = calibrate_delta(beta_A, sys_p)
        u0, upi = matched_contrasts(
            beta_A, delta * beta_A, sys_p.theta_carrier, sys_p.S
        )
        if abs(u0 + upi) > 1e-10:
            return False
    return True


def _check_calibration_closed_form(rng) -> bool:
    from .optics import SystemParams, _calibrate_by_scan

    sys_p = SystemParams()
    # a fixed grid: a random angle could fall in the no-root window at pi/4
    for beta_A in np.linspace(0.1, 1.45, 50):
        beta_A = float(beta_A)
        scan = _calibrate_by_scan(beta_A, sys_p.theta_carrier, sys_p.S)
        if abs(calibrate_delta(beta_A, sys_p) - scan) > 1e-12 * scan:
            return False
    return True


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks = [
        ("d-row unitarity and index antisymmetry", _check_d_row_identities),
        ("first-order d-row closed form", _check_first_order_row),
        ("closed-form vs quadrature decision statistics", _check_decision_integrals),
        ("modulation-depth calibration symmetry", _check_calibration),
        ("S=1 calibration closed form vs scan root", _check_calibration_closed_form),
    ]
    all_ok = True
    for name, check in checks:
        ok = check(rng)
        all_ok &= ok
        print(f"{'ok  ' if ok else 'FAIL'}  {name}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "selftest":
            return cmd_selftest(args)
        cfg = load_config(args.config)
        if args.command == "keyrate":
            return cmd_keyrate(cfg, args)
        if args.command == "sweep":
            return cmd_sweep(cfg, args)
        if args.command == "simulate":
            return cmd_simulate(cfg, args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        # only simulate lets it through, with no report to write
        print(f"no key: {exc}", file=_sys.stderr)
        return EXIT_NO_KEY
    except (InternalError, NoRootError, MismatchError) as exc:
        # a numerical or statistical check failed, not the user's input
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CHECK_FAILED
    except ScwError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
