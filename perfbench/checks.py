"""Output checks.  Each returns a list of failure messages; empty means pass.

The tolerances are the package's own promises (README): a row
re-evaluated from its recorded parameters reproduces its rate to 1e-9
relative, statuses are ``ok`` or ``infeasible``, the optimized rate at
xi=0.1 is cut off between 7.5 and 10.5 dB, and the CLI exit code agrees
with the status it reports.  None of them is loosened to make a run pass.
"""

from __future__ import annotations

import csv
import json
import math

REL_TOL = 1e-9
CUTOFF_XI = 0.1
CUTOFF_RANGE = (7.5, 10.5)
EXIT_FOR_STATUS = {"ok": 0, "infeasible": 2}


def reevaluate(row: dict, finite: bool) -> float:
    """Rate of a recorded row through the public rate functions."""
    from scw_cvqkd import (
        ChannelModel, FiniteKeyParams, SystemParams, TunableParams,
        asymptotic_key_rate, finite_key_rate,
    )

    tun = TunableParams(**row["params"])
    ch = ChannelModel(loss_db=row["loss_db"], xi=row["xi"])
    if finite:
        return finite_key_rate(tun, SystemParams(), ch, FiniteKeyParams(n=row["n"])).rate
    return asymptotic_key_rate(tun, SystemParams(), ch).rate


def check_row(row: dict, finite: bool) -> list[str]:
    where = f"loss={row['loss_db']} xi={row['xi']} n={row['n']}"
    status, rate = row["status"], row["rate"]
    if status not in EXIT_FOR_STATUS:
        return [f"{where}: status {status!r} is neither ok nor infeasible"]
    if status == "infeasible":
        return [] if rate == 0.0 else [f"{where}: infeasible row with rate {rate!r}"]
    if not (math.isfinite(rate) and rate > 0.0) or row["params"] is None:
        return [f"{where}: ok row with rate {rate!r} and params {row['params']!r}"]
    again = reevaluate(row, finite)
    if abs(again - rate) > REL_TOL * abs(rate):
        return [f"{where}: rate {rate!r} re-evaluates to {again!r}"]
    return []


def check_cutoff(rows: list[dict]) -> list[str]:
    """Where the xi=0.1 rate drops to zero for good."""
    at_xi = [r for r in rows if r["xi"] == CUTOFF_XI]
    positive = [r["loss_db"] for r in at_xi if r["status"] == "ok" and r["rate"] > 0.0]
    if not positive:
        return [f"no positive rate at xi={CUTOFF_XI}"]
    cutoff = max(positive)
    failures = []
    if not CUTOFF_RANGE[0] <= cutoff <= CUTOFF_RANGE[1]:
        failures.append(f"cutoff at {cutoff} dB outside {CUTOFF_RANGE}")
    if not any(r["loss_db"] > cutoff for r in at_xi):
        failures.append("no grid point past the cutoff")
    return failures


def check_same_rows(rows: list[dict], reference: list[dict]) -> list[str]:
    """Deterministic program: identical inputs give bit-identical rows."""
    if rows != reference:
        return ["rows differ from the first pass on the same inputs"]
    return []


def read_keyrate_output(out: str) -> tuple[dict | None, list[str]]:
    """The single CSV row of a ``keyrate --out`` request, and any failures."""
    failures = []
    try:
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return None, [f"{out}: {exc}"]
    if len(rows) != 1:
        return None, [f"{out}: {len(rows)} CSV rows, expected 1"]
    try:
        with open(out + ".meta.json", encoding="utf-8") as fh:
            json.load(fh)
    except (OSError, ValueError) as exc:
        failures.append(f"{out}.meta.json does not parse: {exc}")
    r = rows[0]
    row = {
        "loss_db": float(r["loss_db"]), "xi": float(r["xi"]), "n": None,
        "rate": float(r["K_or_R_bits_per_s"]), "status": r["status"],
        "params": None if r["status"] != "ok" else {
            "mu_0": float(r["mu0"]), "beta_A": float(r["beta_A"]),
            "delta": float(r["delta"]), "v_0": float(r["v0"]),
            "k_sample": int(r["k_sample"]),
        },
    }
    return row, failures


def check_keyrate(out: str, code: int, loss_db: float, xi: float) -> tuple[dict | None, list[str]]:
    row, failures = read_keyrate_output(out)
    if row is None:
        return None, failures + [f"keyrate exit code {code}"]
    if (row["loss_db"], row["xi"]) != (loss_db, xi):
        failures.append(f"{out}: row for ({row['loss_db']}, {row['xi']}), "
                        f"asked for ({loss_db}, {xi})")
    expected = EXIT_FOR_STATUS.get(row["status"])
    if code != expected:
        failures.append(f"{out}: exit code {code} with status {row['status']!r}")
    failures += check_row(row, finite=False)
    return row, failures


def check_simulate(out: str, code: int) -> list[str]:
    failures = [] if code == 0 else [f"simulate exit code {code}"]
    try:
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)["report"]
    except (OSError, ValueError, KeyError) as exc:
        return failures + [f"{out}: no simulate report ({exc})"]
    if report.get("pass") is not True:
        failures.append(f"{out}: simulate verdict failed, z = {report.get('z')}")
    return failures
