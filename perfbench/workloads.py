"""Seeded inputs for the three benchmark workloads.

Every loss grid is stratified: one loss is jittered inside each fixed bin,
so a seed moves the points a little but never changes which bins exist.
The bins are 0.01 dB wide and sit away from the rate cutoffs (about
8.7 dB at xi=0.2 and 9.1-9.3 dB at xi=0.0 and 0.1), so every seed yields
the same share of past-cutoff points.  They are this narrow because
``rate_gmean`` is gated with a few-percent bound: a 0.25 dB bin moved the
geometric-mean rate by 6-20% from seed to seed, more than the optimizer
shortfall the metric is there to catch.  The 8.4 dB bin keeps the band
where the optimizer is known to stop short of the optimum.

Only the generated values reach the program; the seed itself never does.
"""

from __future__ import annotations

import random

WORKLOADS = ("asym-sweep", "finite-sweep", "cli-session")

BIN_DB = 0.01


def _bins(centres) -> tuple[tuple[float, float], ...]:
    return tuple((c - BIN_DB / 2, c + BIN_DB / 2) for c in centres)


# spaced 1.3 dB apart over (0, 10] dB like the acceptance grid; only the
# 9.7 dB bin lies past the cutoff at every noise level, 1 bin in 8
# against 13 of the acceptance grid's 120 points (METRICS.md)
ASYM_LOSS_BINS = _bins((0.6, 1.9, 3.2, 4.5, 5.8, 7.1, 8.4, 9.7))
ASYM_NOISE = (0.0, 0.1, 0.2)

# run serially: the sweep workload that skips the process pool
FINITE_LOSS_BINS = _bins((0.6, 3.2, 5.8))
FINITE_NOISE = 0.1
FINITE_BLOCKS = (10**8, 10**10, 10**12)
FINITE_THREADS = 1

CLI_LOSS_BINS = _bins((0.6, 2.1, 3.6, 5.1, 6.6, 7.9))
CLI_NOISE_BINS = ((0.0045, 0.0055), (0.0995, 0.1005), (0.1945, 0.1955))
CLI_REQUESTS = 400

# the README's documented request: ``simulate --rounds 1000000``
SIM_ROUNDS = 10**6
# Monte Carlo seeds whose verdict passes at SIM_INI and SIM_ROUNDS.  Each
# z-score exceeds its 4-sigma limit by chance about once in 16,000 draws,
# so the session draws its seeds from a pool checked once rather than
# from the whole seed space (see test_simulate_seed_pool_passes).
SIM_SEEDS = tuple(range(16))
SIM_INI = """\
[channel]
loss_db = 3.0
xi = 0.1

[tunables]
mu_0 = 0.278
beta_A_deg = 72.0
v_0 = 1.62
"""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _jitter(rng: random.Random, bins) -> tuple[float, ...]:
    # stay off the bin edges so neighbouring points never coincide
    return tuple(round(lo + (hi - lo) * rng.uniform(0.05, 0.95), 6) for lo, hi in bins)


def sweep_inputs(workload: str, seed: int) -> dict:
    """Arguments of the one ``sweep()`` call a sweep pass makes."""
    rng = _rng(workload, seed)
    if workload == "asym-sweep":
        return {
            "mode": "asymptotic",
            "loss_grid": list(_jitter(rng, ASYM_LOSS_BINS)),
            "noise_levels": list(ASYM_NOISE),
            "n_values": None,
            "threads": None,
        }
    if workload == "finite-sweep":
        return {
            "mode": "finite",
            "loss_grid": list(_jitter(rng, FINITE_LOSS_BINS)),
            "noise_levels": [FINITE_NOISE],
            "n_values": list(FINITE_BLOCKS),
            "threads": FINITE_THREADS,
        }
    raise ValueError(f"{workload!r} is not a sweep workload")


def keyrate_points(seed: int) -> list[tuple[float, float]]:
    """The distinct (loss_db, xi) points the CLI session asks ``keyrate`` for."""
    rng = _rng("cli-session", seed)
    losses = _jitter(rng, CLI_LOSS_BINS)
    noise = [_jitter(rng, (CLI_NOISE_BINS[i % len(CLI_NOISE_BINS)],))[0]
             for i in range(len(losses))]
    return list(zip(losses, noise))


def cli_requests(seed: int) -> list[dict]:
    """Closed-loop request sequence: keyrate and simulate alternate.

    Keyrate requests cycle through :func:`keyrate_points`; simulate
    requests draw a seed from the checked pool.
    """
    points = keyrate_points(seed)
    rng = _rng("cli-session/simulate", seed)
    out = []
    for i in range(CLI_REQUESTS):
        if i % 2 == 0:
            loss, xi = points[(i // 2) % len(points)]
            out.append({"command": "keyrate", "loss_db": loss, "xi": xi})
        else:
            out.append({"command": "simulate", "seed": rng.choice(SIM_SEEDS),
                        "rounds": SIM_ROUNDS})
    return out


def cli_argv(request: dict, out: str, ini: str) -> list[str]:
    """Command-line arguments of one CLI request, writing to ``out``."""
    if request["command"] == "keyrate":
        return ["keyrate", "--loss-db", repr(request["loss_db"]),
                "--xi", repr(request["xi"]), "--out", out]
    return ["simulate", "--config", ini, "--rounds", str(request["rounds"]),
            "--seed", str(request["seed"]), "--out", out]
