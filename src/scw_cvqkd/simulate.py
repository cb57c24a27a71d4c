"""Round-level Monte Carlo emulation of the protocol.

Each round draws one of the four Alice phases and one of the two Bob
bases uniformly, then samples the readout from the Gaussian whose
center is the analytic symbol mean for that phase pair.  Sifting keeps
rounds whose basis matches the encoding pair, post-selection keeps
readouts beyond the threshold, and the decoded bit is compared with the
encoded one.  The resulting counters give empirical estimates of the
sift rate, acceptance probability, and error rate that the analytic
pipeline predicts, so the emulator doubles as an end-to-end check of
the detection statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DomainError, EmptyAcceptanceError, MismatchError
from .noise import ChannelModel, decision_stats, noise_sigma
from .optics import SystemParams, TunableParams, matched_means, mean_table

_CHUNK = 1_000_000
_RECORD_CAP = 1_000_000
_Z95 = NormalDist().inv_cdf(0.975)


@dataclass(frozen=True)
class RoundRecord:
    """Full trace of a single emulated round."""

    index: int
    alice_symbol: int
    bob_basis: int
    value: float
    matched: bool
    accepted: bool
    alice_bit: int
    bob_bit: int | None


@dataclass(frozen=True)
class EmpiricalStats:
    """Counters and interval estimates from a batch of emulated rounds."""

    rounds: int
    seed: int
    n_matched: int
    n_accepted: int
    n_errors: int
    sift_rate: float
    accept_rate: float | None
    qber: float | None
    sift_ci: tuple[float, float]
    accept_ci: tuple[float, float] | None
    qber_ci: tuple[float, float] | None
    noise_var_hat: float


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise DomainError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes must lie in [0, {trials}], got {successes}")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _chunk_sizes(rounds: int) -> list[int]:
    full, rest = divmod(rounds, _CHUNK)
    return [_CHUNK] * full + ([rest] if rest else [])


def _draw_chunk(rng, size, means, sigma, v_0):
    a = rng.integers(0, 4, size=size)
    b = rng.integers(0, 2, size=size)
    v = means[a, b] + sigma * rng.standard_normal(size)
    matched = (a & 1) == b
    accepted = matched & (np.abs(v) >= v_0)
    alice_bit = a >> 1
    # readout sign carries the bit: the zero-relative-phase symbol sits
    # at the positive center after calibration
    bob_bit = (v < 0.0).astype(np.int64)
    errors = accepted & (bob_bit != alice_bit)
    return a, b, v, matched, accepted, alice_bit, bob_bit, errors


def simulate_rounds(
    tun: TunableParams,
    sys: SystemParams,
    ch: ChannelModel,
    rounds: int,
    seed: int = 0,
) -> EmpiricalStats:
    """Emulate ``rounds`` protocol rounds and tally the decision counters.

    Rounds are drawn in fixed-size chunks, each from its own child of
    ``SeedSequence(seed)``, so results are reproducible for a given
    (rounds, seed) pair. The residual of every readout against its
    analytic center also yields an estimate of the readout variance.
    """
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    means = mean_table(tun, sys, ch.eta)
    sigma = noise_sigma(ch.xi)
    sizes = _chunk_sizes(rounds)
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    n_matched = n_accepted = n_errors = 0
    resid_sum = 0.0
    resid_sq = 0.0
    for size, child in zip(sizes, children):
        rng = np.random.default_rng(child)
        a, b, v, matched, accepted, _, _, errors = _draw_chunk(
            rng, size, means, sigma, tun.v_0
        )
        n_matched += int(matched.sum())
        n_accepted += int(accepted.sum())
        n_errors += int(errors.sum())
        resid = v - means[a, b]
        resid_sum += float(resid.sum())
        resid_sq += float(np.dot(resid, resid))

    if rounds > 1:
        var_hat = (resid_sq - resid_sum * resid_sum / rounds) / (rounds - 1)
    else:
        var_hat = float("nan")
    return EmpiricalStats(
        rounds=rounds,
        seed=seed,
        n_matched=n_matched,
        n_accepted=n_accepted,
        n_errors=n_errors,
        sift_rate=n_matched / rounds,
        accept_rate=n_accepted / n_matched if n_matched else None,
        qber=n_errors / n_accepted if n_accepted else None,
        sift_ci=wilson_interval(n_matched, rounds),
        accept_ci=wilson_interval(n_accepted, n_matched) if n_matched else None,
        qber_ci=wilson_interval(n_errors, n_accepted) if n_accepted else None,
        noise_var_hat=var_hat,
    )


def round_records(
    tun: TunableParams,
    sys: SystemParams,
    ch: ChannelModel,
    rounds: int,
    seed: int = 0,
) -> list[RoundRecord]:
    """Materialize per-round traces; capped because every round is stored."""
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    if rounds > _RECORD_CAP:
        raise DomainError(
            f"round_records is capped at {_RECORD_CAP} rounds, got {rounds}; "
            "use simulate_rounds for large batches"
        )
    means = mean_table(tun, sys, ch.eta)
    sigma = noise_sigma(ch.xi)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    a, b, v, matched, accepted, alice_bit, bob_bit, _ = _draw_chunk(
        rng, rounds, means, sigma, tun.v_0
    )
    return [
        RoundRecord(
            index=i,
            alice_symbol=int(a[i]),
            bob_basis=int(b[i]),
            value=float(v[i]),
            matched=bool(matched[i]),
            accepted=bool(accepted[i]),
            alice_bit=int(alice_bit[i]),
            bob_bit=int(bob_bit[i]) if accepted[i] else None,
        )
        for i in range(rounds)
    ]


def _proportion_z(count: int, trials: int, expected: float) -> float:
    se = math.sqrt(expected * (1.0 - expected) / trials)
    if se == 0.0:
        return 0.0 if count == trials * expected else math.inf
    return (count / trials - expected) / se


def compare_analytic(
    stats: EmpiricalStats,
    tun: TunableParams,
    sys: SystemParams,
    ch: ChannelModel,
    z_max: float = 4.0,
    strict: bool = False,
) -> dict:
    """Score the emulated counters against the analytic predictions.

    Each counter gets a z-score under its binomial (or chi-squared, for
    the variance) null; the comparison passes when every score stays
    below ``z_max`` in magnitude.  With ``strict`` a failure raises
    :class:`MismatchError` carrying the full report.
    """
    mean_plus, mean_minus = matched_means(tun, sys, ch.eta)
    empty = False
    try:
        ds = decision_stats(tun.v_0, mean_plus, mean_minus, ch.xi)
    except EmptyAcceptanceError:
        empty = True
        ds = None

    z: dict[str, float | None] = {
        "sift": _proportion_z(stats.n_matched, stats.rounds, 0.5)
    }
    analytic = {"sift": 0.5, "noise_var": (1.0 + ch.xi) / 4.0}
    if empty:
        analytic["P"] = 0.0
        analytic["Q"] = None
        z["accept"] = 0.0 if stats.n_accepted == 0 else math.inf
        z["qber"] = None
    else:
        analytic["P"] = ds.P
        analytic["Q"] = ds.Q
        z["accept"] = _proportion_z(stats.n_accepted, stats.n_matched, ds.P)
        if stats.n_accepted:
            z["qber"] = _proportion_z(stats.n_errors, stats.n_accepted, ds.Q)
        else:
            # no accepted rounds to grade; the acceptance score already
            # decides whether that was expected
            z["qber"] = None
    # sample variance of n Gaussian residuals: Var(s^2) = 2 sigma^4 / (n - 1)
    sigma2 = analytic["noise_var"]
    if stats.rounds > 1 and not math.isnan(stats.noise_var_hat):
        se_var = sigma2 * math.sqrt(2.0 / (stats.rounds - 1))
        z["noise_var"] = (stats.noise_var_hat - sigma2) / se_var
    else:
        z["noise_var"] = None

    scores = [abs(val) for val in z.values() if val is not None]
    passed = all(s < z_max for s in scores)
    report = {
        "rounds": stats.rounds,
        "seed": stats.seed,
        "pass": passed,
        "z_max": z_max,
        "analytic": analytic,
        "empirical": {
            "sift": stats.sift_rate,
            "P": stats.accept_rate,
            "Q": stats.qber,
            "noise_var": stats.noise_var_hat,
        },
        "z": z,
    }
    if strict and not passed:
        worst = max(scores)
        raise MismatchError(
            f"emulation disagrees with the analytic statistics "
            f"(worst |z| = {worst:.2f} >= {z_max})",
            report=report,
        )
    return report
