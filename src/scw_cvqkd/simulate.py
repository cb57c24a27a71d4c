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

import numpy as np

from .errors import DomainError, EmptyAcceptanceError, MismatchError
from .noise import ChannelModel, decision_stats, noise_sigma
from .optics import SystemParams, TunableParams, matched_means, mean_table

# a chunk fixes the random stream: it draws from its own SeedSequence child
_CHUNK = 1_000_000
# rounds per block: the phases, bases and readouts of a chunk are read and
# tallied a block at a time, so memory does not grow with the chunk or the run
_BLOCK = 1 << 14
# per flat index (a << 1) | b: whether the basis b matches the pair a & 1
_MATCHED = np.array([(i >> 1 & 1) == (i & 1) for i in range(8)])
# the two-sided 95% normal quantile, statistics.NormalDist().inv_cdf(0.975)
_Z95 = 1.9599639845400536


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


def _twin(bit_generator, outputs: int):
    """A copy of ``bit_generator`` moved ``outputs`` 64-bit draws on."""
    twin = type(bit_generator)()
    twin.state = bit_generator.state
    # PCG's jump-ahead costs O(log outputs), and it drops any buffered half-word
    return twin.advance(outputs)


def _halves(raw):
    # the two 32-bit words of each 64-bit output, low half first, as a
    # 32-bit draw reads them
    return raw.astype("<u8", copy=False).view("<u4")


def _word_blocks(bit_generator, skip: int, size: int):
    """Yield words ``skip`` to ``skip + size`` of the 32-bit stream in blocks.

    The words come from a copy of ``bit_generator``, which does not move;
    a block is ``_BLOCK`` words, the last one the rest.
    """
    twin = _twin(bit_generator, skip // 2)
    # an odd skip starts in the high half of an output
    left = _halves(twin.random_raw(skip % 2))[skip % 2:]
    for start in range(0, size, _BLOCK):
        k = min(_BLOCK, size - start)
        words = _halves(twin.random_raw((k - left.size + 1) // 2))
        if left.size:
            words = np.concatenate((left, words))
        left = words[k:]
        yield words[:k]


def _draw_chunk(rng, size, means, sigma, v_0):
    """Yield ``(center, v, matched, accepted, errors)`` per block of a chunk.

    ``rng`` is a fresh PCG64 generator, and the chunk reads its stream as
    three whole draws would: ``integers(0, 4, size)`` phases,
    ``integers(0, 2, size)`` bases, then ``size`` normals.  Each of the
    three is read a block at a time from its own place in the stream.  A
    bounded draw takes one 32-bit word w per round, and numpy's Lemire
    method gives w >> 30 for range 4 and w >> 31 for range 2, never
    rejecting, so round j's phase is word j and its basis word
    ``size + j``.  The normals begin after those ``2 * size`` words, at
    64-bit output ``size``.  ``rng`` itself is not moved.  The yielded
    arrays are buffers of the chunk, valid only until the next block is
    drawn.
    """
    bit_generator = rng.bit_generator
    normals = np.random.Generator(_twin(bit_generator, size))
    n = min(size, _BLOCK)
    idx = np.empty(n, dtype=np.intp)
    center, v, scratch = np.empty(n), np.empty(n), np.empty(n)
    matched, accepted, errors, bit = (np.empty(n, dtype=bool) for _ in range(4))
    flat = means.ravel()
    blocks = zip(_word_blocks(bit_generator, 0, size),
                 _word_blocks(bit_generator, size, size))
    for phase_words, basis_words in blocks:
        k = phase_words.size
        if k < n:
            idx, center, v, scratch = idx[:k], center[:k], v[:k], scratch[:k]
            matched, accepted, errors, bit = (
                matched[:k], accepted[:k], errors[:k], bit[:k])
        # the flat index (a << 1) | b into the 4x2 mean table
        np.right_shift(phase_words, 30, out=idx)
        idx <<= 1
        idx |= np.right_shift(basis_words, 31, out=basis_words)
        # every index is in range; "wrap" spares take a buffered copy of out
        flat.take(idx, out=center, mode="wrap")
        # the basis is b = idx & 1, and it matches the pair when a & 1 == b
        _MATCHED.take(idx, out=matched, mode="wrap")
        normals.standard_normal(out=v)
        v *= sigma
        v += center
        np.abs(v, out=scratch)
        np.greater_equal(scratch, v_0, out=accepted)
        accepted &= matched
        # readout sign carries the bit: the zero-relative-phase symbol sits
        # at the positive center after calibration, and phases 2 and 3
        # (idx >= 4) encode bit 1
        np.less(v, 0.0, out=errors)
        np.greater_equal(idx, 4, out=bit)
        errors ^= bit
        errors &= accepted
        yield center, v, matched, accepted, errors


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
    (rounds, seed) pair; each chunk is tallied in blocks, so memory does
    not grow with ``rounds``. The residual of every readout
    against its analytic center also yields an estimate of the readout
    variance.
    """
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    means = mean_table(tun, sys, ch.eta)
    sigma = noise_sigma(ch.xi)
    root = np.random.SeedSequence(seed)

    n_matched = n_accepted = n_errors = 0
    resid_sum = 0.0
    resid_sq = 0.0
    for start in range(0, rounds, _CHUNK):
        # each chunk's child is spawned as the chunk starts: spawn(1) over
        # and over gives the children of one spawn(n), none held for long
        (child,) = root.spawn(1)
        blocks = _draw_chunk(
            np.random.default_rng(child), min(_CHUNK, rounds - start),
            means, sigma, tun.v_0,
        )
        for center, v, matched, accepted, errors in blocks:
            n_matched += int(np.count_nonzero(matched))
            n_accepted += int(np.count_nonzero(accepted))
            n_errors += int(np.count_nonzero(errors))
            resid = v - center
            resid_sum += float(resid.sum())
            # einsum, not BLAS dot: its sum does not depend on the thread count
            resid_sq += float(np.einsum("i,i->", resid, resid))

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
    analytic["P"] = 0.0 if empty else ds.P
    analytic["Q"] = None if empty else ds.Q
    if not stats.n_matched:
        # no sifted round: nothing to grade acceptance or errors against
        z["accept"] = None
        z["qber"] = None
    elif empty:
        z["accept"] = 0.0 if stats.n_accepted == 0 else math.inf
        z["qber"] = None
    else:
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
