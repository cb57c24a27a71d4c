"""Monte Carlo emulator tests."""

import json
import math
import os
import statistics
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from scw_cvqkd import simulate
from scw_cvqkd.errors import DomainError, MismatchError
from scw_cvqkd.noise import ChannelModel, decision_stats
from scw_cvqkd.optics import (
    SystemParams,
    TunableParams,
    calibrate_delta,
    matched_means,
    mean_table,
)
from scw_cvqkd.simulate import (
    EmpiricalStats,
    compare_analytic,
    simulate_rounds,
    wilson_interval,
)

SYS = SystemParams()
CH = ChannelModel(loss_db=3.0, xi=0.1)


def tun(mu_0=0.42, beta_A=0.9, v_0=1.6):
    return TunableParams(
        mu_0=mu_0, beta_A=beta_A, delta=calibrate_delta(beta_A, SYS), v_0=v_0
    )


@pytest.fixture(scope="module")
def stats_1m():
    return simulate_rounds(tun(), SYS, CH, rounds=10**6, seed=7)


def test_deterministic_per_seed(stats_1m):
    again = simulate_rounds(tun(), SYS, CH, rounds=10**6, seed=7)
    assert again == stats_1m
    other = simulate_rounds(tun(), SYS, CH, rounds=10**6, seed=8)
    assert other != stats_1m


def test_sift_rate_near_half(stats_1m):
    lo, hi = stats_1m.sift_ci
    assert lo <= 0.5 <= hi
    assert abs(stats_1m.sift_rate - 0.5) < 0.01


def test_counters_consistent(stats_1m):
    s = stats_1m
    assert isinstance(s, EmpiricalStats)
    assert 0 < s.n_errors < s.n_accepted < s.n_matched < s.rounds
    assert s.accept_rate == s.n_accepted / s.n_matched
    assert s.qber == s.n_errors / s.n_accepted


def test_matches_analytic_statistics(stats_1m):
    report = compare_analytic(stats_1m, tun(), SYS, CH)
    assert report["pass"]
    assert all(abs(z) < 4.0 for z in report["z"].values() if z is not None)
    mp, mm = matched_means(tun(), SYS, CH.eta)
    ds = decision_stats(1.6, mp, mm, CH.xi)
    assert abs(stats_1m.accept_rate - ds.P) < 5 * math.sqrt(
        ds.P * (1 - ds.P) / stats_1m.n_matched
    )
    assert abs(stats_1m.qber - ds.Q) < 5 * math.sqrt(
        ds.Q * (1 - ds.Q) / stats_1m.n_accepted
    )


def test_noise_variance_recovered(stats_1m):
    sigma2 = (1.0 + CH.xi) / 4.0
    se = sigma2 * math.sqrt(2.0 / (stats_1m.rounds - 1))
    assert abs(stats_1m.noise_var_hat - sigma2) < 5 * se


def test_strict_mismatch_on_shifted_mean(stats_1m):
    # grading against a different pulse energy must blow past 4 sigma
    with pytest.raises(MismatchError) as exc:
        compare_analytic(stats_1m, tun(mu_0=0.55), SYS, CH, strict=True)
    assert exc.value.report["pass"] is False


def test_strict_mismatch_on_wrong_noise(stats_1m):
    with pytest.raises(MismatchError) as exc:
        compare_analytic(stats_1m, tun(), SYS, ChannelModel(3.0, 0.2), strict=True)
    assert abs(exc.value.report["z"]["noise_var"]) > 4.0


def test_blocked_modulation_gives_coin_flip_errors():
    t = TunableParams(mu_0=0.4, beta_A=0.0, delta=1.0, v_0=0.5)
    stats = simulate_rounds(t, SYS, CH, rounds=500_000, seed=3)
    lo, hi = stats.qber_ci
    assert lo <= 0.5 <= hi
    report = compare_analytic(stats, t, SYS, CH)
    assert report["pass"]
    assert report["analytic"]["Q"] == 0.5


def test_empty_acceptance_region():
    t = tun(v_0=60.0)
    stats = simulate_rounds(t, SYS, CH, rounds=200_000, seed=5)
    assert stats.n_accepted == 0
    assert stats.qber is None and stats.qber_ci is None
    report = compare_analytic(stats, t, SYS, CH)
    assert report["pass"]
    assert report["analytic"]["P"] == 0.0
    assert report["z"]["qber"] is None


@pytest.mark.parametrize("v_0", [1.6, 60.0])
def test_no_sifted_round_leaves_acceptance_ungraded(v_0):
    # what two rounds may give: neither basis matched its pair
    stats = EmpiricalStats(
        rounds=2, seed=0, n_matched=0, n_accepted=0, n_errors=0,
        sift_rate=0.0, accept_rate=None, qber=None,
        sift_ci=wilson_interval(0, 2), accept_ci=None, qber_ci=None,
        noise_var_hat=0.3,
    )
    report = compare_analytic(stats, tun(v_0=v_0), SYS, CH)
    assert report["z"]["accept"] is None and report["z"]["qber"] is None
    assert report["empirical"]["P"] is None
    assert report["pass"]


def test_chunked_run_spans_boundaries():
    stats = simulate_rounds(tun(), SYS, CH, rounds=2_500_000, seed=11)
    assert stats.rounds == 2_500_000
    assert abs(stats.sift_rate - 0.5) < 0.005
    assert compare_analytic(stats, tun(), SYS, CH)["pass"]


def test_single_round_edge():
    stats = simulate_rounds(tun(), SYS, CH, rounds=1, seed=0)
    assert stats.rounds == 1
    assert math.isnan(stats.noise_var_hat)


def test_draw_chunk_decisions():
    # every counter of a round follows from its phase, basis and readout;
    # the phase and basis are the generator's first two draws, then one
    # stream of normals however the chunk is cut into blocks; an odd size
    # starts the bases in the high half of a 64-bit output
    means = mean_table(tun(), SYS, CH.eta)
    for size, n_blocks in ((simulate._BLOCK + 2000, 2), (2 * simulate._BLOCK + 3, 3)):
        # a block is valid until the next one is drawn, so keep a copy of each
        blocks = [
            [arr.copy() for arr in block]
            for block in simulate._draw_chunk(
                np.random.default_rng(9), size, means, CH.sigma, 0.2
            )
        ]
        assert len(blocks) == n_blocks
        center, v, matched, accepted, errors = map(np.concatenate, zip(*blocks))
        rng = np.random.default_rng(9)
        a = rng.integers(0, 4, size=size)
        b = rng.integers(0, 2, size=size)
        assert set(a.tolist()) == {0, 1, 2, 3} and set(b.tolist()) == {0, 1}
        assert (center == means[a, b]).all()
        assert (v == center + CH.sigma * rng.standard_normal(size)).all()
        assert (matched == ((a & 1) == b)).all()
        assert (accepted == (matched & (np.abs(v) >= 0.2))).all()
        # the readout sign carries the bit: negative decodes to 1
        assert (errors == (accepted & ((v < 0.0) != (a >> 1 == 1)))).all()
        assert accepted.any() and errors.any()


def _reference_chunk(rng, size, means, sigma, v_0):
    """The chunk as first written: two gathers, int64 bits and a BLAS dot.

    Returns (n_matched, n_accepted, n_errors, resid_sum, resid_sq).
    """
    a = rng.integers(0, 4, size=size)
    b = rng.integers(0, 2, size=size)
    v = means[a, b] + sigma * rng.standard_normal(size)
    matched = (a & 1) == b
    accepted = matched & (np.abs(v) >= v_0)
    alice_bit = a >> 1
    bob_bit = (v < 0.0).astype(np.int64)
    errors = accepted & (bob_bit != alice_bit)
    resid = v - means[a, b]
    return (
        int(matched.sum()),
        int(accepted.sum()),
        int(errors.sum()),
        float(resid.sum()),
        float(np.dot(resid, resid)),
    )


def _lean_chunk(rng, size, means, sigma, v_0):
    # the same five numbers, summed over the blocks simulate_rounds tallies
    totals = [0, 0, 0, 0.0, 0.0]
    for center, v, matched, accepted, errors in simulate._draw_chunk(
        rng, size, means, sigma, v_0
    ):
        resid = v - center
        parts = (
            int(np.count_nonzero(matched)),
            int(np.count_nonzero(accepted)),
            int(np.count_nonzero(errors)),
            float(resid.sum()),
            float(np.einsum("i,i->", resid, resid)),
        )
        totals = [t + p for t, p in zip(totals, parts)]
    return totals


def chunk_totals(chunk, rounds, seed):
    """Sum ``chunk`` over the chunks and seed streams of simulate_rounds."""
    means = mean_table(tun(), SYS, CH.eta)
    full, rest = divmod(rounds, simulate._CHUNK)
    sizes = [simulate._CHUNK] * full + ([rest] if rest else [])
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    totals = [0, 0, 0, 0.0, 0.0]
    for size, child in zip(sizes, children):
        parts = chunk(np.random.default_rng(child), size, means, CH.sigma, 1.6)
        totals = [t + p for t, p in zip(totals, parts)]
    return totals


@pytest.mark.parametrize(
    "seed, rounds",
    [(seed, 200_000) for seed in range(16)]
    + [(4, 1_500_000), (0, 1), (1, 65_537), (3, 200_001)]
    + [(2, 16_383), (5, 16_385), (6, 1_000_003)],
)
def test_lean_chunk_keeps_every_counter(seed, rounds):
    lean = chunk_totals(_lean_chunk, rounds, seed)
    ref = chunk_totals(_reference_chunk, rounds, seed)
    # the counters are the same to the bit
    assert lean[:3] == ref[:3]
    # and they are what simulate_rounds counts
    stats = simulate_rounds(tun(), SYS, CH, rounds=rounds, seed=seed)
    assert (stats.n_matched, stats.n_accepted, stats.n_errors) == tuple(ref[:3])
    if rounds > 1:
        # the residual sums are taken block by block, so the variance may
        # round differently from the reference's, but only in the last bits
        resid_sum, resid_sq = ref[3:]
        var_hat = (resid_sq - resid_sum * resid_sum / rounds) / (rounds - 1)
        assert stats.noise_var_hat == pytest.approx(var_hat, rel=1e-14, abs=0.0)
    if 1 < rounds <= simulate._CHUNK:
        # in one chunk simulate_rounds adds the same block sums in the same
        # order as _lean_chunk, so its variance is the lean one to the bit
        resid_sum, resid_sq = lean[3:]
        var_hat = (resid_sq - resid_sum * resid_sum / rounds) / (rounds - 1)
        assert stats.noise_var_hat == var_hat


def test_simulate_rounds_memory_is_bounded():
    # a chunk is tallied in blocks, and no chunk outlives the next one's draw
    peaks = {}
    for rounds in (10**6, 3 * 10**6):
        tracemalloc.start()
        try:
            simulate_rounds(tun(), SYS, CH, rounds=rounds, seed=1)
            peaks[rounds] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert peaks[10**6] <= 2.5
    assert peaks[3 * 10**6] <= peaks[10**6] + 1.0


def test_chunk_seeds_are_spawned_as_chunks_start(monkeypatch):
    # a run holds one chunk's seed at a time, however many chunks it has
    monkeypatch.setattr(simulate, "_CHUNK", 50)
    simulate_rounds(tun(), SYS, CH, rounds=1000, seed=1)
    peaks = {}
    for chunks in (20, 2000):
        tracemalloc.start()
        try:
            simulate_rounds(tun(), SYS, CH, rounds=chunks * 50, seed=1)
            peaks[chunks] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert peaks[2000] <= peaks[20] + 0.2


_RESID_SQ_CHECK = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_simulate as t
pairs = []
for seed in range(16):
    lean = t.chunk_totals(t._lean_chunk, 200_000, seed)
    ref = t.chunk_totals(t._reference_chunk, 200_000, seed)
    pairs.append((lean[4], ref[4]))
print(json.dumps(pairs))
"""


def test_lean_chunk_residual_square_sum_single_thread(fresh_python):
    # one BLAS thread makes the reference dot reproducible; the BLAS-free
    # sum may round differently, but only in the last bits
    out = fresh_python(
        _RESID_SQ_CHECK, os.path.dirname(__file__), OPENBLAS_NUM_THREADS="1"
    )
    for lean, ref in json.loads(out):
        assert lean == pytest.approx(ref, rel=1e-14, abs=0.0)


_NOISE_VAR_REPR = """
from scw_cvqkd.noise import ChannelModel
from scw_cvqkd.optics import SystemParams, TunableParams, calibrate_delta
from scw_cvqkd.simulate import simulate_rounds
sys_p = SystemParams()
tun = TunableParams(mu_0=0.42, beta_A=0.9, delta=calibrate_delta(0.9, sys_p), v_0=1.6)
stats = simulate_rounds(tun, sys_p, ChannelModel(3.0, 0.1), rounds=10**6, seed=3)
print(repr(stats.noise_var_hat))
"""


def test_noise_variance_independent_of_blas_threads(fresh_python):
    one = fresh_python(_NOISE_VAR_REPR, OPENBLAS_NUM_THREADS="1")
    two = fresh_python(_NOISE_VAR_REPR, OPENBLAS_NUM_THREADS="2")
    assert one == two and float(one) > 0.0


def test_simulate_rounds_domain():
    with pytest.raises(DomainError):
        simulate_rounds(tun(), SYS, CH, rounds=0)


def test_simulate_rounds_rejects_negative_seed():
    # numpy's SeedSequence would raise a bare ValueError
    with pytest.raises(DomainError, match="seed must be >= 0"):
        simulate_rounds(tun(), SYS, CH, rounds=10, seed=-1)


def test_z95_matches_ndtri_oracle():
    assert simulate._Z95 == pytest.approx(ndtri(0.975), rel=1e-15, abs=0.0)


def test_z95_literal_matches_statistics():
    assert simulate._Z95 == statistics.NormalDist().inv_cdf(0.975)


def test_wilson_interval_values():
    lo, hi = wilson_interval(50, 100)
    assert abs((lo + hi) / 2 - 0.5) < 1e-12
    assert 0.40 < lo < 0.5 < hi < 0.60
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 < 1e-15 and lo0 < hi0 < 0.06
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 > 1 - 1e-15 and 0.94 < lo1 < hi1
    with pytest.raises(DomainError):
        wilson_interval(5, 0)
    with pytest.raises(DomainError):
        wilson_interval(7, 5)
