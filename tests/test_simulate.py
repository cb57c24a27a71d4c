"""Monte Carlo emulator tests."""

import math
from dataclasses import replace

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
)
from scw_cvqkd.simulate import (
    EmpiricalStats,
    compare_analytic,
    round_records,
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


def test_chunked_run_spans_boundaries():
    stats = simulate_rounds(tun(), SYS, CH, rounds=2_500_000, seed=11)
    assert stats.rounds == 2_500_000
    assert abs(stats.sift_rate - 0.5) < 0.005
    assert compare_analytic(stats, tun(), SYS, CH)["pass"]


def test_single_round_edge():
    stats = simulate_rounds(tun(), SYS, CH, rounds=1, seed=0)
    assert stats.rounds == 1
    assert math.isnan(stats.noise_var_hat)


def test_round_records_trace():
    recs = round_records(tun(), SYS, CH, rounds=2000, seed=9)
    assert len(recs) == 2000
    assert [r.index for r in recs] == list(range(2000))
    for r in recs:
        assert r.alice_symbol in (0, 1, 2, 3)
        assert r.bob_basis in (0, 1)
        assert r.matched == ((r.alice_symbol & 1) == r.bob_basis)
        assert r.alice_bit == r.alice_symbol >> 1
        assert r.accepted == (r.matched and abs(r.value) >= 1.6)
        if r.accepted:
            assert r.bob_bit == (1 if r.value < 0 else 0)
        else:
            assert r.bob_bit is None
    assert any(r.accepted for r in recs)


def test_round_records_cap_and_domains():
    with pytest.raises(DomainError):
        round_records(tun(), SYS, CH, rounds=1_000_001)
    with pytest.raises(DomainError):
        round_records(tun(), SYS, CH, rounds=0)
    with pytest.raises(DomainError):
        simulate_rounds(tun(), SYS, CH, rounds=0)


def test_z95_matches_ndtri_oracle():
    assert simulate._Z95 == pytest.approx(ndtri(0.975), rel=1e-15, abs=0.0)


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
