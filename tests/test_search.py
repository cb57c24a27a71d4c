"""Optimizer and sweep tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from scw_cvqkd.errors import DomainError, InfeasibleError
from scw_cvqkd.finitekey import FiniteKeyParams, finite_key_rate
from scw_cvqkd.noise import ChannelModel, noise_sigma
from scw_cvqkd.optics import SystemParams, TunableParams, calibrate_delta
from scw_cvqkd.search import (
    Bounds,
    KeyRateReport,
    OptimumPoint,
    SweepSpec,
    optimize_point,
    sweep,
    thread_count,
)
from scw_cvqkd.security import asymptotic_key_rate, asymptotic_rates, rate_block

SYS = SystemParams()
CH3 = ChannelModel(loss_db=3.0, xi=0.1)


@pytest.fixture(scope="module")
def opt3():
    return optimize_point(CH3, SYS)


def test_optimum_positive_and_reproducible(opt3):
    assert isinstance(opt3, OptimumPoint)
    assert opt3.rate > 0.0
    again = asymptotic_key_rate(opt3.params, SYS, CH3)
    assert abs(again.rate - opt3.rate) <= 1e-10 * opt3.rate


def test_optimum_is_local_max(opt3):
    # +/-1% single-knob perturbations (clipped to bounds) never win by
    # more than the refinement tolerance
    base = opt3.rate
    bounds = Bounds()
    for knob in ("mu_0", "beta_A", "v_0"):
        for fac in (0.99, 1.01):
            val = getattr(opt3.params, knob) * fac
            if knob == "mu_0":
                val = min(max(val, bounds.mu_0[0]), bounds.mu_0[1])
            if knob == "beta_A":
                val = min(max(val, bounds.beta_A[0]), bounds.beta_A[1])
            t = replace(opt3.params, **{knob: val})
            if knob == "beta_A":
                t = replace(t, delta=calibrate_delta(val, SYS))
            r = asymptotic_key_rate(t, SYS, CH3).rate
            assert r <= base * (1.0 + 1e-8)


def test_threshold_strictly_helps_under_noise(opt3):
    # with excess noise the optimal threshold is strictly interior
    assert opt3.params.v_0 > 0.0
    at_zero = asymptotic_key_rate(replace(opt3.params, v_0=0.0), SYS, CH3).rate
    assert opt3.rate > at_zero


def test_optimizer_deterministic(opt3):
    again = optimize_point(CH3, SYS)
    assert again.rate == opt3.rate
    assert again.params == opt3.params


def test_optimum_zero_loss_noiseless():
    opt = optimize_point(ChannelModel(loss_db=0.0, xi=0.0), SYS)
    assert opt.rate > 0.0
    assert opt.Q < 0.1


def test_infeasible_beyond_cutoff():
    with pytest.raises(InfeasibleError) as exc:
        optimize_point(ChannelModel(loss_db=15.0, xi=0.1), SYS)
    diag = exc.value.diagnostics
    assert diag["best_rate"] <= 0.0
    assert diag["grid_points"] == 12 * 8 * 9


def test_finite_mode_optimum():
    fk = FiniteKeyParams(n=10**10)
    opt = optimize_point(CH3, SYS, fk=fk)
    assert opt.rate > 0.0
    # parameter-estimation bits are pure cost, so the share stays small
    assert opt.params.k_sample <= 0.05 * fk.n
    again = finite_key_rate(opt.params, SYS, CH3, fk)
    assert abs(again.rate - opt.rate) <= 1e-10 * opt.rate


def test_finite_optimum_charges_configured_k_sample():
    # the reported k_sample is the one the rate paid for
    fk = FiniteKeyParams(n=10**10, k_sample=10**6)
    opt = optimize_point(CH3, SYS, fk=fk)
    assert opt.params.k_sample == 10**6
    again = finite_key_rate(opt.params, SYS, CH3, fk)
    assert abs(again.rate - opt.rate) <= 1e-12 * opt.rate


def _dense_reference_rate(ch: ChannelModel) -> float:
    """Best S=1 rate on a dense (mu_0, v_0) scan at a fixed angle.

    At S=1 the rate depends on mu_0 and beta_A only through
    mu_0 sin^2(beta_A) (see test_s1_rate_constant_along_ridge), so a
    fixed beta_A loses nothing inside the default box.
    """
    beta_A = 1.2
    delta = calibrate_delta(beta_A, SYS)
    mu_0, v_sig = np.meshgrid(
        np.logspace(-3.0, 1.0, 161), np.linspace(0.0, 6.0, 121), indexing="ij"
    )
    mu_0, v_0 = mu_0.ravel(), v_sig.ravel() * noise_sigma(ch.xi)
    best = 0.0
    for rows in np.array_split(np.arange(mu_0.size), 10):
        ones = np.ones(rows.size)
        block = rate_block(
            mu_0[rows], beta_A * ones, delta * ones, v_0[rows], SYS, ch
        )
        best = max(best, float(asymptotic_rates(block).max()))
    return best


@pytest.mark.parametrize(
    "loss_db, xi",
    [(3.0, 0.1), (8.25, 0.2), (8.5, 0.1), (8.75, 0.1), (9.0, 0.0), (9.0, 0.1)],
)
def test_optimum_reaches_dense_reference(loss_db, xi):
    ch = ChannelModel(loss_db=loss_db, xi=xi)
    reference = _dense_reference_rate(ch)
    assert reference > 0.0
    assert optimize_point(ch, SYS).rate >= (1.0 - 1e-9) * reference


def _calibrated(mu_0: float, beta_A: float, v_0: float) -> TunableParams:
    return TunableParams(
        mu_0=mu_0, beta_A=beta_A, delta=calibrate_delta(beta_A, SYS), v_0=v_0
    )


def test_s1_rate_constant_along_ridge():
    # means scale with sqrt(mu_0) sin(beta_A) and the overlap with
    # mu_0 sin^2(beta_A), so only that product moves the S=1 rate
    mu_0, beta_A, v_0 = 0.278, 1.2566, 1.62
    base = asymptotic_key_rate(_calibrated(mu_0, beta_A, v_0), SYS, CH3).rate
    assert base > 0.0
    ridge = mu_0 * math.sin(beta_A) ** 2
    betas = np.linspace(0.3, 1.45, 12)
    # calibration has no root right at pi/4
    assert np.min(np.abs(betas - math.pi / 4)) > 0.03
    for beta in betas:
        beta = float(beta)
        tun = _calibrated(ridge / math.sin(beta) ** 2, beta, v_0)
        rate = asymptotic_key_rate(tun, SYS, CH3).rate
        assert abs(rate - base) <= 1e-12 * base, beta


def test_sweep_serial_ordering(monkeypatch):
    monkeypatch.setenv("SCW_THREADS", "1")
    spec = SweepSpec(loss_grid=(1.0, 3.0, 5.0), noise_levels=(0.1,))
    reports = sweep(spec, SYS)
    assert [r.loss_db for r in reports] == [1.0, 3.0, 5.0]
    assert all(r.status == "ok" for r in reports)
    rates = [r.rate for r in reports]
    assert rates[0] > rates[1] > rates[2] > 0.0


def test_sweep_records_infeasible_points(monkeypatch):
    monkeypatch.setenv("SCW_THREADS", "1")
    spec = SweepSpec(loss_grid=(3.0, 15.0), noise_levels=(0.1,))
    reports = sweep(spec, SYS)
    assert reports[0].status == "ok"
    assert reports[1].status == "infeasible"
    assert reports[1].rate == 0.0
    assert reports[1].params is None


def test_sweep_single_point_matches_optimize(monkeypatch, opt3):
    monkeypatch.setenv("SCW_THREADS", "1")
    reports = sweep(SweepSpec(loss_grid=(3.0,), noise_levels=(0.1,)), SYS)
    assert len(reports) == 1
    assert reports[0].rate == opt3.rate
    assert reports[0].params == opt3.params


def test_sweep_parallel_matches_serial(monkeypatch):
    spec = SweepSpec(loss_grid=(2.0, 4.0), noise_levels=(0.1,))
    monkeypatch.setenv("SCW_THREADS", "1")
    serial = sweep(spec, SYS)
    monkeypatch.setenv("SCW_THREADS", "2")
    parallel = sweep(spec, SYS)
    assert serial == parallel


def test_sweep_finite_grid(monkeypatch):
    monkeypatch.setenv("SCW_THREADS", "1")
    spec = SweepSpec(
        loss_grid=(3.0,), noise_levels=(0.1,), n_values=(10**9, 10**11)
    )
    reports = sweep(spec, SYS)
    assert [r.n for r in reports] == [10**9, 10**11]
    assert all(isinstance(r, KeyRateReport) for r in reports)
    assert 0.0 < reports[0].rate < reports[1].rate


def test_thread_count(monkeypatch):
    monkeypatch.setenv("SCW_THREADS", "3")
    assert thread_count(10) == 3
    assert thread_count(2) == 2
    monkeypatch.setenv("SCW_THREADS", "zebra")
    with pytest.raises(DomainError):
        thread_count(4)
    monkeypatch.delenv("SCW_THREADS")
    assert thread_count(1) == 1


def test_bounds_and_spec_validation():
    with pytest.raises(DomainError):
        Bounds(mu_0=(0.0, 1.0))
    with pytest.raises(DomainError):
        Bounds(beta_A=(0.5, 0.2))
    with pytest.raises(DomainError):
        Bounds(beta_A=(0.5, 2.0))
    with pytest.raises(DomainError):
        SweepSpec(loss_grid=(), noise_levels=(0.1,))
    with pytest.raises(DomainError):
        SweepSpec(loss_grid=(3.0, 1.0), noise_levels=(0.1,))
    with pytest.raises(DomainError):
        SweepSpec(loss_grid=(1.0,), noise_levels=(0.1,), n_values=())
