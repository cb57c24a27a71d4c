"""Acceptance gate: seven end-to-end behavior checks.

Each test exercises the full pipeline the way a study would: optimized
sweeps over channel loss, finite-block convergence, Monte Carlo
cross-validation, and the numerical identity suites, all at their
stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from scw_cvqkd.angular import wigner_d_row
from scw_cvqkd.finitekey import FiniteKeyParams, finite_key_rate
from scw_cvqkd.noise import ChannelModel, decision_stats
from scw_cvqkd.optics import SystemParams, TunableParams
from scw_cvqkd.search import SweepSpec, sweep
from scw_cvqkd.security import asymptotic_key_rate, security_quantities
from scw_cvqkd.simulate import compare_analytic, simulate_rounds

SYS = SystemParams()
LOSS_GRID = tuple(round(0.25 * i, 2) for i in range(1, 41))  # 40 points, 0.25..10 dB


@pytest.fixture(scope="module")
def asymptotic_sweeps():
    """Optimized asymptotic sweeps over the shared 40-point loss grid."""
    results = {}
    t0 = time.monotonic()
    results[0.1] = sweep(
        SweepSpec(loss_grid=LOSS_GRID, noise_levels=(0.1,)), SYS
    )
    elapsed_main = time.monotonic() - t0
    for xi in (0.0, 0.2):
        results[xi] = sweep(
            SweepSpec(loss_grid=LOSS_GRID, noise_levels=(xi,)), SYS
        )
    return results, elapsed_main


def _positive_losses(reports):
    return [r.loss_db for r in reports if r.status == "ok" and r.rate > 0.0]


def test_criterion_1_cutoff(asymptotic_sweeps):
    results, elapsed = asymptotic_sweeps
    reports = results[0.1]
    assert len(reports) == 40
    positive = _positive_losses(reports)
    assert positive, "no positive rate anywhere on the grid"
    cutoff = max(positive)
    dead = [r.loss_db for r in reports if r.loss_db > cutoff]
    assert dead, "rate still positive at the top of the grid"
    assert all(
        r.rate == 0.0 for r in reports if r.loss_db > cutoff
    ), "positive rate above the cutoff"
    assert 7.5 <= cutoff <= 10.5
    assert elapsed <= 300.0
    print(f"PASS criterion 1: cutoff at {cutoff} dB (grid step 0.25), "
          f"40-point sweep in {elapsed:.1f} s")


def test_criterion_2_curve_ordering(asymptotic_sweeps):
    results, _ = asymptotic_sweeps
    by_loss = {
        xi: {r.loss_db: r.rate for r in reports}
        for xi, reports in results.items()
    }
    shared = [
        loss
        for loss in LOSS_GRID
        if all(by_loss[xi][loss] > 0.0 for xi in (0.0, 0.1, 0.2))
    ]
    assert len(shared) >= 10
    for loss in shared:
        assert by_loss[0.0][loss] > by_loss[0.1][loss] > by_loss[0.2][loss]

    finite_reports = sweep(
        SweepSpec(
            loss_grid=(1.0, 3.0),
            noise_levels=(0.1,),
            n_values=(10**8, 10**10, 10**12),
        ),
        SYS,
    )
    for loss in (1.0, 3.0):
        curve = [r for r in finite_reports if r.loss_db == loss]
        curve.sort(key=lambda r: r.n)
        rates = [r.rate for r in curve]
        assert len(rates) == 3
        assert rates[0] < rates[1] < rates[2]
    print(f"PASS criterion 2: noise ordering strict at {len(shared)} loss "
          f"points; R(n) strictly increasing at 1 and 3 dB")


def test_criterion_3_asymptotic_convergence(asymptotic_sweeps):
    results, _ = asymptotic_sweeps
    at_3db = next(r for r in results[0.1] if r.loss_db == 3.0)
    assert at_3db.status == "ok"
    K = at_3db.rate
    # idealized reconciliation isolates the pure finite-size overheads
    fk = FiniteKeyParams(n=10**14, f_EC=1.0, dQ=0.0)
    ch = ChannelModel(loss_db=3.0, xi=0.1)
    R = finite_key_rate(at_3db.params, SYS, ch, fk).rate
    rel = abs(R - K) / K
    assert rel < 0.01
    print(f"PASS criterion 3: |R(1e14) - K|/K = {rel:.2e} at 3 dB")


def test_criterion_4_monte_carlo(asymptotic_sweeps):
    results, _ = asymptotic_sweeps
    at_3db = next(r for r in results[0.1] if r.loss_db == 3.0)
    ch = ChannelModel(loss_db=3.0, xi=0.1)
    t0 = time.monotonic()
    stats = simulate_rounds(at_3db.params, SYS, ch, rounds=10**7, seed=7)
    report = compare_analytic(stats, at_3db.params, SYS, ch, strict=True)
    elapsed = time.monotonic() - t0
    assert report["pass"]
    assert abs(report["z"]["accept"]) < 4.0
    assert abs(report["z"]["qber"]) < 4.0
    assert elapsed <= 120.0
    print(f"PASS criterion 4: 1e7 rounds in {elapsed:.1f} s, "
          f"z(P)={report['z']['accept']:+.2f}, z(Q)={report['z']['qber']:+.2f}")


def test_criterion_5_angular_suite():
    rng = np.random.default_rng(2468)
    worst = 0.0
    for S in range(1, 21):
        for beta in rng.uniform(0.0, math.pi, size=100):
            row = wigner_d_row(S, float(beta))
            worst = max(worst, abs(row.norm_sq - 1.0))
            for k in range(1, S + 1):
                worst = max(
                    worst, abs(row.value(k) - (-1.0) ** k * row.value(-k))
                )
            assert worst <= 1e-10
    for beta in rng.uniform(0.0, math.pi, size=100):
        row = wigner_d_row(1, float(beta))
        s, c = math.sin(beta), math.cos(beta)
        for k, ref in ((-1, -s / math.sqrt(2.0)), (0, c), (1, s / math.sqrt(2.0))):
            assert abs(row.value(k) - ref) <= 5e-16
    print(f"PASS criterion 5: worst identity residual {worst:.2e} "
          f"over S<=20 x 100 angles; first-order row at machine precision")


def test_criterion_6_integration_oracle():
    rng = np.random.default_rng(1357)
    worst = 0.0
    for _ in range(100):
        mean_plus = float(rng.uniform(0.05, 2.0))
        mean_minus = float(-rng.uniform(0.05, 2.0))
        xi = float(rng.uniform(0.0, 0.3))
        v_0 = float(rng.uniform(0.0, 3.0))
        a = decision_stats(v_0, mean_plus, mean_minus, xi, method="closed_form")
        b = decision_stats(v_0, mean_plus, mean_minus, xi, method="quadrature")
        worst = max(worst, abs(a.P - b.P), abs(a.E - b.E))
        assert abs(a.P - b.P) <= 1e-9
        assert abs(a.E - b.E) <= 1e-9
    print(f"PASS criterion 6: closed form vs quadrature, worst |diff| = {worst:.2e} "
          f"over 100 random parameter sets")


def test_criterion_7_degenerate_suite():
    ch = ChannelModel(loss_db=3.0, xi=0.1)

    # no modulation: zero key exactly, and the emulated error rate is a coin flip
    blocked = TunableParams(mu_0=0.4, beta_A=0.0, delta=1.0, v_0=0.6)
    res = asymptotic_key_rate(blocked, SYS, ch)
    assert res.rate == 0.0
    stats = simulate_rounds(blocked, SYS, ch, rounds=10**6, seed=13)
    se = math.sqrt(0.25 / stats.n_accepted)
    assert abs(stats.qber - 0.5) <= 3.0 * se

    # no light: nothing for an eavesdropper to distinguish
    assert security_quantities(0.0, 0.9, SYS.S).chi_dr == 0.0

    # threshold beyond every tail: finite analysis aborts, asymptotic is insecure
    absurd = TunableParams(mu_0=0.4, beta_A=0.9, delta=0.8726, v_0=80.0)
    fk = FiniteKeyParams(n=10**10)
    fin = finite_key_rate(absurd, SYS, ch, fk)
    assert fin.abort and fin.rate == 0.0
    asym = asymptotic_key_rate(absurd, SYS, ch)
    assert asym.insecure and asym.rate == 0.0
    print("PASS criterion 7: blocked modulation, dark source, and "
          "unreachable threshold all degrade safely")
