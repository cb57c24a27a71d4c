"""Symbol-mean and calibration tests."""

import math

import numpy as np
import pytest

from scw_cvqkd.errors import DegenerateError, DomainError, NoRootError
from scw_cvqkd.noise import ChannelModel
from scw_cvqkd.optics import (
    _calibrate_by_scan,
    SystemParams,
    TunableParams,
    calibrate_delta,
    matched_contrasts,
    matched_means,
    mean_table,
)
from scw_cvqkd.security import rate_block

SYS = SystemParams()
# loss-free variant with a transparent carrier filter for closed-form checks
SYS_IDEAL = SystemParams(theta_carrier=0.0)


def tun(mu_0=0.4, beta_A=0.3, delta=None, v_0=0.0):
    if delta is None:
        delta = calibrate_delta(beta_A, SYS)
    return TunableParams(mu_0=mu_0, beta_A=beta_A, delta=delta, v_0=v_0)


def oracle_contrast(beta_A, beta_B, dphi, S, theta=SYS.theta_carrier):
    # the general composition formula for cos(beta'), Legendre by numpy
    c = math.cos(beta_A) * math.cos(beta_B) - math.sin(beta_A) * math.sin(
        beta_B
    ) * math.cos(dphi)
    w = np.polynomial.legendre.legval(c, [0.0] * S + [1.0])
    return 1.0 - 2.0 * (1.0 - theta) * w * w


def test_beta_prime_identities():
    # at dphi = 0 and pi the composite angle is beta_A + beta_B and
    # |beta_A - beta_B|, which matched_contrasts uses in closed form; the
    # calibration scan pushes beta_B up to 10 beta_A, past pi
    rng = np.random.default_rng(7)
    for S in (1, 2, 3):
        for _ in range(20):
            beta_A = rng.uniform(0.0, math.pi)
            beta_B = rng.uniform(0.0, 10.0 * beta_A)
            u0, upi = matched_contrasts(beta_A, beta_B, SYS.theta_carrier, S)
            for u, dphi in ((u0, 0.0), (upi, math.pi)):
                expect = oracle_contrast(beta_A, beta_B, dphi, S)
                assert u == pytest.approx(expect, abs=1e-12)


def test_beta_prime_accepts_large_bob_angle():
    # calibration scans push beta_B past pi; the contrast there equals the
    # one at the composite angle folded back into [0, pi]
    beta_A, beta_B = 0.5, 5.0
    for S in (1, 2, 3):
        u0, upi = matched_contrasts(beta_A, beta_B, SYS.theta_carrier, S)
        for u, angle in ((u0, beta_A + beta_B), (upi, beta_B - beta_A)):
            folded = math.acos(math.cos(angle))
            assert 0.0 <= folded <= math.pi
            w = np.polynomial.legendre.legval(math.cos(folded), [0.0] * S + [1.0])
            expect = 1.0 - 2.0 * (1.0 - SYS.theta_carrier) * w * w
            assert math.isfinite(u) and -1.0 <= u <= 1.0
            assert u == pytest.approx(expect, abs=1e-12)


def test_contrast_even_in_phase():
    # the four mismatched cells sit at dphi = +pi/2 or -pi/2 (3pi/2) and
    # share one value; each matches the formula at its own phase difference
    alice = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
    bob = (0.0, 0.5 * math.pi)
    for S in (1, 3):
        sys_s = SystemParams(S=S)
        for beta_A in (0.2, 0.8, 1.4):
            t = tun(beta_A=beta_A, delta=calibrate_delta(beta_A, sys_s))
            table = mean_table(t, sys_s, 0.5)
            u0 = oracle_contrast(beta_A, t.beta_B, 0.0, S)
            for row, col in ((0, 1), (1, 0), (2, 1), (3, 0)):
                u = oracle_contrast(beta_A, t.beta_B, alice[row] - bob[col], S)
                expect = table[0, 0] * u / u0
                assert table[row, col] == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_calibration_closed_form_root():
    # S=1 with a transparent filter: first balanced root sits at delta = pi/(4 beta_A)
    for beta_A in (0.15, 0.3, 0.6, 1.0, 1.4):
        d = calibrate_delta(beta_A, SYS_IDEAL)
        assert d == pytest.approx(math.pi / (4.0 * beta_A), rel=1e-9)


def test_calibration_with_filter_leak():
    # theta_carrier = 1e-6 shifts the root by O(theta)
    d = calibrate_delta(0.3, SYS)
    assert d == pytest.approx(math.pi / 1.2, abs=1e-4)
    u0, upi = matched_contrasts(0.3, d * 0.3, SYS.theta_carrier, SYS.S)
    assert abs(u0 + upi) < 1e-10
    assert u0 > 0.0


def test_calibration_balances_symbol_means():
    t = tun(mu_0=0.5, beta_A=0.42)
    m_plus, m_minus = matched_means(t, SYS, 0.5)
    assert m_plus > 0.0
    assert m_plus == pytest.approx(-m_minus, rel=1e-9)


def test_calibration_no_root_at_quarter_pi():
    # S=1, beta_A=pi/4: the balance stays at 2*theta_carrier, never zero
    with pytest.raises(NoRootError):
        calibrate_delta(0.25 * math.pi, SYS)


def test_calibration_closed_form_matches_scan_oracle():
    # S=1 closed form against the scan-plus-brentq root it replaced, on both
    # sides of pi/4 and close to the no-root window there
    near = [0.25 * math.pi + d for d in (-1e-2, -1e-3, -1e-4, 1e-4, 1e-3, 1e-2)]
    angles = np.concatenate([np.linspace(0.1, 1.45, 1001), near])
    below = angles < 0.25 * math.pi
    assert below.sum() > 400 and (~below).sum() > 400
    for beta_A in angles:
        beta_A = float(beta_A)
        oracle = _calibrate_by_scan(beta_A, SYS.theta_carrier, SYS.S)
        assert calibrate_delta(beta_A, SYS) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("S", [2, 3])
def test_calibration_scan_path_higher_spin(S):
    sys_s = SystemParams(S=S)
    for beta_A in (0.2, 0.5, 0.8, 1.1, 1.4):
        d = calibrate_delta(beta_A, sys_s)
        u0, upi = matched_contrasts(beta_A, d * beta_A, sys_s.theta_carrier, S)
        assert abs(u0 + upi) < 1e-10
        assert u0 > 0.0
        # the balanced contrasts give antisymmetric matched means
        m_plus, m_minus = matched_means(tun(beta_A=beta_A, delta=d), sys_s, 0.5)
        assert m_plus > 0.0
        assert m_minus == pytest.approx(-m_plus, rel=1e-9)


def test_calibration_domain():
    with pytest.raises(DomainError):
        calibrate_delta(0.0, SYS)
    with pytest.raises(DomainError):
        calibrate_delta(0.5 * math.pi, SYS)


def test_symbol_mean_sideband_closed_form():
    # S=1 calibrated: mean = s sqrt(eta mu_0 / 2) sin(beta_A) up to filter leak
    t = tun(mu_0=0.4, beta_A=0.3)
    eta = 0.5
    expect = math.sqrt(eta * 0.4 / 2.0) * math.sin(0.3)
    m_plus, m_minus = matched_means(t, SYS, eta)
    assert m_plus == pytest.approx(expect, rel=1e-5)
    assert m_minus == pytest.approx(-expect, rel=1e-5)


def test_symbol_mean_vacuum():
    # mu_0 = 0 reads 0 in every cell, also where the means would be undefined
    for sys_v, delta in ((SYS, 1.0), (SystemParams(theta_carrier=0.5), 3.0)):
        t = TunableParams(mu_0=0.0, beta_A=0.25 * math.pi, delta=delta, v_0=0.0)
        assert matched_means(t, sys_v, 0.5) == (0.0, 0.0)
        assert np.array_equal(mean_table(t, sys_v, 0.5), np.zeros((4, 2)))


def test_mean_table_degenerate():
    # S=1, theta_carrier = 1/2, beta_A + beta_B = pi: u(0) = 0 but u(pi) = 1
    sys_h = SystemParams(theta_carrier=0.5)
    t = TunableParams(mu_0=0.4, beta_A=0.25 * math.pi, delta=3.0, v_0=0.0)
    u0, upi = matched_contrasts(t.beta_A, t.beta_B, sys_h.theta_carrier, sys_h.S)
    assert u0 == 0.0 and upi != 0.0
    with pytest.raises(DegenerateError):
        mean_table(t, sys_h, 0.5)
    with pytest.raises(DegenerateError):
        matched_means(t, sys_h, 0.5)


@pytest.mark.parametrize("S", [1, 3])
def test_means_match_kernel_bit_for_bit(S):
    # one implementation of the matched means: the one-point helpers return
    # the rate kernel's values exactly, at calibrated points
    sys_s = SystemParams(S=S)
    ch = ChannelModel(loss_db=3.0, xi=0.1)
    for mu_0, beta_A in ((0.278, math.radians(72.0)), (0.05, 0.3), (2.0, 1.1)):
        t = TunableParams(
            mu_0=mu_0, beta_A=beta_A, delta=calibrate_delta(beta_A, sys_s), v_0=1.0
        )
        block = rate_block([mu_0], [beta_A], [t.delta], [t.v_0], sys_s, ch)
        plus, minus = float(block.mean_plus[0]), float(block.mean_minus[0])
        assert matched_means(t, sys_s, ch.eta) == (plus, minus)
        table = mean_table(t, sys_s, ch.eta)
        assert table[0, 0] == table[1, 1] == plus
        assert table[2, 0] == table[3, 1] == minus


def test_mean_table_structure():
    t = tun(mu_0=0.4, beta_A=0.3)
    table = mean_table(t, SYS, 0.5)
    assert table.shape == (4, 2)
    m_plus = table[0, 0]
    # matched-basis cells carry the symmetric symbol pair
    assert table[1, 1] == pytest.approx(m_plus, rel=1e-12)
    assert table[2, 0] == pytest.approx(-m_plus, rel=1e-9)
    assert table[3, 1] == pytest.approx(-m_plus, rel=1e-9)
    # mismatched cells agree among themselves (contrast is even in phase)
    mids = [table[0, 1], table[2, 1], table[1, 0], table[3, 0]]
    for m in mids[1:]:
        assert m == pytest.approx(mids[0], rel=1e-9)


def test_mismatched_mean_vanishes_at_small_angle():
    # the mid-phase symbol mean scales like tan(beta_A)/2 relative to m_plus
    ratios = []
    for beta_A in (0.4, 0.2, 0.1):
        t = tun(mu_0=0.4, beta_A=beta_A)
        table = mean_table(t, SYS, 0.5)
        ratios.append(abs(table[0, 1] / table[0, 0]))
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.06
    assert ratios[0] == pytest.approx(math.tan(0.4) / 2.0, rel=1e-2)


def test_params_validation():
    with pytest.raises(DomainError):
        SystemParams(T=0.0)
    with pytest.raises(DomainError):
        SystemParams(theta_carrier=1.5)
    with pytest.raises(DomainError):
        SystemParams(S=0)
    with pytest.raises(DomainError):
        TunableParams(mu_0=-0.1, beta_A=0.3, delta=1.0, v_0=0.0)
    with pytest.raises(DomainError):
        TunableParams(mu_0=0.1, beta_A=0.3, delta=0.0, v_0=0.0)
    with pytest.raises(DomainError):
        TunableParams(mu_0=0.1, beta_A=0.3, delta=1.0, v_0=-1.0)
    with pytest.raises(DomainError):
        TunableParams(mu_0=0.1, beta_A=4.0, delta=1.0, v_0=0.0)

