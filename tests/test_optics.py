"""State-preparation, detector-split and calibration tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scw_cvqkd.errors import DegenerateError, DomainError, NoRootError
from scw_cvqkd.optics import (
    _calibrate_by_scan,
    ALICE_PHASES,
    BOB_PHASES,
    MultimodeState,
    SystemParams,
    TunableParams,
    alice_state,
    beta_prime,
    calibrate_delta,
    detector_photon_numbers,
    interference_contrast,
    local_oscillator_photons,
    matched_means,
    mean_table,
    quadrature_mean,
    relative_phase,
    symbol_mean,
)

SYS = SystemParams()
# loss-free variant with a transparent carrier filter for closed-form checks
SYS_IDEAL = SystemParams(theta_carrier=0.0)


def tun(mu_0=0.4, beta_A=0.3, delta=None, v_0=0.0):
    if delta is None:
        delta = calibrate_delta(beta_A, SYS)
    return TunableParams(mu_0=mu_0, beta_A=beta_A, delta=delta, v_0=v_0)


def test_alice_state_degenerate_angle():
    st8 = alice_state(0.7, 0.0, math.pi, SYS)
    assert st8.amplitude(0) == pytest.approx(math.sqrt(0.7))
    assert st8.amplitude(1) == 0.0
    assert st8.amplitude(-1) == 0.0


def test_alice_state_photon_conservation():
    for beta in (0.2, 0.9, 1.4):
        st8 = alice_state(0.5, beta, 0.5 * math.pi, SYS)
        assert st8.mu_total == pytest.approx(0.5, rel=1e-12)


def test_alice_state_balanced_split():
    # S=1, beta=pi/2: carrier empty, each sideband holds half the photons
    st8 = alice_state(1.0, 0.5 * math.pi, 0.0, SYS)
    assert abs(st8.amplitude(0)) == pytest.approx(0.0, abs=1e-15)
    assert abs(st8.amplitude(1)) == pytest.approx(1.0 / math.sqrt(2), abs=1e-15)
    assert abs(st8.amplitude(-1)) == pytest.approx(1.0 / math.sqrt(2), abs=1e-15)


def test_alice_state_phase_winding():
    sys_t = SystemParams(theta_1=0.4)
    phi_A = 1.5 * math.pi
    st8 = alice_state(1.0, 0.8, phi_A, sys_t)
    base = alice_state(1.0, 0.8, 0.0, sys_t)
    for k in (-1, 0, 1):
        winding = complex(math.cos(phi_A * k), -math.sin(phi_A * k))
        assert st8.amplitude(k) == pytest.approx(base.amplitude(k) * winding, abs=1e-14)


def test_beta_prime_identities():
    assert beta_prime(0.7, 0.7, math.pi) == pytest.approx(0.0, abs=1e-7)
    for dphi in (0.0, 1.0, 2.5):
        assert beta_prime(0.7, 0.0, dphi) == pytest.approx(0.7, abs=1e-12)
    # collinear composition adds angles
    assert beta_prime(0.4, 0.5, 0.0) == pytest.approx(0.9, abs=1e-12)
    assert beta_prime(0.4, 0.5, math.pi) == pytest.approx(0.1, abs=1e-10)


def test_beta_prime_accepts_large_bob_angle():
    # calibration scans push beta_B past pi
    out = beta_prime(0.5, 5.0, 1.0)
    assert 0.0 <= out <= math.pi


def test_beta_prime_domain():
    with pytest.raises(DomainError):
        beta_prime(-0.1, 0.5, 0.0)
    with pytest.raises(DomainError):
        beta_prime(0.5, -0.5, 0.0)


def test_relative_phase_offset_cancels():
    assert relative_phase(math.pi, 0.0) == math.pi
    assert relative_phase(0.5 * math.pi, 0.5 * math.pi) == 0.0


def test_detector_split_energy_conservation():
    t = tun()
    for eta in (1.0, 0.5, 0.05):
        for pa in ALICE_PHASES:
            for pb in BOB_PHASES:
                n1, n2 = detector_photon_numbers(t, SYS, eta, pa, pb)
                assert n1 >= 0.0 and n2 >= 0.0
                assert n1 + n2 == pytest.approx(t.mu_0 * eta * SYS.eta_B, rel=1e-14)


def test_detector_split_blocked_carrier():
    sys_b = SystemParams(theta_carrier=1.0)
    t = TunableParams(mu_0=0.8, beta_A=0.3, delta=1.0, v_0=0.0)
    n1, n2 = detector_photon_numbers(t, sys_b, 0.7, 0.0, 0.0)
    assert n2 == 0.0
    assert n1 == pytest.approx(0.8 * 0.7 * sys_b.eta_B, rel=1e-14)


def test_detector_split_aligned_modulators():
    # beta' = 0 when Bob exactly undoes Alice at dphi = pi
    t = TunableParams(mu_0=1.0, beta_A=0.4, delta=1.0, v_0=0.0)
    n1, n2 = detector_photon_numbers(t, SYS_IDEAL, 1.0, math.pi, 0.0)
    assert n2 == pytest.approx(1.0 * SYS_IDEAL.eta_B, rel=1e-9)
    assert n1 == pytest.approx(0.0, abs=1e-9)


def test_quadrature_mean_vacuum_is_zero():
    t = TunableParams(mu_0=0.0, beta_A=0.3, delta=1.0, v_0=0.0)
    assert quadrature_mean(t, SYS, 0.5, 0.0, 0.0) == 0.0


def test_quadrature_mean_empty_local_oscillator():
    # S=1, beta_A=pi/2 sends no carrier to Bob
    t = TunableParams(mu_0=1.0, beta_A=0.5 * math.pi, delta=0.5, v_0=0.0)
    assert local_oscillator_photons(t, SYS, 1.0) == pytest.approx(0.0, abs=1e-30)
    with pytest.raises(DegenerateError):
        quadrature_mean(t, SYS, 1.0, 0.0, 0.0)


def test_quadrature_mean_closed_form():
    # (n1-n2) s / (2 sqrt(n_LO)) assembled by hand at one parameter point
    t = TunableParams(mu_0=0.6, beta_A=0.35, delta=1.2, v_0=0.0)
    eta = 0.4
    u = interference_contrast(t.beta_A, t.delta, SYS.theta_carrier, SYS.S, 0.0)
    n_lo = 0.6 * eta * math.cos(0.35) ** 2
    expect = 0.6 * eta * SYS.eta_B * u * SYS.s / (2.0 * math.sqrt(n_lo))
    assert quadrature_mean(t, SYS, eta, 0.0, 0.0) == pytest.approx(expect, rel=1e-12)


def test_calibration_closed_form_root():
    # S=1 with a transparent filter: first balanced root sits at delta = pi/(4 beta_A)
    for beta_A in (0.15, 0.3, 0.6, 1.0, 1.4):
        d = calibrate_delta(beta_A, SYS_IDEAL)
        assert d == pytest.approx(math.pi / (4.0 * beta_A), rel=1e-9)


def test_calibration_with_filter_leak():
    # theta_carrier = 1e-6 shifts the root by O(theta)
    d = calibrate_delta(0.3, SYS)
    assert d == pytest.approx(math.pi / 1.2, abs=1e-4)
    u0 = interference_contrast(0.3, d, SYS.theta_carrier, SYS.S, 0.0)
    upi = interference_contrast(0.3, d, SYS.theta_carrier, SYS.S, math.pi)
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
        u0 = interference_contrast(beta_A, d, sys_s.theta_carrier, S, 0.0)
        upi = interference_contrast(beta_A, d, sys_s.theta_carrier, S, math.pi)
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


def test_symbol_mean_detector_convention():
    sys_d = SystemParams(mean_convention="detector")
    t = tun(mu_0=0.4, beta_A=0.3)
    got = symbol_mean(t, sys_d, 0.5, 0.0, 0.0)
    assert got == pytest.approx(quadrature_mean(t, sys_d, 0.5, 0.0, 0.0), rel=1e-14)
    # conventions scale differently with loss but share the sign structure
    assert got > 0.0
    assert symbol_mean(t, sys_d, 0.5, math.pi, 0.0) < 0.0


def test_symbol_mean_vacuum():
    t = TunableParams(mu_0=0.0, beta_A=0.3, delta=1.0, v_0=0.0)
    assert symbol_mean(t, SYS, 0.5, 0.0, 0.0) == 0.0


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


def test_contrast_even_in_phase():
    for dphi in (0.3, 1.1, 2.7):
        a = interference_contrast(0.5, 1.7, 1e-6, 2, dphi)
        b = interference_contrast(0.5, 1.7, 1e-6, 2, -dphi)
        assert a == pytest.approx(b, abs=1e-15)


def test_params_validation():
    with pytest.raises(DomainError):
        SystemParams(eta_B=0.0)
    with pytest.raises(DomainError):
        SystemParams(theta_carrier=1.5)
    with pytest.raises(DomainError):
        SystemParams(N=3)
    with pytest.raises(DomainError):
        SystemParams(mean_convention="other")
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
    with pytest.raises(DomainError):
        detector_photon_numbers(tun(), SYS, 0.0, 0.0, 0.0)


def test_multimode_state_index_guard():
    st8 = alice_state(0.5, 0.3, 0.0, SYS)
    assert isinstance(st8, MultimodeState)
    with pytest.raises(DomainError):
        st8.amplitude(2)


@settings(max_examples=40, deadline=None)
@given(
    mu_0=st.floats(min_value=0.0, max_value=10.0),
    beta_A=st.floats(min_value=0.0, max_value=math.pi),
    delta=st.floats(min_value=0.01, max_value=10.0),
    eta=st.floats(min_value=1e-4, max_value=1.0),
    pa=st.sampled_from(ALICE_PHASES),
    pb=st.sampled_from(BOB_PHASES),
)
def test_property_energy_conservation(mu_0, beta_A, delta, eta, pa, pb):
    t = TunableParams(mu_0=mu_0, beta_A=beta_A, delta=delta, v_0=0.0)
    n1, n2 = detector_photon_numbers(t, SYS, eta, pa, pb)
    assert n1 >= -1e-30 and n2 >= -1e-30
    assert n1 + n2 == pytest.approx(mu_0 * eta * SYS.eta_B, rel=1e-12, abs=1e-300)
