"""Finite-block key length and rate tests."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from scw_cvqkd import finitekey
from scw_cvqkd.errors import DomainError
from scw_cvqkd.finitekey import (
    FiniteKeyLength,
    FiniteKeyParams,
    _increasing_root,
    _syndrome_bits,
    block_threshold,
    ec_syndrome_length,
    finite_key_length,
    finite_key_rate,
    finite_rates,
    smoothing_correction,
)
from scw_cvqkd.noise import ChannelModel, decision_masses
from scw_cvqkd.optics import SystemParams, TunableParams, calibrate_delta
from scw_cvqkd.security import (
    N_BASES,
    asymptotic_key_rate,
    holevo_dr,
    point_block,
    symbol_block,
)

SYS = SystemParams()
CH = ChannelModel(loss_db=3.0, xi=0.1)


def tun(mu_0=0.42, beta_A=0.9, v_0=1.6):
    delta = calibrate_delta(beta_A, SYS)
    return TunableParams(mu_0=mu_0, beta_A=beta_A, delta=delta, v_0=v_0)


def tun_fk():
    # feasible under the default f_EC = 1.15, dQ = 0.01 overheads at 3 dB
    return tun(mu_0=0.3, beta_A=0.9, v_0=1.9)


def test_smoothing_correction_oracle():
    mp.mp.dps = 40
    expect = 4 * mp.log(2 + mp.sqrt(2), 2) * mp.sqrt(mp.log(2 / mp.mpf("1e-10") ** 2, 2))
    assert smoothing_correction(1e-10) == pytest.approx(float(expect), rel=1e-14)


def test_smoothing_correction_monotone():
    assert smoothing_correction(1e-12) > smoothing_correction(1e-8)
    with pytest.raises(DomainError):
        smoothing_correction(0.0)
    with pytest.raises(DomainError):
        smoothing_correction(1.0)


def test_syndrome_length_reference():
    assert ec_syndrome_length(10**6, 0.0, 0.0, 1.0) == 0
    mp.mp.dps = 40
    h11 = -mp.mpf("0.11") * mp.log(mp.mpf("0.11"), 2) - mp.mpf("0.89") * mp.log(
        mp.mpf("0.89"), 2
    )
    assert ec_syndrome_length(10**6, 0.11, 0.0, 1.0) == int(mp.ceil(10**6 * h11))


def test_syndrome_length_near_linearity():
    # exact linearity holds before rounding; ceil costs at most one bit
    n = 123457
    one = ec_syndrome_length(n, 0.07, 0.01, 1.15)
    two = ec_syndrome_length(2 * n, 0.07, 0.01, 1.15)
    assert abs(two - 2 * one) <= 1


def test_syndrome_length_domain():
    with pytest.raises(DomainError):
        ec_syndrome_length(10**6, 0.45, 0.06, 1.0)
    with pytest.raises(DomainError):
        ec_syndrome_length(0, 0.1, 0.0, 1.0)
    with pytest.raises(DomainError):
        ec_syndrome_length(10, 0.1, 0.0, 0.9)


def test_params_derived_quantities():
    fk = FiniteKeyParams(n=10**6)
    assert fk.eps_EC == 2.0**-256
    assert math.log2(1.0 / fk.eps_EC) == 256.0
    assert fk.loss_PA == pytest.approx(math.log2(1e10) - 2.0, rel=1e-15)
    assert fk.eps_QKD == pytest.approx(2e-10, rel=1e-6)


def test_params_validation():
    with pytest.raises(DomainError):
        FiniteKeyParams(n=0)
    with pytest.raises(DomainError):
        FiniteKeyParams(n=100, eps_s=0.0)
    with pytest.raises(DomainError):
        FiniteKeyParams(n=100, f_EC=0.5)
    with pytest.raises(DomainError):
        FiniteKeyParams(n=100, k_sample=100)
    with pytest.raises(DomainError):
        FiniteKeyParams(n=100, dQ=0.5)


def test_key_length_saturated_bound_aborts():
    fk = replace(FiniteKeyParams(n=10**6), Q_est=0.03)
    out = finite_key_length(fk, 1.0)
    assert isinstance(out, FiniteKeyLength)
    assert out.l == 0.0 and out.abort


def test_key_length_large_block_limit():
    # per-bit length approaches 1 - chi - f_EC h(Q + dQ) as n grows
    chi = 0.3
    target = 1.0 - chi - 1.15 * float(
        -(0.04) * math.log2(0.04) - 0.96 * math.log2(0.96)
    )
    fk = replace(FiniteKeyParams(n=10**14), Q_est=0.03)
    out = finite_key_length(fk, chi)
    assert not out.abort
    assert out.l / 10**14 == pytest.approx(target, abs=1e-5)


def test_key_length_small_block_aborts():
    fk = replace(FiniteKeyParams(n=2000), Q_est=0.03)
    out = finite_key_length(fk, 0.3)
    assert out.abort and out.l == 0.0


def test_key_length_needs_error_estimate():
    with pytest.raises(DomainError):
        finite_key_length(FiniteKeyParams(n=10**6), 0.3)


def test_rate_increases_with_block_size():
    rates = []
    for n in (10**8, 10**9, 10**10, 10**12):
        out = finite_key_rate(tun_fk(), SYS, CH, FiniteKeyParams(n=n))
        rates.append(out.rate)
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert rates[0] > 0.0


def test_rate_converges_to_asymptotic():
    # idealized error correction: the pointwise charge matches the
    # asymptotic integrand and only the 1/sqrt(n) margins remain
    t = tun()
    fk = FiniteKeyParams(n=10**14, f_EC=1.0, dQ=0.0)
    finite = finite_key_rate(t, SYS, CH, fk)
    asym = asymptotic_key_rate(t, SYS, CH)
    assert finite.rate > 0.0
    assert abs(finite.rate - asym.rate) / asym.rate < 1e-3


def test_rate_below_asymptotic_with_real_overheads():
    t = tun_fk()
    finite = finite_key_rate(t, SYS, CH, FiniteKeyParams(n=10**10))
    asym = asymptotic_key_rate(t, SYS, CH)
    assert 0.0 < finite.rate < asym.rate


def test_block_mode_reproduces_key_length():
    # constant-bracket rate times time per accepted bit recovers l
    t = tun_fk()
    fk = FiniteKeyParams(n=10**9)
    out = finite_key_rate(t, SYS, CH, fk, ec_mode="block")
    assert out.rate > 0.0
    chi = holevo_dr(t.mu_0, t.beta_A, SYS.S)
    l = finite_key_length(replace(fk, Q_est=out.stats.Q), chi)
    recovered = out.rate * N_BASES * SYS.T * fk.n / out.stats.P
    assert recovered == pytest.approx(l.l, rel=1e-9)


def test_block_mode_keeps_jensen_gap():
    # even with f_EC = 1, dQ = 0 the flat h(Q) charge exceeds the averaged
    # pointwise h(e(v)) charge, so the block rate stays measurably low
    t = tun()
    fk = FiniteKeyParams(n=10**14, f_EC=1.0, dQ=0.0)
    block = finite_key_rate(t, SYS, CH, fk, ec_mode="block")
    pointwise = finite_key_rate(t, SYS, CH, fk)
    assert block.rate < pointwise.rate * 0.999


def test_rate_small_block_aborts():
    out = finite_key_rate(tun(), SYS, CH, FiniteKeyParams(n=1000))
    assert out.abort and out.rate == 0.0


def test_rate_huge_threshold_aborts():
    out = finite_key_rate(tun(v_0=60.0), SYS, CH, FiniteKeyParams(n=10**10))
    assert out.abort and out.rate == 0.0
    assert out.stats is None


def test_rate_parameter_estimation_cost():
    t = tun_fk()
    free = finite_key_rate(t, SYS, CH, FiniteKeyParams(n=10**8))
    paid = finite_key_rate(t, SYS, CH, FiniteKeyParams(n=10**8, k_sample=10**7))
    assert paid.rate < free.rate


@pytest.mark.parametrize("ec_mode", ["pointwise", "block"])
def test_rate_charges_tunable_k_sample(ec_mode):
    # a positive TunableParams.k_sample is charged in place of the
    # FiniteKeyParams one, to the last bit
    k, n = 10**6, 10**8
    with_tun = finite_key_rate(
        replace(tun_fk(), k_sample=k), SYS, CH, FiniteKeyParams(n=n), ec_mode
    )
    with_fk = finite_key_rate(
        tun_fk(), SYS, CH, FiniteKeyParams(n=n, k_sample=k), ec_mode
    )
    free = finite_key_rate(tun_fk(), SYS, CH, FiniteKeyParams(n=n), ec_mode)
    assert with_tun == with_fk
    assert 0.0 < with_tun.rate < free.rate


@pytest.mark.parametrize("k", [10**8, 10**8 + 1])
def test_rate_rejects_tunable_k_sample_past_block(k):
    with pytest.raises(DomainError, match="k_sample"):
        finite_key_rate(
            replace(tun_fk(), k_sample=k), SYS, CH, FiniteKeyParams(n=10**8)
        )


def test_rate_rejects_bad_mode():
    with pytest.raises(DomainError):
        finite_key_rate(tun(), SYS, CH, FiniteKeyParams(n=10**8), ec_mode="magic")
    # the kernel's rates check the mode too, rather than charging pointwise
    block = point_block(tun(), SYS, CH)
    with pytest.raises(DomainError, match="ec_mode"):
        finite_rates(block, FiniteKeyParams(n=10**8), "blok", np.full(1, 1e8))


def test_increasing_root_brackets_and_faces():
    # roots inside, below and above the box [0, 1]: the last two end
    # exactly on the face they lie past; the arctan row's plain Newton
    # steps from 0 would diverge, so its bracket has to catch them
    roots = np.array([0.3, -0.5, 1.7, 0.6])

    def fn(v, rows):
        d = v - roots[rows]
        steep = rows == 3
        value = np.where(steep, np.arctan(50.0 * d), d * (1.0 + d * d))
        slope = np.where(steep, 50.0 / (1.0 + 2500.0 * d * d), 1.0 + 3.0 * d * d)
        return value, slope

    x = _increasing_root(fn, 0.0, 1.0, np.zeros(4))
    assert x[1] == 0.0 and x[2] == 1.0
    assert x[[0, 3]] == pytest.approx([0.3, 0.6], abs=1e-12)


def _ridge_symbols():
    """Symbol block of 24 S=1 points at 3 dB on the ridge's top angle,
    m = mu_0 sin^2(beta_A) from 0.025 to 0.25 around the block optimum."""
    m = np.logspace(-1.6, -0.6, 24)
    beta = np.full(m.size, 1.45)
    delta = np.full(m.size, calibrate_delta(1.45, SYS))
    return symbol_block(m / np.sin(beta) ** 2, beta, delta, CH.eta, CH.xi, SYS)


def test_block_threshold_opens_its_syndrome_step():
    # on S=1 rows at 3 dB with a positive block rate, the threshold is the
    # left end of a step of ceil(n f_EC h(Q + dQ)): 1e-10 sigma lower the
    # syndrome takes one more bit, and no rate on a fine scan around it,
    # within the step or past it, beats its own
    fk = FiniteKeyParams(n=10**8)
    symbols = _ridge_symbols()
    sigma = CH.sigma
    n = np.full(symbols.chi.size, float(fk.n))
    v = block_threshold(symbols, fk, 0.0, 6.0 * sigma, n)
    rates = finite_rates(symbols.at(v), fk, "block", n)
    assert np.count_nonzero(rates > 0.0) >= 12

    def syndrome(at):
        E, P = decision_masses(at, symbols.mean_plus, symbols.mean_minus, sigma)
        return _syndrome_bits(fk.n, E / P + fk.dQ, fk.f_EC)

    live = rates > 0.0
    assert np.all(syndrome(v - 1e-10 * sigma)[live] == syndrome(v)[live] + 1.0)
    for offset in np.linspace(-1e-4, 1e-4, 41) * sigma:
        scan = finite_rates(symbols.at(v + offset), fk, "block", n)
        assert np.all(scan[live] <= rates[live] * (1.0 + 1e-12))


def test_block_threshold_checks_the_step_it_lands_on(monkeypatch):
    # aimed 1e-9 outside its step, the Newton stage lands where the
    # syndrome takes one more bit; the check then keeps the relaxation's
    # peak, the threshold the stage starts from (no Newton steps at all)
    fk = FiniteKeyParams(n=10**8)
    symbols = _ridge_symbols()
    v_hi = 6.0 * CH.sigma
    monkeypatch.setattr(finitekey, "_STEP_NEWTON", 0)
    n = np.full(symbols.chi.size, float(fk.n))
    peak = block_threshold(symbols, fk, 0.0, v_hi, n)
    monkeypatch.setattr(finitekey, "_STEP_NEWTON", 2)
    monkeypatch.setattr(finitekey, "_STEP_MARGIN", -1e-9)
    assert np.array_equal(block_threshold(symbols, fk, 0.0, v_hi, n), peak)
