"""Density, error-profile and post-selection statistics tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit, ndtr

from scw_cvqkd.errors import DomainError, EmptyAcceptanceError
from scw_cvqkd.noise import (
    V_VAC,
    ChannelModel,
    decision_masses,
    decision_stats,
    erasure_error_profiles,
    noise_sigma,
    quadrature_pdf,
)


def test_channel_model():
    ch = ChannelModel(loss_db=3.0, xi=0.1)
    assert ch.eta == pytest.approx(10.0 ** -0.3, rel=1e-15)
    assert ch.sigma == pytest.approx(math.sqrt(1.1 / 4.0), rel=1e-15)
    assert ChannelModel(loss_db=0.0).eta == 1.0
    assert V_VAC == 0.25
    with pytest.raises(DomainError):
        ChannelModel(loss_db=-1.0)
    with pytest.raises(DomainError):
        ChannelModel(loss_db=3.0, xi=-0.1)


def test_pdf_normalization_and_peak():
    for mean_v, xi in ((0.0, 0.0), (0.7, 0.3), (-1.2, 1.0)):
        total = quad(quadrature_pdf, -30, 30, args=(mean_v, xi))[0]
        assert total == pytest.approx(1.0, abs=1e-12)
        peak = math.sqrt(2.0 / (math.pi * (1.0 + xi)))
        assert quadrature_pdf(mean_v, mean_v, xi) == pytest.approx(peak, rel=1e-15)


def test_pdf_variance_matches_vacuum_constant():
    var = quad(lambda v: v * v * quadrature_pdf(v, 0.0, 0.0), -30, 30)[0]
    assert var == pytest.approx(V_VAC, abs=1e-12)
    var_xi = quad(lambda v: v * v * quadrature_pdf(v, 0.0, 0.4), -30, 30)[0]
    assert var_xi == pytest.approx(1.4 / 4.0, abs=1e-12)


def test_pdf_vectorized():
    v = np.linspace(-2, 2, 11)
    out = quadrature_pdf(v, 0.3, 0.2)
    assert out.shape == v.shape
    assert out[5] == pytest.approx(quadrature_pdf(float(v[5]), 0.3, 0.2))


def test_error_profile_midpoint():
    _, e = erasure_error_profiles(0.0, 0.5, -0.5, 0.2)
    assert e == 0.5


def test_error_profile_frozen_point():
    # v = mean_plus = 0.5, mean_minus = -0.5, xi = 0: log-likelihood gap is 2
    _, e = erasure_error_profiles(0.5, 0.5, -0.5, 0.0)
    assert e == pytest.approx(0.11920292202211755, abs=1e-16)


def test_error_profile_limits_without_nan():
    one_minus_g, e = erasure_error_profiles(60.0, 0.5, -0.5, 0.0)
    assert e < 1e-100
    assert one_minus_g == 0.0
    _, e_neg = erasure_error_profiles(-60.0, 0.5, -0.5, 0.0)
    assert e_neg < 1e-100
    v = np.linspace(-80, 80, 401)
    og, ee = erasure_error_profiles(v, 0.5, -0.5, 0.1)
    assert np.all(np.isfinite(og)) and np.all(np.isfinite(ee))


def test_error_profile_matches_expit_oracle():
    # the log-likelihood ratio -8 m |v| / (1 + xi) reaches -800 (m = 2) and
    # +800 (m = -2) at |v| = 50; no overflow warning may escape
    xi = 0.0

    def log_pdf(v, mean):
        return 0.5 * math.log(2.0 / (math.pi * (1.0 + xi))) - 2.0 * (v - mean) ** 2 / (
            1.0 + xi
        )

    v = np.linspace(-50.0, 50.0, 2001)
    for m in (2.0, -2.0, 0.37):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, e = erasure_error_profiles(v, m, -m, xi)
        ratio = log_pdf(v, -m) - log_pdf(v, m)
        expect = np.where(v == 0.0, 0.5, expit(np.where(v >= 0.0, ratio, -ratio)))
        # below 1e-300 the logistic may flush to 0 where expit is subnormal
        np.testing.assert_allclose(e, expect, rtol=1e-15, atol=1e-300)


def test_error_profile_equal_means_is_coin_flip():
    v = np.linspace(-3, 3, 13)
    _, e = erasure_error_profiles(v, 0.0, 0.0, 0.3)
    np.testing.assert_allclose(e, 0.5, atol=1e-15)


def test_error_profile_density_sum():
    # 1 - g is the prior-weighted outcome density
    for v in (-1.0, 0.2, 1.7):
        og, _ = erasure_error_profiles(v, 0.6, -0.6, 0.25)
        expect = 0.5 * (
            quadrature_pdf(v, 0.6, 0.25) + quadrature_pdf(v, -0.6, 0.25)
        )
        assert og == pytest.approx(expect, rel=1e-14)


def test_decision_stats_equal_means_coin_flip():
    stats = decision_stats(0.0, 0.0, 0.0, 0.2)
    assert stats.Q == pytest.approx(0.5, abs=1e-15)
    assert stats.P == pytest.approx(1.0, abs=1e-12)


def test_decision_stats_gaussian_tail_oracle():
    # v_0 = 0: P = 1 and Q equals the single-tail mass sf(m / sigma)
    m, xi = 0.4, 0.0
    stats = decision_stats(0.0, m, -m, xi)
    assert stats.P == pytest.approx(1.0, abs=1e-14)
    expect_q = 0.5 * math.erfc(m / (noise_sigma(xi) * math.sqrt(2.0)))
    assert stats.Q == pytest.approx(expect_q, rel=1e-12)


def _masses_by_ndtr(v_0, mean_plus, mean_minus, xi):
    sigma = noise_sigma(xi)
    plus_up, plus_down, minus_up, minus_down = (
        ndtr(edge / sigma)
        for edge in (mean_plus - v_0, -v_0 - mean_plus, mean_minus - v_0, -v_0 - mean_minus)
    )
    return 0.5 * (plus_down + minus_up), 0.5 * (plus_up + plus_down + minus_up + minus_down)


def test_decision_masses_match_ndtr_oracle():
    # at v_0 = 14.5 sigma the edges of mean_plus = (z + 14.5) sigma are z and
    # -29 - z in sigma units, so all four sweep -38 to +9 sigma
    xi = 0.1
    sigma = noise_sigma(xi)
    z = np.linspace(-38.0, 9.0, 4701)
    v_0 = np.full(z.size, 14.5 * sigma)
    mean_plus, mean_minus = (z + 14.5) * sigma, (z[::-1] + 14.5) * sigma
    got = decision_masses(v_0, mean_plus, mean_minus, sigma)
    expect = _masses_by_ndtr(v_0, mean_plus, mean_minus, xi)
    for mass, ref in zip(got, expect):
        kept = ref > 1e-300
        assert kept.sum() > 0.9 * z.size
        np.testing.assert_allclose(mass[kept], ref[kept], rtol=1e-13, atol=0.0)


def test_decision_stats_sampling_oracle():
    rng = np.random.default_rng(42)
    m, xi, v_0 = 0.35, 0.15, 0.3
    n = 10**6
    sigma = noise_sigma(xi)
    sent = rng.integers(0, 2, n)
    v = np.where(sent == 0, m, -m) + sigma * rng.standard_normal(n)
    accepted = np.abs(v) >= v_0
    wrong = accepted & ((v > 0) != (sent == 0)) & (v != 0)
    p_hat = accepted.mean()
    q_hat = wrong.sum() / accepted.sum()
    stats = decision_stats(v_0, m, -m, xi)
    assert p_hat == pytest.approx(stats.P, abs=4 * math.sqrt(stats.P / n))
    q_sigma = math.sqrt(stats.Q * (1 - stats.Q) / accepted.sum())
    assert q_hat == pytest.approx(stats.Q, abs=4 * q_sigma)


def test_decision_stats_monotone_in_threshold():
    m, xi = 0.5, 0.2
    thresholds = np.linspace(0.0, 3.0, 50)
    out = [decision_stats(float(t), m, -m, xi) for t in thresholds]
    for a, b in zip(out, out[1:]):
        assert b.P <= a.P + 1e-15
        assert b.Q <= a.Q + 1e-15


def test_decision_stats_monotone_in_noise():
    m, v_0 = 0.5, 0.4
    qs = [decision_stats(v_0, m, -m, xi).Q for xi in (0.0, 0.1, 0.3, 0.8)]
    assert all(a <= b + 1e-15 for a, b in zip(qs, qs[1:]))


def test_decision_stats_empty_acceptance():
    with pytest.raises(EmptyAcceptanceError):
        decision_stats(50.0, 0.5, -0.5, 0.0)


def test_decision_stats_closed_form_vs_quadrature():
    rng = np.random.default_rng(101)
    for _ in range(25):
        m = rng.uniform(0.05, 1.5)
        xi = rng.uniform(0.0, 1.0)
        v_0 = rng.uniform(0.0, 2.5)
        a = decision_stats(v_0, m, -m, xi)
        b = decision_stats(v_0, m, -m, xi, method="quadrature")
        assert abs(a.P - b.P) < 1e-9
        assert abs(a.E - b.E) < 1e-9


def test_decision_stats_asymmetric_means():
    # deliberately uncalibrated means still book E and P consistently
    stats = decision_stats(0.2, 0.8, -0.3, 0.1)
    sigma = noise_sigma(0.1)

    def sf(x):
        return 0.5 * math.erfc(x / math.sqrt(2.0))

    p_expect = 0.5 * (
        sf((0.2 - 0.8) / sigma)
        + sf((0.2 + 0.8) / sigma)
        + sf((0.2 - (-0.3)) / sigma)
        + sf((0.2 + (-0.3)) / sigma)
    )
    e_expect = 0.5 * (sf((0.2 + 0.8) / sigma) + sf((0.2 + 0.3) / sigma))
    assert stats.P == pytest.approx(p_expect, rel=1e-12)
    assert stats.E == pytest.approx(e_expect, rel=1e-12)


def test_decision_stats_domain():
    with pytest.raises(DomainError):
        decision_stats(-0.1, 0.5, -0.5, 0.0)
    with pytest.raises(DomainError):
        decision_stats(0.1, 0.5, -0.5, -0.2)
    with pytest.raises(DomainError):
        decision_stats(0.1, 0.5, -0.5, 0.0, method="mystery")
    with pytest.raises(DomainError):
        noise_sigma(-1.0)


@settings(max_examples=60, deadline=None)
@given(
    m=st.floats(min_value=0.0, max_value=2.0),
    xi=st.floats(min_value=0.0, max_value=2.0),
    v_0=st.floats(min_value=0.0, max_value=4.0),
)
def test_property_stats_bounds(m, xi, v_0):
    try:
        stats = decision_stats(v_0, m, -m, xi)
    except EmptyAcceptanceError:
        return
    assert 0.0 <= stats.E <= stats.P <= 1.0 + 1e-12
    assert 0.0 <= stats.Q <= 0.5 + 1e-12
