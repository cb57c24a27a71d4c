"""Rotation-weight tests against an independent extended-precision oracle."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scw_cvqkd.angular import (
    DRow,
    _row_by_recurrence,
    _row_by_sum,
    carrier_weight,
    first_sideband_weight,
    legendre_p,
    wigner_d_row,
)
from scw_cvqkd.errors import DomainError

mp.mp.dps = 50


def oracle_row(S, beta):
    """Factorial-sum row at 50 significant digits, independent of the package."""
    beta = mp.mpf(beta)
    c = mp.cos(beta / 2)
    s = mp.sin(beta / 2)
    out = []
    for k in range(-S, S + 1):
        pref = mp.sqrt(mp.factorial(S) ** 2 * mp.factorial(S + k) * mp.factorial(S - k))
        acc = mp.mpf(0)
        for t in range(max(0, k), min(S, S + k) + 1):
            denom = (
                mp.factorial(S + k - t)
                * mp.factorial(t)
                * mp.factorial(t - k)
                * mp.factorial(S - t)
            )
            term = c ** (2 * S + k - 2 * t) * s ** (2 * t - k) / denom
            acc += -term if (t - k) % 2 else term
        out.append(float(pref * acc))
    return np.array(out)


# Oracle output at S=5, beta=1.234, frozen from a 60-digit evaluation.
FROZEN_S5_B1234 = {
    -5: -0.37152843005007423715,
    -4: 0.41136686965050835547,
    -3: 0.0053268576345210408658,
    -2: -0.35853846380695576851,
    -1: 0.089965617061521447493,
    0: 0.33487880352120901781,
    1: -0.089965617061521447493,
    2: -0.35853846380695576851,
    3: -0.0053268576345210408658,
    4: 0.41136686965050835547,
    5: 0.37152843005007423715,
}


def test_frozen_row_s5():
    row = wigner_d_row(5, 1.234)
    for k, expect in FROZEN_S5_B1234.items():
        assert row[k] == pytest.approx(expect, abs=1e-14)


def test_spin_one_closed_form():
    # (-sin/sqrt2, cos, +sin/sqrt2) to machine precision
    for beta in np.linspace(0.0, math.pi, 37):
        row = wigner_d_row(1, beta)
        assert row[-1] == pytest.approx(-math.sin(beta) / math.sqrt(2), abs=5e-16)
        assert row[0] == pytest.approx(math.cos(beta), abs=5e-16)
        assert row[1] == pytest.approx(math.sin(beta) / math.sqrt(2), abs=5e-16)


def test_unitarity_and_antisymmetry_grid():
    rng = np.random.default_rng(7)
    angles = rng.uniform(0.0, math.pi, 100)
    for S in range(0, 21):
        for beta in angles:
            row = wigner_d_row(S, beta)
            assert abs(row.norm_sq - 1.0) < 1e-10
            for k in range(1, S + 1):
                assert abs(row[k] - (-1.0) ** k * row[-k]) < 1e-10


def test_matches_oracle_small_spin():
    rng = np.random.default_rng(11)
    for S in (0, 1, 2, 3, 5, 8, 10):
        for beta in rng.uniform(1e-4, math.pi - 1e-4, 12):
            got = wigner_d_row(S, beta).values
            np.testing.assert_allclose(got, oracle_row(S, beta), atol=1e-13)


def test_matches_oracle_large_spin():
    # recurrence route; the oracle sum is exact at any precision
    rng = np.random.default_rng(13)
    for S in (11, 15, 20, 25, 40):
        for beta in rng.uniform(1e-3, math.pi - 1e-3, 6):
            got = wigner_d_row(S, beta).values
            np.testing.assert_allclose(got, oracle_row(S, beta), atol=1e-12)


def test_sum_and_recurrence_agree():
    rng = np.random.default_rng(17)
    for S in range(1, 11):
        for beta in rng.uniform(1e-3, math.pi - 1e-3, 8):
            np.testing.assert_allclose(
                _row_by_sum(S, beta), _row_by_recurrence(S, beta), atol=1e-12
            )


def test_endpoint_rows_are_exact():
    for S in range(0, 12):
        at0 = wigner_d_row(S, 0.0).values
        expect0 = np.zeros(2 * S + 1)
        expect0[S] = 1.0
        np.testing.assert_array_equal(at0, expect0)

        atpi = wigner_d_row(S, math.pi).values
        expectpi = np.zeros(2 * S + 1)
        expectpi[S] = (-1.0) ** S
        np.testing.assert_array_equal(atpi, expectpi)


def test_carrier_weight_matches_row_inside_domain():
    rng = np.random.default_rng(19)
    for S in (0, 1, 2, 4, 7, 12, 20):
        for beta in rng.uniform(0.0, math.pi, 10):
            assert carrier_weight(S, beta) == pytest.approx(
                wigner_d_row(S, beta)[0], abs=1e-12
            )


def test_vector_weights_match_scalar_routes():
    # the array forms used by the rate kernel, element by element
    rng = np.random.default_rng(23)
    for S in (1, 2, 4, 7, 12, 20):
        betas = np.concatenate([rng.uniform(0.0, math.pi, 10), [0.0, math.pi]])
        carrier = legendre_p(S, np.cos(betas))
        sideband = first_sideband_weight(S, betas)
        for i, beta in enumerate(betas):
            scalar = carrier_weight(S, float(beta))
            assert carrier[i] == pytest.approx(scalar, abs=1e-15)
            assert sideband[i] == pytest.approx(
                abs(oracle_row(S, float(beta))[S + 1]), abs=1e-13
            )


def test_carrier_weight_extended_domain():
    # P_S(cos beta) continues past pi; frozen from mpmath.legendre
    assert carrier_weight(5, 2 * 1.234) == pytest.approx(
        0.41537775199603328202, abs=1e-14
    )
    assert carrier_weight(7, 2.8) == pytest.approx(0.080387174993026721569, abs=1e-14)
    for S in (1, 3, 6, 9):
        for beta in (3.5, 4.7, 6.0, -0.8):
            expect = float(mp.legendre(S, mp.cos(mp.mpf(beta))))
            assert carrier_weight(S, beta) == pytest.approx(expect, abs=1e-13)


def test_domain_errors():
    with pytest.raises(DomainError):
        wigner_d_row(-1, 0.5)
    with pytest.raises(DomainError):
        wigner_d_row(2, -0.5)
    with pytest.raises(DomainError):
        wigner_d_row(2, 3.5)
    with pytest.raises(DomainError):
        wigner_d_row(2, float("nan"))
    with pytest.raises(DomainError):
        wigner_d_row(1, 0.5).value(2)
    with pytest.raises(DomainError):
        carrier_weight(3, float("inf"))


def test_row_container():
    row = wigner_d_row(2, 0.9)
    assert isinstance(row, DRow)
    assert row.S == 2
    assert row.beta == 0.9
    assert row.values.shape == (5,)
    assert row[0] == row.value(0)


@settings(max_examples=60, deadline=None)
@given(
    S=st.integers(min_value=0, max_value=30),
    beta=st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
)
def test_property_row_invariants(S, beta):
    row = wigner_d_row(S, beta)
    assert abs(row.norm_sq - 1.0) < 1e-10
    np.testing.assert_allclose(row.values, oracle_row(S, beta), atol=1e-11)
