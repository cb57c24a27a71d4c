"""Information-bound and asymptotic key-rate tests."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import xlogy

from scw_cvqkd import search, security
from scw_cvqkd.angular import carrier_weight, wigner_d_row
from scw_cvqkd.errors import DomainError, ScwError
from scw_cvqkd.finitekey import (
    FiniteKeyParams,
    finite_key_rate,
    finite_rates,
    pointwise_threshold,
    smoothing_correction,
)
from scw_cvqkd.noise import ChannelModel, decision_stats, erasure_error_profiles
from scw_cvqkd.optics import (
    SystemParams,
    TunableParams,
    calibrate_delta,
    matched_means,
)
from scw_cvqkd.security import (
    N_BASES,
    KeyRateResult,
    asymptotic_key_rate,
    asymptotic_rates,
    binary_entropy,
    binary_entropy_inverse,
    holevo_dr,
    integration_ceiling,
    rate_block,
    security_quantities,
    state_overlap,
)

SYS = SystemParams()


def tun(mu_0=0.42, beta_A=0.9, v_0=1.6, delta=None):
    # near the 3 dB optimum: sideband photon number ~0.26, threshold ~3 sigma
    if delta is None:
        delta = calibrate_delta(beta_A, SYS)
    return TunableParams(mu_0=mu_0, beta_A=beta_A, delta=delta, v_0=v_0)


def test_binary_entropy_reference_points():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(
        -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89), rel=1e-15
    )


def test_binary_entropy_matches_xlogy_oracle():
    p = np.array([0.0, 1.0, 1e-300, 0.5, 1.0 - 1e-16])
    expect = -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / math.log(2.0)
    np.testing.assert_allclose(binary_entropy(p), expect, rtol=1e-15, atol=0.0)
    for x, h in zip(p, expect):
        assert binary_entropy(float(x)) == pytest.approx(h, rel=1e-15, abs=0.0)


def test_binary_entropy_symmetry_and_vector():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 100)
    np.testing.assert_allclose(binary_entropy(x), binary_entropy(1.0 - x), atol=1e-14)
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


def test_binary_entropy_inverse_round_trip():
    # h(h^-1(y)) = y over [0, 1], down to subnormal y and up to the last
    # doubles below 1, where h'(1/2) = 0 makes the inverse ill-conditioned
    y = np.concatenate([
        np.linspace(0.0, 1.0, 10001),
        np.logspace(-320.0, 0.0, 3000),
        1.0 - np.logspace(-17.0, 0.0, 3000),
        [5e-324, 1.0 - 2.0**-53, 1.0 - 2.0**-52],
    ])
    p = binary_entropy_inverse(y)
    assert np.all((0.0 <= p) & (p <= 0.5))
    assert np.max(np.abs(binary_entropy(p) - y)) <= 1e-14
    assert binary_entropy_inverse(0.0) == 0.0
    assert binary_entropy_inverse(1.0) == pytest.approx(0.5, abs=1e-15)
    # small p keeps its relative precision
    for q in (1e-3, 1e-9, 1e-100):
        assert binary_entropy_inverse(binary_entropy(q)) == pytest.approx(q, rel=1e-13)
    # out-of-range targets are clipped to [0, 1]
    assert binary_entropy_inverse(np.array([-0.5, 1.5])).tolist() == [
        0.0, float(binary_entropy_inverse(1.0))
    ]


def test_overlap_trivial_limits():
    assert state_overlap(0.0, 0.7, 1) == 1.0
    assert state_overlap(2.0, 0.0, 1) == 1.0
    assert state_overlap(1.0, 0.25 * math.pi, 1) == pytest.approx(
        math.exp(-1.0), rel=1e-14
    )


def test_overlap_matches_amplitude_oracle():
    # |<a|b>| = exp(-sum |a_k - b_k|^2 / 2) for product coherent states; mode
    # k of Alice's state carries sqrt(mu_0) d^S_{0k}(beta_A) e^{-i phi_A k},
    # and the two symbols of a basis differ by phi_A = pi
    rng = np.random.default_rng(5)
    for S in (1, 2, 3, 5):
        k = np.arange(-S, S + 1)
        for _ in range(6):
            mu_0 = rng.uniform(0.0, 3.0)
            beta_A = rng.uniform(0.0, math.pi)
            a = math.sqrt(mu_0) * wigner_d_row(S, beta_A).values
            b = a * np.exp(-1j * math.pi * k)
            oracle = math.exp(-0.5 * float(np.sum(np.abs(a - b) ** 2)))
            assert state_overlap(mu_0, beta_A, S) == pytest.approx(oracle, rel=1e-12)


def test_alternating_sum_identity():
    # sum_k (-1)^k d_{0k}(beta)^2 = d_{00}(2 beta), the engine of the overlap
    rng = np.random.default_rng(9)
    for S in (1, 2, 5, 10, 20):
        for beta in rng.uniform(0.0, math.pi, 8):
            row = wigner_d_row(S, beta)
            signs = (-1.0) ** np.arange(-S, S + 1)
            alt = float(np.dot(signs, row.values**2))
            assert alt == pytest.approx(carrier_weight(S, 2.0 * beta), abs=1e-12)


def test_security_quantities_structure():
    q = security_quantities(0.4, 0.6, 1)
    assert q.lambda_1 + q.lambda_2 == pytest.approx(1.0, abs=1e-15)
    assert 0.0 <= q.lambda_2 <= q.lambda_1 <= 1.0
    assert q.chi_dr == pytest.approx(binary_entropy(q.lambda_2), rel=1e-15)


def test_holevo_limits_and_monotonicity():
    assert holevo_dr(0.0, 0.7, 1) == 0.0
    assert holevo_dr(500.0, 1.0, 1) == pytest.approx(1.0, abs=1e-12)
    assert holevo_dr(0.1, 0.7, 1) < holevo_dr(0.5, 0.7, 1)


def test_rate_positive_at_moderate_loss():
    ch = ChannelModel(loss_db=3.0, xi=0.1)
    out = asymptotic_key_rate(tun(), SYS, ch)
    assert isinstance(out, KeyRateResult)
    assert out.rate > 0.0
    assert not out.insecure
    assert out.stats.Q < 0.5


ORACLE_MODES = ("asymptotic", "pointwise", "block")
# (loss_db, xi, mu_0, beta_A, v_0, modes): finite-key optima at n = 1e12,
# where the asymptotic and both finite rates are positive, and the
# asymptotic optimum at the cutoff, where v_0 sits on its 6-sigma face, the
# rate is about 4e-6 b/s and no finite rate at n = 1e12 is positive
ORACLE_POINTS = [
    (0.5, 0.0, 0.204, 1.448, 1.278, ORACLE_MODES),
    (2.0, 0.1, 0.206, 1.443, 1.67, ORACLE_MODES),
    (3.0, 0.2, 0.207, 1.428, 2.044, ORACLE_MODES),
    (9.0, 0.1, 0.19827431923, 1.45, 3.1464265445, ("asymptotic",)),
]
ORACLE_FK = FiniteKeyParams(n=10**12)


def _quadrature_rate(t, ch, mode):
    """Rate by an independent route: scalar means, chi from holevo_dr, P and
    E by adaptive quadrature, and the rate integral by adaptive quadrature."""
    mean_plus, mean_minus = matched_means(t, SYS, ch.eta)
    stats = decision_stats(t.v_0, mean_plus, mean_minus, ch.xi, method="quadrature")
    chi = holevo_dr(t.mu_0, t.beta_A, SYS.S)
    fk = ORACLE_FK
    fixed = (
        chi
        + smoothing_correction(fk.eps_s) / math.sqrt(fk.n)
        + (fk.k_sample + fk.check_EC + fk.loss_PA) / fk.n
    )

    def fraction(e):
        if mode == "asymptotic":
            return 1.0 - binary_entropy(e) - chi
        if mode == "pointwise":
            return 1.0 - fixed - fk.f_EC * binary_entropy(min(e + fk.dQ, 0.5))
        code_ec = math.ceil(fk.n * fk.f_EC * binary_entropy(stats.Q + fk.dQ))
        return 1.0 - fixed - code_ec / fk.n

    def integrand(v):
        og, e = erasure_error_profiles(v, mean_plus, mean_minus, ch.xi)
        return og * fraction(e)

    hi = integration_ceiling(mean_plus, mean_minus, ch.xi)
    # near the cutoff the secret fraction is a small difference of order-one
    # terms and quad reports roundoff short of epsrel; accept only that
    # warning, and only while quad's own error estimate stays far inside
    # the 1e-9 bound
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        raw, err = quad(integrand, t.v_0, hi, epsabs=0.0, epsrel=1e-13, limit=300)
    for w in caught:
        assert issubclass(w.category, IntegrationWarning), w
        assert "roundoff" in str(w.message), w
        assert err <= 1e-11 * abs(raw)
    return 2.0 / (N_BASES * SYS.T) * raw, stats


@pytest.mark.parametrize(
    ("point", "mode"),
    [
        pytest.param(point[:5], mode, id=f"point{i}-{mode}")
        for i, point in enumerate(ORACLE_POINTS)
        for mode in point[5]
    ],
)
def test_rate_kernel_matches_quadrature_oracle(point, mode):
    loss_db, xi, mu_0, beta_A, v_0 = point
    ch = ChannelModel(loss_db=loss_db, xi=xi)
    t = tun(mu_0=mu_0, beta_A=beta_A, v_0=v_0)
    if mode == "asymptotic":
        out = asymptotic_key_rate(t, SYS, ch)
    else:
        out = finite_key_rate(t, SYS, ch, ORACLE_FK, ec_mode=mode)
    ref, stats = _quadrature_rate(t, ch, mode)
    assert ref > 0.0
    assert out.rate == pytest.approx(ref, rel=1e-9)
    assert out.stats.P == pytest.approx(stats.P, rel=1e-9)
    assert out.stats.E == pytest.approx(stats.E, rel=1e-9)


def _fixed_threshold_rates(points, ch, sys_s, fk):
    """Rates on rows of (log10 mu_0, beta_A, v_0/sigma) through ``rate_block``;
    rows whose angle has no calibration root are left out."""
    deltas = {}
    for beta in dict.fromkeys(points[:, 1].tolist()):
        try:
            deltas[beta] = calibrate_delta(beta, sys_s)
        except ScwError:
            pass
    rows = points[np.isin(points[:, 1], list(deltas))]
    delta = np.array([deltas[beta] for beta in rows[:, 1].tolist()])
    block = rate_block(
        10.0 ** rows[:, 0], rows[:, 1], delta, rows[:, 2] * ch.sigma, sys_s, ch
    )
    return asymptotic_rates(block) if fk is None else finite_rates(block, fk)


@pytest.mark.parametrize("S", [1, 3])
def test_rate_kernel_converged_in_order(S, monkeypatch):
    # the fixed Gauss-Legendre rule against one of twice its order, on the
    # 12 x 8 x 9 grid of (log10 mu_0, beta_A, v_0/sigma), which spans the
    # search's m range at S=1, from low loss to past the cutoff; both sit on
    # the ~3e-11 rounding floor once the rule has converged
    order = security._GL_ORDER
    sys_s = SystemParams(S=S)
    bounds = search.Bounds()
    box = zip(
        (math.log10(bounds.mu_0[0]), bounds.beta_A[0], bounds.v_0_sigmas[0]),
        (math.log10(bounds.mu_0[1]), bounds.beta_A[1], bounds.v_0_sigmas[1]),
        search._GRID_SHAPE,
    )
    points = search._grid_points([np.linspace(lo, hi, size) for lo, hi, size in box])
    compared = 0
    for loss_db in (0.5, 3.0, 6.0, 8.5, 9.5):
        for xi in (0.0, 0.1, 0.2):
            ch = ChannelModel(loss_db=loss_db, xi=xi)
            for fk in (None, FiniteKeyParams(n=10**8)):
                rates = []
                for n_nodes in (order, 2 * order):
                    monkeypatch.setattr(security, "_GL_ORDER", n_nodes)
                    rates.append(_fixed_threshold_rates(points, ch, sys_s, fk))
                low, ref = rates
                judged = ref > 1e-3 * ref.max()
                np.testing.assert_allclose(
                    low[judged], ref[judged], rtol=1e-10, atol=0.0
                )
                compared += np.count_nonzero(judged)
    # about 2,000 grid points are judged at S=1 and 1,100 at S=3
    assert compared > 1000


def test_gl_nodes_equal_leggauss():
    # the rule is formed without numpy.polynomial, by the same arithmetic,
    # so the nodes, the weights and every rate stay bit-identical
    from numpy.polynomial.legendre import leggauss

    for order in (security._GL_ORDER, 2 * security._GL_ORDER):
        x, w = security._gl_nodes(order)
        x_ref, w_ref = leggauss(order)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref), order


def test_rate_block_equals_single_points():
    # one N-point block against N separate N=1 calls, feasible and not
    rng = np.random.default_rng(11)
    ch = ChannelModel(loss_db=2.0, xi=0.1)
    beta_A = 1.1
    delta = calibrate_delta(beta_A, SYS)
    mu_0 = 10.0 ** rng.uniform(-3.0, 1.0, 40)
    v_0 = rng.uniform(0.0, 6.0, 40) * ch.sigma
    block = rate_block(mu_0, np.full(40, beta_A), np.full(40, delta), v_0, SYS, ch)
    rates = {
        "asymptotic": asymptotic_rates(block),
        "pointwise": finite_rates(block, ORACLE_FK, "pointwise"),
        "block": finite_rates(block, ORACLE_FK, "block"),
    }
    assert 0 < np.count_nonzero(rates["asymptotic"]) < 40
    for i in range(40):
        t = TunableParams(mu_0=mu_0[i], beta_A=beta_A, delta=delta, v_0=v_0[i])
        single = {
            "asymptotic": asymptotic_key_rate(t, SYS, ch),
            "pointwise": finite_key_rate(t, SYS, ch, ORACLE_FK),
            "block": finite_key_rate(t, SYS, ch, ORACLE_FK, ec_mode="block"),
        }
        for mode, out in single.items():
            assert rates[mode][i] == pytest.approx(out.rate, rel=1e-12, abs=1e-300)
        assert block.P[i] == pytest.approx(single["asymptotic"].stats.P, rel=1e-12)
        assert block.chi[i] == pytest.approx(single["asymptotic"].chi, rel=1e-12)


def test_rate_rows_independent_of_block():
    # a lockstep sweep stacks the points of many channels, noise levels and
    # block sizes in one block, so a row's results must not depend on the
    # rows around it: each point scored alone, with its noise level and
    # block size as scalars, equals the same point inside larger blocks of
    # mixed points, at several offsets, to the last bit
    rng = np.random.default_rng(5)
    n_rows = 119
    beta_A = rng.uniform(1.0, 1.45, n_rows)
    delta = np.array([calibrate_delta(float(b), SYS) for b in beta_A])
    mu_0 = 10.0 ** rng.uniform(-3.0, 1.0, n_rows)
    eta = 10.0 ** (-rng.uniform(0.0, 10.0, n_rows) / 10.0)
    xi = rng.choice([0.0, 0.05, 0.1, 0.2], n_rows)
    n = rng.choice([1e8, 1e10, 1e12], n_rows)
    v_hi = 6.0 * np.array([ChannelModel(loss_db=0.0, xi=x).sigma for x in xi])
    v_0 = rng.uniform(0.0, 1.0, n_rows) * v_hi
    fk = FiniteKeyParams(n=10**10)

    def results(rows, xi_rows, n_rows):
        symbols = security.symbol_block(
            mu_0[rows], beta_A[rows], delta[rows], eta[rows], xi_rows, SYS
        )
        block = symbols.at(v_0[rows])
        return np.column_stack([
            asymptotic_rates(block),
            finite_rates(block, fk, "pointwise", n=n_rows),
            finite_rates(block, fk, "block", n=n_rows),
            block.P,
            block.E,
            symbols.chi,
            security.asymptotic_threshold(symbols, 0.0, v_hi[rows]),
            pointwise_threshold(symbols, fk, 0.0, v_hi[rows], n_rows),
        ])

    whole = results(np.arange(n_rows), xi, n)
    assert 0 < np.count_nonzero(whole[:, 0]) < n_rows
    assert 0 < np.count_nonzero(whole[:, 2]) < n_rows
    for i in range(n_rows):
        alone = results(np.array([i]), float(xi[i]), int(n[i]))
        np.testing.assert_array_equal(alone[0], whole[i])
    for start, size in ((0, 2), (3, 17), (40, 64), (100, 19)):
        rows = np.arange(start, start + size)
        np.testing.assert_array_equal(results(rows, xi[rows], n[rows]), whole[rows])


def test_rate_doubling_toggle():
    ch = ChannelModel(loss_db=3.0, xi=0.1)
    both = asymptotic_key_rate(tun(), SystemParams(symmetric_doubling=True), ch)
    one = asymptotic_key_rate(tun(), SystemParams(symmetric_doubling=False), ch)
    assert both.rate == pytest.approx(2.0 * one.rate, rel=1e-12)
    assert asymptotic_key_rate(tun(), SYS, ch).rate == both.rate
    # a finite point that clears the n = 1e10 overheads
    t, fk = tun(mu_0=0.3, v_0=1.9), FiniteKeyParams(n=10**10)
    both = finite_key_rate(t, SystemParams(symmetric_doubling=True), ch, fk)
    one = finite_key_rate(t, SystemParams(symmetric_doubling=False), ch, fk)
    assert one.rate > 0.0
    assert both.rate == pytest.approx(2.0 * one.rate, rel=1e-12)


def test_rate_zero_without_modulation():
    # beta_A = 0: both symbols identical, the secret fraction is exactly 0
    ch = ChannelModel(loss_db=3.0, xi=0.1)
    t = TunableParams(mu_0=0.3, beta_A=0.0, delta=1.0, v_0=0.5)
    out = asymptotic_key_rate(t, SYS, ch)
    assert out.rate == 0.0
    assert out.insecure


def test_rate_zero_when_bound_saturates():
    # huge photon number makes the intercepted states orthogonal
    ch = ChannelModel(loss_db=3.0, xi=0.0)
    t = tun(mu_0=500.0, beta_A=1.0, v_0=0.5)
    out = asymptotic_key_rate(t, SYS, ch)
    assert out.rate == 0.0
    assert out.insecure
    assert out.chi == pytest.approx(1.0, abs=1e-12)


def test_rate_zero_on_empty_acceptance():
    ch = ChannelModel(loss_db=3.0, xi=0.0)
    out = asymptotic_key_rate(tun(v_0=60.0), SYS, ch)
    assert out.rate == 0.0
    assert out.insecure
    assert out.stats is None


def test_rate_decreasing_in_loss_at_fixed_params():
    t = tun()
    rates = [
        asymptotic_key_rate(t, SYS, ChannelModel(loss_db=db, xi=0.1)).rate
        for db in (0.0, 2.0, 4.0, 6.0)
    ]
    assert all(a > b for a, b in zip(rates, rates[1:]) if a > 0.0)


def test_rate_ordering_in_noise_with_threshold_reoptimized():
    # fixed-parameter rates are NOT monotone in noise (a wider distribution
    # pushes more mass past a high threshold); the ordering guarantee holds
    # once the threshold is re-optimized per noise level
    def best_rate(xi):
        ch = ChannelModel(loss_db=3.0, xi=xi)
        return max(
            asymptotic_key_rate(tun(v_0=float(v)), SYS, ch).rate
            for v in np.linspace(0.0, 3.0, 61)
        )

    r0, r1, r2 = best_rate(0.0), best_rate(0.1), best_rate(0.2)
    assert r0 > r1 > r2 > 0.0


def test_overlap_domain():
    with pytest.raises(DomainError):
        state_overlap(-0.1, 0.5, 1)
    with pytest.raises(DomainError):
        state_overlap(0.5, -0.2, 1)
