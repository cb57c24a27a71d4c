"""Information-bound and asymptotic key-rate tests."""

import math
import warnings
from dataclasses import fields, replace

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
from scw_cvqkd.noise import (
    ChannelModel,
    decision_stats,
    erasure_error_profiles,
    noise_sigma,
)
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
    symbol_block,
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


def overlap(mu_0, beta_A, S):
    return security_quantities(mu_0, beta_A, S).overlap


def test_overlap_trivial_limits():
    assert overlap(0.0, 0.7, 1) == 1.0
    assert overlap(2.0, 0.0, 1) == 1.0
    assert overlap(1.0, 0.25 * math.pi, 1) == pytest.approx(
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
            assert overlap(mu_0, beta_A, S) == pytest.approx(oracle, rel=1e-12)


def test_alternating_sum_identity():
    # sum_k (-1)^k d_{0k}(beta)^2 = d_{00}(2 beta), the engine of the overlap
    rng = np.random.default_rng(9)
    for S in (1, 2, 5, 10, 20):
        for beta in rng.uniform(0.0, math.pi, 8):
            row = wigner_d_row(S, beta)
            signs = (-1.0) ** np.arange(-S, S + 1)
            alt = float(np.dot(signs, row.values**2))
            assert alt == pytest.approx(carrier_weight(S, 2.0 * beta), abs=1e-12)


def test_security_quantities_are_the_kernel_rule():
    # the one-point chi equals the rate kernel's rows bit for bit, whatever
    # the block around them
    rng = np.random.default_rng(11)
    mu_0 = np.concatenate([[0.0, 1e-3, 0.3, 2.0, 40.0], rng.uniform(0.0, 5.0, 7)])
    beta_A = np.concatenate([[0.0, 0.5, 1.4, 2.5, math.pi], rng.uniform(0.0, math.pi, 7)])
    for S in (1, 2, 3, 5):
        sys_s = SystemParams(S=S)
        block = symbol_block(mu_0, beta_A, np.ones(mu_0.size), 0.5, 0.1, sys_s)
        for i in range(mu_0.size):
            q = security_quantities(float(mu_0[i]), float(beta_A[i]), S)
            assert q.overlap == block.overlap[i]
            assert q.chi_dr == block.chi[i]


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

    hi = integration_ceiling(mean_plus, mean_minus, noise_sigma(ch.xi))
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
    if fk is None:
        return asymptotic_rates(block)
    return finite_rates(block, fk, "pointwise", np.full(len(rows), float(fk.n)))


@pytest.mark.parametrize("S", [1, 3])
def test_rate_kernel_converged_in_order(S, monkeypatch):
    # the kernel's 48-node Gauss-Legendre rule against leggauss(96), swapped
    # in for it, on the search's 12 x 8 grid of (log10 mu_0, beta_A) times
    # 9 thresholds v_0/sigma, which spans the search's m range at S=1, from
    # low loss to past the cutoff; both sit on the ~3e-11 rounding floor
    # once the rule has converged
    from numpy.polynomial.legendre import leggauss

    nodes_96 = leggauss(96)
    sys_s = SystemParams(S=S)
    bounds = search.Bounds()
    points = search._grid_points(
        (math.log10(bounds.mu_0[0]), bounds.beta_A[0], bounds.v_0_sigmas[0]),
        (math.log10(bounds.mu_0[1]), bounds.beta_A[1], bounds.v_0_sigmas[1]),
        (*search._GRID_SHAPE, 9),
    )
    compared = 0
    for loss_db in (0.5, 3.0, 6.0, 8.5, 9.5):
        for xi in (0.0, 0.1, 0.2):
            ch = ChannelModel(loss_db=loss_db, xi=xi)
            for fk in (None, FiniteKeyParams(n=10**8)):
                assert security._GL_X.size == 48
                low = _fixed_threshold_rates(points, ch, sys_s, fk)
                with monkeypatch.context() as patch:
                    patch.setattr(security, "_GL_X", nodes_96[0])
                    patch.setattr(security, "_GL_W", nodes_96[1])
                    assert security._GL_X.size == security._GL_W.size == 96
                    ref = _fixed_threshold_rates(points, ch, sys_s, fk)
                judged = ref > 1e-3 * ref.max()
                np.testing.assert_allclose(
                    low[judged], ref[judged], rtol=1e-10, atol=0.0
                )
                compared += np.count_nonzero(judged)
    # about 2,000 grid points are judged at S=1 and 1,100 at S=3
    assert compared > 1000


def test_gl_nodes_equal_leggauss():
    # the rule is a constant, bit for bit numpy's 48-node rule, so no
    # process that rates imports numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    x_ref, w_ref = leggauss(48)
    assert np.array_equal(security._GL_X, x_ref)
    assert np.array_equal(security._GL_W, w_ref)


def test_rate_block_equals_single_points():
    # one N-point block against N separate N=1 calls, feasible and not
    rng = np.random.default_rng(11)
    ch = ChannelModel(loss_db=2.0, xi=0.1)
    beta_A = 1.1
    delta = calibrate_delta(beta_A, SYS)
    mu_0 = 10.0 ** rng.uniform(-3.0, 1.0, 40)
    v_0 = rng.uniform(0.0, 6.0, 40) * ch.sigma
    block = rate_block(mu_0, np.full(40, beta_A), np.full(40, delta), v_0, SYS, ch)
    n = np.full(40, float(ORACLE_FK.n))
    rates = {
        "asymptotic": asymptotic_rates(block),
        "pointwise": finite_rates(block, ORACLE_FK, "pointwise", n),
        "block": finite_rates(block, ORACLE_FK, "block", n),
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


def _nodes(block):
    """The Gauss-Legendre nodes of each row's accepted region, formed as the
    reference node stage forms them."""
    from numpy.polynomial.legendre import leggauss

    hi = integration_ceiling(block.mean_plus, block.mean_minus, block.sigma)
    return (0.5 * (hi + block.v_0))[:, None] + block.half[:, None] * leggauss(48)[0]


# the channel of the uncalibrated rows below
_REF_CH = ChannelModel(loss_db=1.0, xi=0.05)


def _calibrated_symbols(rng, n_rows):
    """Symbols of random calibrated points, each with its own loss and noise."""
    beta_A = rng.uniform(1.0, 1.45, n_rows)
    delta = np.array([calibrate_delta(float(b), SYS) for b in beta_A])
    mu_0 = 10.0 ** rng.uniform(-3.0, 1.0, n_rows)
    eta = 10.0 ** (-rng.uniform(0.0, 12.0, n_rows) / 10.0)
    xi = rng.choice([0.0, 0.05, 0.1, 0.2, 0.3], n_rows)
    return symbol_block(mu_0, beta_A, delta, eta, xi, SYS)


def _straddling_points():
    """Uncalibrated points (delta 0.5-2x its root) at v_0 = 0.05, many of whose
    accepted regions straddle the means' midpoint."""
    return [
        TunableParams(
            mu_0=1.0, beta_A=beta_A, delta=factor * calibrate_delta(beta_A, SYS),
            v_0=0.05,
        )
        for beta_A in (0.3, 0.8, 1.2)
        for factor in (0.5, 0.7, 0.9, 1.2, 1.5, 2.0)
    ]


def _take(symbols, rows):
    """The symbol block of ``rows`` alone."""
    return replace(symbols, **{name: value[rows] for name, value in vars(symbols).items()})


def _assert_matches_reference(block):
    one_minus_g, e = erasure_error_profiles(
        _nodes(block), block.mean_plus[:, None], block.mean_minus[:, None],
        block.xi[:, None],
    )
    np.testing.assert_allclose(block.one_minus_g, one_minus_g, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(block.e, e, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        block.entropy(), security._entropy_bits(e), rtol=0.0, atol=1e-13
    )


def test_symbol_block_fields_are_per_point():
    # one form whatever the input: a channel given as one transmittance and
    # one excess noise still gives every field one entry per point
    beta_A = np.full(3, 1.2)
    delta = np.full(3, calibrate_delta(1.2, SYS))
    symbols = symbol_block(np.array([0.1, 0.3, 1.0]), beta_A, delta, 0.5, 0.1, SYS)
    assert {name: np.shape(value) for name, value in vars(symbols).items()} == {
        f.name: (3,) for f in fields(security.SymbolBlock)
    }


def test_node_profiles_match_reference():
    # 1 - g, e and h(e) of the one node stage agree with
    # erasure_error_profiles and the reference entropy at the same nodes:
    # on random calibrated rows at solved and at random thresholds, on the
    # same rows with their means swapped, on one row with d > 700, and on
    # uncalibrated rows whose accepted regions straddle the means' midpoint
    rng = np.random.default_rng(21)
    n_rows = 400
    symbols = _calibrated_symbols(rng, n_rows)
    v_hi = 6.0 * symbols.sigma
    solved = security.asymptotic_threshold(symbols, 0.0, v_hi)
    random = rng.uniform(size=n_rows) * v_hi
    v_0 = np.where(rng.uniform(size=n_rows) < 0.5, solved, random)
    _assert_matches_reference(symbols.at(v_0))

    swapped = replace(
        symbols, mean_plus=symbols.mean_minus, mean_minus=symbols.mean_plus
    )
    block = swapped.at(v_0)
    assert (block.e > 0.5).any()
    _assert_matches_reference(block)
    # ordered means far above the threshold: d > 700 at the lowest nodes,
    # where exp(d) would overflow
    block = replace(
        _take(symbols, [0]), mean_plus=np.array([30.0]), mean_minus=np.array([20.0])
    ).at(np.zeros(1))
    assert block.e[0, 0] > 0.5 > block.e[0, -1]
    _assert_matches_reference(block)

    points = _straddling_points()
    straddling = symbol_block(
        *([getattr(t, name) for t in points] for name in ("mu_0", "beta_A", "delta")),
        _REF_CH.eta, _REF_CH.xi, SYS,
    )
    v_0 = np.array([t.v_0 for t in points])
    block = straddling.at(v_0)
    midpoint = 0.5 * (block.mean_plus + block.mean_minus)
    assert np.count_nonzero(_nodes(block)[:, 0] < midpoint) >= 6
    assert (block.e > 0.5).any()
    _assert_matches_reference(block)
    # each row alone, as the N=1 rate functions form it
    for i in range(v_0.size):
        _assert_matches_reference(_take(straddling, [i]).at(v_0[[i]]))


def test_general_node_formula_keeps_the_bits_of_rows_it_may_skip():
    # where no node of a block has d > 0 the node stage skips its d > 0
    # branches; beside a row that needs them (here the first row with its
    # means swapped) the other rows take the general formula, and it gives
    # them the same bits
    rng = np.random.default_rng(5)
    symbols = _calibrated_symbols(rng, 64)
    v_0 = security.asymptotic_threshold(symbols, 0.0, 6.0 * symbols.sigma)
    rows = np.r_[np.arange(64), 0]
    together = replace(
        _take(symbols, rows),
        mean_plus=np.r_[symbols.mean_plus, symbols.mean_minus[0]],
        mean_minus=np.r_[symbols.mean_minus, symbols.mean_plus[0]],
    ).at(v_0[rows])
    alone = symbols.at(v_0)
    assert (alone.e <= 0.5).all()
    assert (together.e[-1] > 0.5).all()
    for name in ("one_minus_g", "e", "minor", "ratio", "log_ratio"):
        np.testing.assert_array_equal(
            getattr(together, name)[:-1], getattr(alone, name)
        )
    np.testing.assert_array_equal(together.entropy()[:-1], alone.entropy())
    np.testing.assert_array_equal(
        asymptotic_rates(together)[:-1], asymptotic_rates(alone)
    )


def _reference_rates(t, ch, fk=None, ec_mode="pointwise"):
    """The rate of one working point by the reference node stage, written
    out op for op: explicit nodes, erasure_error_profiles, the entropy of
    e with its domain checks, and E and P for the abort floor."""
    from numpy.polynomial.legendre import leggauss

    from scw_cvqkd.finitekey import _fixed_charge, _syndrome_bits
    from scw_cvqkd.noise import P_FLOOR, decision_masses

    x, w = leggauss(48)
    plus, minus = (np.array([m]) for m in matched_means(t, SYS, ch.eta))
    v_0, sigma = np.array([t.v_0]), ch.sigma
    chi = np.array([security_quantities(t.mu_0, t.beta_A, SYS.S).chi_dr])
    E, P = decision_masses(v_0, plus, minus, sigma)
    hi = integration_ceiling(plus, minus, sigma)
    half = np.where(hi > v_0, 0.5 * (hi - v_0), 0.0)
    nodes = (0.5 * (hi + v_0))[:, None] + half[:, None] * x
    one_minus_g, e = erasure_error_profiles(nodes, plus[:, None], minus[:, None], ch.xi)
    abort = P < P_FLOOR
    if fk is None:
        fraction = 1.0 - security._entropy_bits(e) - chi[:, None]
    elif ec_mode == "block":
        fixed = _fixed_charge(chi, fk, fk.n)
        Q = np.divide(E, P, out=np.zeros_like(P), where=~abort)
        abort = abort | (Q + fk.dQ >= 0.5)
        code_ec = _syndrome_bits(fk.n, np.where(abort, 0.0, Q) + fk.dQ, fk.f_EC)
        fraction = (1.0 - fixed - code_ec / fk.n)[:, None]
    else:
        fixed = _fixed_charge(chi, fk, fk.n)
        charge = fk.f_EC * binary_entropy(np.minimum(e + fk.dQ, 0.5))
        fraction = 1.0 - fixed[:, None] - charge
    weighted = np.einsum("ij,j->i", one_minus_g * fraction, w)
    raw = 2.0 / (N_BASES * SYS.T) * (half * weighted)
    return float(np.where(abort | (raw <= 0.0), 0.0, raw)[0])


def _assert_reference_rates(t):
    """N=1 asymptotic, pointwise and block rates of ``t`` at _REF_CH within
    1e-13 relative of the reference route; returns the asymptotic rate."""
    fk = FiniteKeyParams(n=10**10)
    rate = asymptotic_key_rate(t, SYS, _REF_CH).rate
    assert rate == pytest.approx(_reference_rates(t, _REF_CH), rel=1e-13, abs=0.0)
    for mode in ("pointwise", "block"):
        assert finite_key_rate(t, SYS, _REF_CH, fk, mode).rate == pytest.approx(
            _reference_rates(t, _REF_CH, fk, mode), rel=1e-13, abs=0.0
        )
    return rate


def test_unordered_rows_keep_reference_arithmetic():
    # a point with m- > m+, reachable through the N=1 rate functions with an
    # uncalibrated delta, gets the reference rate up to rounding (its
    # finite rates abort: e(v) > 1/2 past the midpoint, where the
    # pointwise charge saturates)
    for beta_A, delta, v_0 in ((0.2, 2.9, 0.3), (0.6, 2.9, 0.0), (0.2, 2.5, 1.1)):
        t = TunableParams(mu_0=2.0, beta_A=beta_A, delta=delta, v_0=v_0)
        plus, minus = matched_means(t, SYS, _REF_CH.eta)
        assert minus > plus
        assert _assert_reference_rates(t) > 0.0


def test_straddling_rows_keep_reference_rates():
    # uncalibrated points whose accepted regions straddle the means'
    # midpoint: their N=1 rates match the reference route up to rounding
    rates = [_assert_reference_rates(t) for t in _straddling_points()]
    assert max(rates) > 0.0


def test_empty_rows_are_found_without_their_masses():
    # E and P are formed only for rows whose threshold lies more than
    # _FAR_SIGMAS above both means, since any other row accepts at least
    # Phi(-37)/2; a row 40 sigma out reads empty, with rate 0, and every
    # row equals its one-row result
    from scw_cvqkd.noise import P_FLOOR

    assert 0.25 * math.erfc(security._FAR_SIGMAS / math.sqrt(2.0)) > P_FLOOR
    ch = ChannelModel(loss_db=2.0, xi=0.1)
    beta_A = 1.2
    delta = calibrate_delta(beta_A, SYS)
    mu_0 = np.array([0.3, 0.3, 0.5, 0.3, 0.3, 0.8])
    sigmas_out = np.array([1.0, 36.0, 37.5, 38.0, 40.0, 3.0])
    symbols = security.symbol_block(
        mu_0, np.full(6, beta_A), np.full(6, delta), ch.eta, ch.xi, SYS
    )
    v_0 = np.maximum(symbols.mean_plus, symbols.mean_minus) + sigmas_out * ch.sigma
    # the first row at its best threshold, so it has a rate
    v_0[0] = security.asymptotic_threshold(symbols, 0.0, 6.0 * ch.sigma)[0]
    block = symbols.at(v_0)
    assert block.empty.tolist() == (block.P < P_FLOOR).tolist()
    assert block.empty[4] and not block.empty[[0, 1, 5]].any()
    fk = FiniteKeyParams(n=10**10)
    rates = asymptotic_rates(block)
    assert rates[4] == 0.0 and rates[0] > 0.0
    for i in range(6):
        t = TunableParams(mu_0=mu_0[i], beta_A=beta_A, delta=delta, v_0=v_0[i])
        alone = asymptotic_key_rate(t, SYS, ch)
        assert rates[i] == alone.rate
        assert (alone.stats is None) == block.empty[i]
        for mode in ("pointwise", "block"):
            rate = finite_rates(block, fk, mode, np.full(6, float(fk.n)))[i]
            assert rate == finite_key_rate(t, SYS, ch, fk, mode).rate


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
        overlap(-0.1, 0.5, 1)
    with pytest.raises(DomainError):
        overlap(0.5, -0.2, 1)
    with pytest.raises(DomainError):
        overlap(0.5, 0.2, -1)
