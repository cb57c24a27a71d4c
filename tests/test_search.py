"""Optimizer and sweep tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from scw_cvqkd import search
from scw_cvqkd.errors import DomainError, InfeasibleError, NoRootError
from scw_cvqkd.finitekey import FiniteKeyParams, finite_key_rate, finite_rates
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
from scw_cvqkd.security import (
    asymptotic_key_rate,
    asymptotic_rates,
    rate_block,
    symbol_block,
)

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
    # log10 m at S=1; (log10 mu_0, beta_A) above
    for S, grid_points in ((1, 64), (3, 12 * 8)):
        with pytest.raises(InfeasibleError) as exc:
            optimize_point(ChannelModel(loss_db=15.0, xi=0.1), SystemParams(S=S))
        diag = exc.value.diagnostics
        assert diag["best_rate"] <= 0.0
        assert diag["grid_points"] == grid_points
        # reported as a decision vector in either case, with the threshold
        # the kernel gave the point
        assert len(diag["best_point"]) == 3
        assert 0.0 <= diag["best_point"][2] <= Bounds().v_0_sigmas[1]
    # block ec_mode searches the threshold on a last grid axis of 9
    for S, grid_points in ((1, 64 * 9), (3, 12 * 8 * 9)):
        with pytest.raises(InfeasibleError) as exc:
            optimize_point(
                ChannelModel(loss_db=15.0, xi=0.1), SystemParams(S=S),
                fk=FiniteKeyParams(n=10**8), ec_mode="block",
            )
        assert exc.value.diagnostics["grid_points"] == grid_points
        assert len(exc.value.diagnostics["best_point"]) == 3


@pytest.mark.parametrize("S", [1, 3])
def test_grid_means_are_ordered_and_antisymmetric(S):
    # the threshold rule needs m+ > m- and e(v) <= 1/2 for v >= 0; the
    # calibration makes the means antisymmetric, so e(0) = 1/2 to rounding
    sys_s = SystemParams(S=S)
    lo, hi, shape, decode = search._search_space(Bounds(), sys_s, v_axis=False)
    rows = decode(search._grid_points(
        [np.linspace(a, b, size) for a, b, size in zip(lo, hi, shape)]
    ))
    delta = [calibrate_delta(float(beta), sys_s) for beta in rows[:, 1]]
    for loss_db in (0.5, 3.0, 6.0, 9.0, 10.0):
        for xi in (0.0, 0.1, 0.2):
            ch = ChannelModel(loss_db=loss_db, xi=xi)
            sym = symbol_block(
                10.0 ** rows[:, 0], rows[:, 1], delta, ch.eta, ch.xi, sys_s
            )
            assert np.all(sym.mean_plus - sym.mean_minus > 1e-3 * ch.sigma)
            centre = np.abs(sym.mean_plus + sym.mean_minus) / 2.0
            assert np.all(centre <= 1.1e-14 * ch.sigma)


def test_unordered_means_score_no_rate(monkeypatch):
    # with m+ <= m- the threshold rule does not hold: such rows score
    # -inf instead of a rate at a wrong threshold
    def swapped(*args):
        sym = symbol_block(*args)
        return replace(sym, mean_plus=sym.mean_minus, mean_minus=sym.mean_plus)

    monkeypatch.setattr(search, "symbol_block", swapped)
    with pytest.raises(InfeasibleError) as exc:
        optimize_point(CH3, SYS)
    assert exc.value.diagnostics["best_rate"] == -math.inf


_EXACT_CASES = [
    (3.0, 0.1, 1, None, False),
    (3.0, 0.1, 1, 10**8, False),
    (3.0, 0.1, 3, None, False),
    (3.0, 0.1, 3, 10**8, False),
    # near the cutoff the best threshold lies past the box: clipped to 6 sigma
    (9.0, 0.1, 1, None, True),
]


@pytest.mark.parametrize("loss_db, xi, S, n, on_face", _EXACT_CASES)
def test_solved_threshold_beats_dense_scan(loss_db, xi, S, n, on_face):
    # at the reported (mu_0, beta_A), no threshold in the box gives a rate
    # above the reported one: a 1201-point scan over [0, 6] sigma and 201
    # points within 1e-3 sigma of the reported threshold
    ch = ChannelModel(loss_db=loss_db, xi=xi)
    sys_s = SystemParams(S=S)
    fk = FiniteKeyParams(n=n) if n is not None else None
    opt = optimize_point(ch, sys_s, fk=fk)
    t = opt.params
    v_hi = Bounds().v_0_sigmas[1]
    if on_face:
        assert t.v_0 == pytest.approx(v_hi * ch.sigma, rel=1e-15)
    else:
        assert 0.0 < t.v_0 < 0.99 * v_hi * ch.sigma
    v_sig = np.concatenate([
        np.linspace(0.0, v_hi, 1201),
        t.v_0 / ch.sigma + np.linspace(-1e-3, 1e-3, 201),
    ])
    v_0 = np.clip(v_sig, 0.0, v_hi) * ch.sigma
    ones = np.ones(v_0.size)
    block = rate_block(
        t.mu_0 * ones, t.beta_A * ones, t.delta * ones, v_0, sys_s, ch
    )
    rates = asymptotic_rates(block) if fk is None else finite_rates(block, fk)
    assert rates.max() <= opt.rate * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "loss_db, xi, n",
    # feasible pockets narrower than a 24-row grid's m spacing
    [(9.0, 0.1, None), (7.25, 0.2, 10**8)],
)
def test_s1_grid_resolves_narrow_pockets(loss_db, xi, n):
    ch = ChannelModel(loss_db=loss_db, xi=xi)
    fk = FiniteKeyParams(n=n) if n is not None else None
    assert search._RIDGE_GRID_SHAPE == (64, 9)
    opt = optimize_point(ch, SYS, fk=fk)
    assert opt.rate > 0.0
    # a 24-row grid over the same box finds no positive rate
    lo, hi, shape, decode = search._search_space(Bounds(), SYS, v_axis=False)
    assert shape == (64,)
    rows = np.linspace(lo[0], hi[0], 24)[:, None]
    eta, xi = np.full(len(rows), ch.eta), np.full(len(rows), ch.xi)
    n_rows = None if n is None else np.full(len(rows), float(n))
    coarse, _ = search._kernel(
        decode(rows), eta, xi, n_rows, SYS, fk, "pointwise", Bounds()
    )
    assert not coarse.max() > 0.0


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


def _box_slopes(opt, ch, sys=SYS, fk=None, bounds=Bounds()):
    """Slopes of rate/rate_opt per unit box width, through the public rates.

    The search coordinates are (log10 mu_0, beta_A, v_0/sigma).  Each slope
    is a fourth-order central difference with steps of 1e-4 and 2e-4 of the
    box width: the plain 1e-4 difference carries an h^2 error of about
    2e-5 along v_0/sigma at 3 dB, twice the tolerance it is judged by.
    Returns the point, the box and the three slopes.
    """
    sigma = noise_sigma(ch.xi)
    lo = np.array([math.log10(bounds.mu_0[0]), bounds.beta_A[0], bounds.v_0_sigmas[0]])
    hi = np.array([math.log10(bounds.mu_0[1]), bounds.beta_A[1], bounds.v_0_sigmas[1]])
    x = np.array(
        [math.log10(opt.params.mu_0), opt.params.beta_A, opt.params.v_0 / sigma]
    )

    def relative_rate(i, step):
        y = x.copy()
        y[i] += step
        tun = TunableParams(
            mu_0=10.0 ** y[0],
            beta_A=y[1],
            delta=calibrate_delta(y[1], sys),
            v_0=y[2] * sigma,
            k_sample=opt.params.k_sample,
        )
        if fk is None:
            return asymptotic_key_rate(tun, sys, ch).rate / opt.rate
        return finite_key_rate(tun, sys, ch, fk).rate / opt.rate

    slopes = []
    for i, width in enumerate(hi - lo):
        h = 1e-4 * width
        near = relative_rate(i, h) - relative_rate(i, -h)
        far = relative_rate(i, 2 * h) - relative_rate(i, -2 * h)
        slopes.append((8.0 * near - far) / 12.0 / 1e-4)
    return x, lo, hi, slopes


# mu_0 and v_0 capped below their 3 dB optima
_CAPPED = Bounds(mu_0=(1e-3, 0.2), v_0_sigmas=(0.0, 2.8))
_STATIONARY_CASES = [
    (3.0, 0.1, 1, None, Bounds()),
    (8.25, 0.2, 1, None, Bounds()),
    (8.5, 0.1, 1, None, Bounds()),
    (8.75, 0.1, 1, None, Bounds()),
    (9.0, 0.0, 1, None, Bounds()),
    (9.0, 0.1, 1, None, Bounds()),
    (3.0, 0.1, 1, 10**10, Bounds()),
    (3.0, 0.1, 2, None, Bounds()),
    # optimum on the beta_A lower face at the end of a curved valley
    (1.0, 0.1, 3, None, Bounds()),
    # mu_0 and v_0 on their upper faces, beta_A interior
    (3.0, 0.1, 2, None, _CAPPED),
    # all three coordinates on faces
    (3.0, 0.1, 1, None, _CAPPED),
]


@pytest.mark.parametrize(
    "loss_db, xi, S, n, bounds",
    _STATIONARY_CASES,
    # the default box adds nothing to a case's name
    ids=[
        "-".join(map(str, case[:4])) + ("" if case[4] == Bounds() else "-capped")
        for case in _STATIONARY_CASES
    ],
)
def test_optimum_is_first_order_stationary(loss_db, xi, S, n, bounds):
    # an interior coordinate has a flat slope; one on a face is flat or
    # points out of the box
    ch = ChannelModel(loss_db=loss_db, xi=xi)
    sys = SystemParams(S=S)
    fk = FiniteKeyParams(n=n) if n is not None else None
    opt = optimize_point(ch, sys, fk=fk, bounds=bounds)
    x, lo, hi, slopes = _box_slopes(opt, ch, sys, fk, bounds)
    for i, slope in enumerate(slopes):
        tol = 1e-9 * (hi[i] - lo[i])
        if x[i] >= hi[i] - tol:
            assert slope > -1e-5, (i, slope)
        elif x[i] <= lo[i] + tol:
            assert slope < 1e-5, (i, slope)
        else:
            assert abs(slope) < 1e-5, (i, slope)


def test_s1_reports_canonical_ridge_point(opt3):
    # the largest in-box angle: beta_A on its upper bound, mu_0 inside
    assert opt3.params.beta_A == Bounds().beta_A[1]
    assert Bounds().mu_0[0] < opt3.params.mu_0 < Bounds().mu_0[1]
    again = asymptotic_key_rate(opt3.params, SYS, CH3).rate
    assert abs(again - opt3.rate) <= 1e-12 * opt3.rate


@pytest.mark.parametrize("beta_hi", [math.pi / 4, math.pi / 4 + 1e-7])
def test_ridge_point_without_root_reports_refined_point(beta_hi, opt3):
    # cos(2 beta_A) is below theta_carrier at the top angle, so it has no
    # calibration root; the reported angle is the lower edge of that
    # root-less band, about 5e-7 below pi/4
    bounds = Bounds(beta_A=(0.1, beta_hi))
    with pytest.raises(NoRootError):
        calibrate_delta(beta_hi, SYS)
    opt = optimize_point(CH3, SYS, bounds=bounds)
    assert opt.params.beta_A < beta_hi
    assert math.pi / 4 - opt.params.beta_A < 1e-6
    assert abs(opt.rate - opt3.rate) <= 1e-12 * opt3.rate
    again = asymptotic_key_rate(opt.params, SYS, CH3).rate
    assert abs(again - opt.rate) <= 1e-12 * opt.rate


@pytest.mark.parametrize(
    "no_root",
    [
        # a band over the top of the box: the decoder's top angle is
        # bisected down to its lower edge
        lambda b: b > 1.3,
        # the same band over a comb: bisection settles on a comb edge
        lambda b: b > 1.3 or 0.4 < (b * 1e3) % 1.0 < 0.7,
    ],
    ids=["band", "comb"],
)
def test_refinement_survives_angles_without_root(no_root, monkeypatch, opt3):
    # points at angles without a calibration root score no rate; the
    # search still reaches the optimum along the S=1 ridge
    missed = []

    def patchy(beta_A, sys):
        if no_root(beta_A):
            missed.append(beta_A)
            raise NoRootError(f"no root at {beta_A}")
        return calibrate_delta(beta_A, sys)

    monkeypatch.setattr(search, "calibrate_delta", patchy)
    opt = optimize_point(CH3, SYS)
    assert missed
    assert opt.params.beta_A < 1.3 and not no_root(opt.params.beta_A)
    assert math.isfinite(opt.rate)
    assert opt.rate >= (1.0 - 1e-12) * opt3.rate


def _counted(fn):
    """``fn`` as a refinement objective, and the list of its block sizes."""
    sizes = []

    def objective(rows):
        sizes.append(len(rows))
        return fn(rows)

    return objective, sizes


def _descend(starts, objectives, lo, hi):
    """Run one ``_refine`` generator over descents from each of ``starts``,
    scoring each descent's blocks with its own objective; returns what it
    returns, (x, points scored), one entry per descent."""
    descent = search._refine(np.array(starts), lo, hi)
    blocks = next(descent)
    while True:
        values = {k: objectives[k](rows) for k, rows in blocks.items()}
        try:
            blocks = descent.send(values)
        except StopIteration as stop:
            return stop.value


_UNIT_LO, _UNIT_HI = np.zeros(2), np.ones(2)
_HESS = np.array([[2.0, 0.6], [0.6, 1.0]])


def _quadratic(centre):
    def objective(rows):
        d = rows - centre
        return 0.5 * np.einsum("ni,ij,nj->n", d, _HESS, d)

    return objective


def _log_cosh(rows):
    u, v = (rows - [0.5, 0.5]).T
    return np.log(np.cosh(20.0 * u)) + v**2


def _beyond_face(rows):
    return ((rows - [1.3, 0.4]) ** 2 * [1.0, 2.0]).sum(axis=1)


def _past_edge(rows):
    return np.where(rows[:, 0] > 0.7, np.inf, _quadratic(np.array([0.8, 0.4]))(rows))


# start and objective of each refinement case below
_DESCENTS = {
    "quadratic": ([0.45, 0.5], _quadratic(np.array([0.55, 0.4]))),
    "log_cosh": ([0.58, 0.45], _log_cosh),
    "face": ([0.9, 0.5], _beyond_face),
    "edge": ([0.6, 0.5], _past_edge),
}


def _refine_alone(name):
    """(x, points scored, block sizes) of one refinement case run alone."""
    start, fn = _DESCENTS[name]
    objective, sizes = _counted(fn)
    (x,), (n_eval,) = _descend([start], [objective], _UNIT_LO, _UNIT_HI)
    return x, n_eval, sizes


def test_refine_full_step_brings_its_stencil():
    # a strictly convex quadratic with its minimiser inside the box: the
    # first block scores the stencil (11 points in 2-D), the second the 8
    # halvings of the Newton step and the stencil at the full step (18);
    # the full step lands on the minimiser, whose stencil then stops the
    # descent without another call
    x, n_eval, sizes = _refine_alone("quadratic")
    assert sizes == [11, 18]
    assert n_eval == 29
    assert np.max(np.abs(x - [0.55, 0.4])) < 1e-9


def test_refine_scores_stencil_after_a_halving():
    # log cosh is flatter away from its minimum than at the start, so the
    # first full Newton step overshoots and only a halving decreases: that
    # point needs one stencil call of its own; every later full step wins
    x, n_eval, sizes = _refine_alone("log_cosh")
    assert sizes[:3] == [11, 18, 11]
    assert sizes.count(11) == 2
    assert n_eval == sum(sizes)
    assert np.max(np.abs(x - [0.5, 0.5])) < 1e-9


def test_refine_stops_on_face_and_at_missing_rates():
    # minimiser beyond the x0 = 1 face: x0 ends on the face, x1 at its
    # optimum, and the stencil a full step brought stops the descent
    x, _, sizes = _refine_alone("face")
    assert sizes == [11, 18, 18]
    assert x[0] == 1.0 and abs(x[1] - 0.4) < 1e-9

    # no rate past x0 = 0.7 (as at angles without a calibration root) and
    # the minimiser beyond it: the descent reaches the edge, then neither
    # the Newton nor the steepest-descent block decreases, and x is kept
    x, _, sizes = _refine_alone("edge")
    assert sizes == [11, 18, 11, 18, 18]
    assert abs(x[0] - 0.7) < 1e-12 and abs(x[1] - 0.45) < 1e-9


def test_refine_round_mixes_phases_without_crosstalk():
    # the four cases above as one batched descent: within a round one
    # descent scores a line search while others score a stencil after a
    # halving or have stopped, and each gets exactly what it gets alone
    alone = {name: _refine_alone(name) for name in _DESCENTS}
    counted = [_counted(fn) for _, fn in _DESCENTS.values()]
    xs, n_evals = _descend(
        [start for start, _ in _DESCENTS.values()],
        [objective for objective, _ in counted], _UNIT_LO, _UNIT_HI,
    )
    for i, name in enumerate(_DESCENTS):
        x, n_eval, sizes = alone[name]
        assert np.array_equal(xs[i], x), name
        assert n_evals[i] == n_eval and counted[i][1] == sizes, name
    # round r holds block r of every descent still running; the third
    # holds a line search (face) and stencils after a halving (log_cosh, edge)
    third = [sizes[2] for _, sizes in counted if len(sizes) > 2]
    assert sorted(third) == [11, 11, 18]


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


def test_sweep_serial_ordering():
    spec = SweepSpec(loss_grid=(1.0, 3.0, 5.0), noise_levels=(0.1,))
    reports = sweep(spec, SYS)
    assert [r.loss_db for r in reports] == [1.0, 3.0, 5.0]
    assert all(r.status == "ok" for r in reports)
    rates = [r.rate for r in reports]
    assert rates[0] > rates[1] > rates[2] > 0.0


def test_sweep_records_infeasible_points():
    spec = SweepSpec(loss_grid=(3.0, 15.0), noise_levels=(0.1,))
    reports = sweep(spec, SYS)
    assert reports[0].status == "ok"
    assert reports[1].status == "infeasible"
    assert reports[1].rate == 0.0
    assert reports[1].params is None


def test_sweep_single_point_matches_optimize(opt3):
    reports = sweep(SweepSpec(loss_grid=(3.0,), noise_levels=(0.1,)), SYS)
    assert len(reports) == 1
    assert reports[0].rate == opt3.rate
    assert reports[0].params == opt3.params


def _pointwise_reports(spec, sys=SYS):
    """What ``sweep(spec)`` must return, from one optimize_point per point."""
    reports = []
    for xi in spec.noise_levels:
        for n in spec.n_values or (None,):
            for loss in spec.loss_grid:
                ch = ChannelModel(loss_db=loss, xi=xi)
                fk = FiniteKeyParams(n=n) if n is not None else None
                try:
                    opt = optimize_point(ch, sys, fk=fk, ec_mode=spec.ec_mode)
                except InfeasibleError:
                    reports.append(KeyRateReport(
                        loss_db=loss, xi=xi, n=n, rate=0.0, Q=None, P=None,
                        chi=None, params=None, status="infeasible",
                    ))
                    continue
                reports.append(KeyRateReport(
                    loss_db=loss, xi=xi, n=n, rate=opt.rate, Q=opt.Q, P=opt.P,
                    chi=opt.chi, params=opt.params, status="ok",
                ))
    return reports


_BLOCKS = (10**8, 10**10, 10**12)
_SWEEPS = {
    "asymptotic": SweepSpec(loss_grid=(2.0, 4.0), noise_levels=(0.1,)),
    "finite-pointwise": SweepSpec(
        loss_grid=(2.0, 4.0), noise_levels=(0.0, 0.1), n_values=_BLOCKS
    ),
    "finite-block": SweepSpec(
        loss_grid=(2.0, 4.0), noise_levels=(0.0, 0.1), n_values=_BLOCKS,
        ec_mode="block",
    ),
}


def test_sweep_lockstep_matches_pointwise():
    # each row, optimized in lockstep with every other (noise level, block
    # size, loss) point of its sweep, equals its own optimize_point field
    # for field
    cases = [(kind, spec, SYS) for kind, spec in _SWEEPS.items()]
    cases.append((
        "asymptotic, several noise levels",
        SweepSpec(loss_grid=(2.0, 4.0, 7.0), noise_levels=(0.0, 0.1, 0.2)),
        SYS,
    ))
    # S=3 searches two coordinates and calibrates by scan
    cases.append((
        "S=3",
        SweepSpec(loss_grid=(1.0, 3.0, 6.0), noise_levels=(0.1,), n_values=(10**10,)),
        SystemParams(S=3),
    ))
    cases.append((
        "S=3, several noise levels and block sizes",
        SweepSpec(
            loss_grid=(1.0, 4.0), noise_levels=(0.0, 0.2), n_values=(10**9, 10**11)
        ),
        SystemParams(S=3),
    ))
    for kind, spec, sys in cases:
        expected = _pointwise_reports(spec, sys)
        assert all(r.status == "ok" for r in expected), kind
        assert sweep(spec, sys) == expected, kind


def _log_kernel_calls(monkeypatch, fail=None):
    """Patch the search to log its stages and the rows of each kernel call.

    The log holds "grid" where a search scores its coarse grid, "refine"
    where its descents start, and for each ``search._kernel`` call the
    list of its rows as (loss_db, xi, n) labels.  A call for which
    ``fail(stage, labels)`` is true raises instead.
    """
    log = []
    loss_of = {ChannelModel(loss_db=loss).eta: loss for loss in (2.0, 3.0, 4.0)}
    kernel, grid_points, refine = search._kernel, search._grid_points, search._refine

    def logged_kernel(points, eta, xi, n, *rest):
        size = len(points)
        labels = list(zip(
            [loss_of[e] for e in eta.tolist()],
            np.broadcast_to(xi, size).tolist(),
            [None] * size if n is None else [int(v) for v in np.broadcast_to(n, size)],
        ))
        stage = next(e for e in reversed(log) if isinstance(e, str))
        log.append(labels)
        if fail is not None and fail(stage, labels):
            raise ValueError("boom")
        return kernel(points, eta, xi, n, *rest)

    def logged_grid(*args):
        log.append("grid")
        return grid_points(*args)

    def logged_refine(*args):
        log.append("refine")
        return refine(*args)

    monkeypatch.setattr(search, "_kernel", logged_kernel)
    monkeypatch.setattr(search, "_grid_points", logged_grid)
    monkeypatch.setattr(search, "_refine", logged_refine)
    return log


def _grid_calls(log):
    """The kernel calls of each coarse-grid stage in the log, one list per
    search, each call as its list of row labels."""
    stages = []
    for event in log:
        if event == "grid":
            stages.append([])
        elif isinstance(event, str):
            stages.append(None)
        elif stages and stages[-1] is not None:
            stages[-1].append(event)
    return [stage for stage in stages if stage is not None]


def _rows_of(calls):
    """The row labels of a list of kernel calls, in call order."""
    return [label for call in calls for label in call]


def _grid_rows(spec):
    """The labels of a whole sweep's grid rows in output order, 64 per point at S=1."""
    return [
        (loss, xi, n)
        for xi in spec.noise_levels
        for n in spec.n_values or (None,)
        for loss in spec.loss_grid
        for _ in range(64)
    ]


def test_sweep_scores_one_grid_per_point(monkeypatch):
    # the threshold, and so the grid's rates, depend on the block size:
    # the sweep scores a 64-point grid for every (xi, n, loss) point, all
    # in one stage, in output order, in even calls of at most _MAX_ROWS
    spec = _SWEEPS["finite-pointwise"]
    log = _log_kernel_calls(monkeypatch)
    reports = sweep(spec, SYS)
    assert len(reports) == 12 and all(r.status == "ok" for r in reports)
    (grid,) = _grid_calls(log)
    rows = _grid_rows(spec)
    calls = -(-len(rows) // search._MAX_ROWS)
    assert [len(call) for call in grid] == [len(rows) // calls] * calls
    assert _rows_of(grid) == rows
    assert [(r.loss_db, r.xi, r.n) for r in reports] == rows[::64]


def test_sweep_grid_failure_marks_every_block_size(monkeypatch):
    spec = SweepSpec(loss_grid=(2.0, 4.0), noise_levels=(0.1,), n_values=_BLOCKS)
    expected = _pointwise_reports(spec)
    log = _log_kernel_calls(
        monkeypatch, fail=lambda stage, rows: any(r[0] == 4.0 for r in rows)
    )
    reports = sweep(spec, SYS)
    # the whole sweep's grid failed at its first call, then each point's
    # own grid was scored alone, in output order: 2.0 dB went on, 4.0 dB
    # failed again
    rows = _grid_rows(spec)
    (shared,), *alone = _grid_calls(log)
    assert shared == rows[: len(shared)]
    assert alone == [[rows[i : i + 64]] for i in range(0, len(rows), 64)]
    assert [r.n for r in reports] == [n for n in _BLOCKS for _ in (2.0, 4.0)]
    for got, want in zip(reports, expected):
        if got.loss_db == 4.0:
            assert got.status == "error: ValueError: boom"
            assert got.rate == 0.0 and got.params is None
        else:
            assert got == want


def test_sweep_refinement_failure_stays_with_its_point(monkeypatch):
    # a failure in a shared refinement block, after every grid scored: the
    # sweep is run again one point at a time and only (4.0 dB, xi=0.1)
    # records it
    spec = SweepSpec(loss_grid=(2.0, 3.0, 4.0), noise_levels=(0.0, 0.1))
    expected = _pointwise_reports(spec)
    log = _log_kernel_calls(
        monkeypatch,
        fail=lambda stage, rows: stage == "refine" and (4.0, 0.1, None) in rows,
    )
    reports = sweep(spec, SYS)
    assert _rows_of(_grid_calls(log)[0]) == _grid_rows(spec)
    assert [r.status for r in reports] == ["ok"] * 5 + ["error: ValueError: boom"]
    assert reports[:5] == expected[:5]


def test_sweep_infeasibility_stays_per_block_size(monkeypatch):
    # one channel: too short a block has no positive rate on its grid, a
    # long one does
    spec = SweepSpec(loss_grid=(3.0,), noise_levels=(0.1,), n_values=(10**4, 10**8))
    expected = _pointwise_reports(spec)
    log = _log_kernel_calls(monkeypatch)
    reports = sweep(spec, SYS)
    (grid,) = _grid_calls(log)
    assert _rows_of(grid) == _grid_rows(spec)
    assert [r.status for r in reports] == ["infeasible", "ok"]
    assert reports == expected


def test_sweep_kernel_calls_stay_under_the_row_cap(monkeypatch):
    # a stack of more than _MAX_ROWS rows is scored in even chunks, so no
    # kernel block of a sweep, however many points it has, exceeds the cap;
    # the rows still equal their own uncapped optimize_point
    spec = SweepSpec(
        loss_grid=(2.0, 4.0), noise_levels=(0.0, 0.1), n_values=(10**8, 10**10)
    )
    expected = _pointwise_reports(spec)
    monkeypatch.setattr(search, "_MAX_ROWS", 50)
    sizes = []

    def counted(mu_0, *args):
        sizes.append(len(mu_0))
        return symbol_block(mu_0, *args)

    monkeypatch.setattr(search, "symbol_block", counted)
    assert sweep(spec, SYS) == expected
    # the 8 points' 512 grid rows as 11 chunks of 46 or 47 rows, then the
    # refinement's stacks and the optima's last block, all within the cap
    assert sum(sizes[:11]) == 512 and set(sizes[:11]) == {46, 47}
    assert max(sizes) <= 50


def test_sweep_finite_grid():
    spec = SweepSpec(
        loss_grid=(3.0,), noise_levels=(0.1,), n_values=(10**9, 10**11)
    )
    reports = sweep(spec, SYS)
    assert [r.n for r in reports] == [10**9, 10**11]
    assert all(isinstance(r, KeyRateReport) for r in reports)
    assert 0.0 < reports[0].rate < reports[1].rate


def test_bad_ec_mode_rejected_before_search(monkeypatch):
    # a misspelt mode fails at once: the spec rejects it, and the grid's
    # rates reject it before any refinement
    with pytest.raises(DomainError, match="ec_mode"):
        SweepSpec(
            loss_grid=(3.0,), noise_levels=(0.1,), n_values=(10**8,), ec_mode="blok"
        )

    def no_refine(*args):
        raise AssertionError("refinement ran with a bad ec_mode")

    monkeypatch.setattr(search, "_refine", no_refine)
    ch = ChannelModel(loss_db=3.0, xi=0.1)
    with pytest.raises(DomainError, match="ec_mode"):
        optimize_point(ch, SYS, fk=FiniteKeyParams(n=10**8), ec_mode="blok")


def test_thread_count(monkeypatch):
    # sweeps run in one process; SCW_THREADS is no longer read
    for value in ("3", "zebra", "0", "-3"):
        monkeypatch.setenv("SCW_THREADS", value)
        assert thread_count(10) == 1
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
