"""Optimizer and sweep tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from scw_cvqkd import search
from scw_cvqkd.errors import DomainError, InfeasibleError, NoRootError
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
    # (log10 m, v_0/sigma) at S=1; (log10 mu_0, beta_A, v_0/sigma) above
    for S, grid_points in ((1, 64 * 9), (3, 12 * 8 * 9)):
        with pytest.raises(InfeasibleError) as exc:
            optimize_point(ChannelModel(loss_db=15.0, xi=0.1), SystemParams(S=S))
        diag = exc.value.diagnostics
        assert diag["best_rate"] <= 0.0
        assert diag["grid_points"] == grid_points
        # reported as a decision vector in either case
        assert len(diag["best_point"]) == 3


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
    # a 24 x 9 grid over the same box finds no positive rate
    lo, hi, _, decode = search._search_space(Bounds(), SYS)
    axes = [np.linspace(a, b, size) for a, b, size in zip(lo, hi, (24, 9))]
    coarse = search._score(decode(search._grid_points(axes)), ch, SYS, fk, "pointwise")
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


_UNIT_LO, _UNIT_HI = np.zeros(2), np.ones(2)
_HESS = np.array([[2.0, 0.6], [0.6, 1.0]])


def _quadratic(centre):
    def objective(rows):
        d = rows - centre
        return 0.5 * np.einsum("ni,ij,nj->n", d, _HESS, d)

    return objective


def test_refine_full_step_brings_its_stencil():
    # a strictly convex quadratic with its minimiser inside the box: the
    # first block scores the stencil (11 points in 2-D), the second the 8
    # halvings of the Newton step and the stencil at the full step (18);
    # the full step lands on the minimiser, whose stencil then stops the
    # descent without another call
    centre = np.array([0.55, 0.4])
    objective, sizes = _counted(_quadratic(centre))
    x, n_eval = search._refine(np.array([0.45, 0.5]), objective, _UNIT_LO, _UNIT_HI)
    assert sizes == [11, 18]
    assert n_eval == 29
    assert np.max(np.abs(x - centre)) < 1e-9


def test_refine_scores_stencil_after_a_halving():
    # log cosh is flatter away from its minimum than at the start, so the
    # first full Newton step overshoots and only a halving decreases: that
    # point needs one stencil call of its own; every later full step wins
    centre = np.array([0.5, 0.5])

    def log_cosh(rows):
        u, v = (rows - centre).T
        return np.log(np.cosh(20.0 * u)) + v**2

    objective, sizes = _counted(log_cosh)
    x, n_eval = search._refine(np.array([0.58, 0.45]), objective, _UNIT_LO, _UNIT_HI)
    assert sizes[:3] == [11, 18, 11]
    assert sizes.count(11) == 2
    assert n_eval == sum(sizes)
    assert np.max(np.abs(x - centre)) < 1e-9


def test_refine_stops_on_face_and_at_missing_rates():
    # minimiser beyond the x0 = 1 face: x0 ends on the face, x1 at its
    # optimum, and the stencil a full step brought stops the descent
    objective, sizes = _counted(
        lambda rows: ((rows - [1.3, 0.4]) ** 2 * [1.0, 2.0]).sum(axis=1)
    )
    x, _ = search._refine(np.array([0.9, 0.5]), objective, _UNIT_LO, _UNIT_HI)
    assert sizes == [11, 18, 18]
    assert x[0] == 1.0 and abs(x[1] - 0.4) < 1e-9

    # no rate past x0 = 0.7 (as at angles without a calibration root) and
    # the minimiser beyond it: the descent reaches the edge, then neither
    # the Newton nor the steepest-descent block decreases, and x is kept
    centre = np.array([0.8, 0.4])

    def edge(rows):
        return np.where(rows[:, 0] > 0.7, np.inf, _quadratic(centre)(rows))

    objective, sizes = _counted(edge)
    x, _ = search._refine(np.array([0.6, 0.5]), objective, _UNIT_LO, _UNIT_HI)
    assert sizes == [11, 18, 11, 18, 18]
    assert abs(x[0] - 0.7) < 1e-12 and abs(x[1] - 0.45) < 1e-9


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
    for bad in ("zebra", "0", "-3"):
        monkeypatch.setenv("SCW_THREADS", bad)
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
