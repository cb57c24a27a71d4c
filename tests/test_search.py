"""Optimizer and sweep tests."""

import math
import warnings
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


@pytest.mark.parametrize(
    "S, n, ec_mode",
    [(1, None, "pointwise"), (1, 10**10, "pointwise"), (1, 10**10, "block"),
     (3, None, "pointwise"), (3, 10**10, "pointwise"), (3, 10**10, "block")],
)
def test_optimum_reported_from_its_scored_row(S, n, ec_mode):
    # each optimum is reported from the kernel row that scored it, with Q
    # and P formed for that row alone: the one-point rate functions at the
    # reported parameters give its rate and statistics
    sys_s = SystemParams(S=S)
    if n is None:
        opt = optimize_point(CH3, sys_s)
        again = asymptotic_key_rate(opt.params, sys_s, CH3)
    else:
        fk = FiniteKeyParams(n=n)
        opt = optimize_point(CH3, sys_s, fk=fk, ec_mode=ec_mode)
        again = finite_key_rate(opt.params, sys_s, CH3, fk, ec_mode=ec_mode)
    assert opt.rate == again.rate > 0.0
    assert opt.Q == pytest.approx(again.stats.Q, rel=1e-12)
    assert opt.P == pytest.approx(again.stats.P, rel=1e-12)
    assert opt.chi == pytest.approx(again.chi, rel=1e-12)


def test_optimum_zero_loss_noiseless():
    opt = optimize_point(ChannelModel(loss_db=0.0, xi=0.0), SYS)
    assert opt.rate > 0.0
    assert opt.Q < 0.1


def test_infeasible_beyond_cutoff():
    # log10 m at S=1; (log10 mu_0, beta_A) above; every mode solves its
    # threshold, so the grid is the same size in each
    for S, grid_points in ((1, 64), (3, 12 * 8)):
        for fk, ec_mode in (
            (None, "pointwise"),
            (FiniteKeyParams(n=10**8), "pointwise"),
            (FiniteKeyParams(n=10**8), "block"),
        ):
            with pytest.raises(InfeasibleError) as exc:
                optimize_point(
                    ChannelModel(loss_db=15.0, xi=0.1), SystemParams(S=S),
                    fk=fk, ec_mode=ec_mode,
                )
            diag = exc.value.diagnostics
            assert diag["best_rate"] <= 0.0
            assert diag["grid_points"] == grid_points
            # reported as a decision vector in either case, with the
            # threshold the kernel gave the point
            assert len(diag["best_point"]) == 3
            assert 0.0 <= diag["best_point"][2] <= Bounds().v_0_sigmas[1]


@pytest.mark.parametrize("S", [1, 3])
def test_grid_means_are_ordered_and_antisymmetric(S):
    # the threshold rule needs m+ > m- and e(v) <= 1/2 for v >= 0; the
    # calibration makes the means antisymmetric, so e(0) = 1/2 to rounding
    sys_s = SystemParams(S=S)
    lo, hi, shape, decode = search._search_space(Bounds(), sys_s)
    rows = decode(search._grid_points(tuple(lo), tuple(hi), shape))
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
    (3.0, 0.1, 1, None, "pointwise", False),
    (3.0, 0.1, 1, 10**8, "pointwise", False),
    (3.0, 0.1, 3, None, "pointwise", False),
    (3.0, 0.1, 3, 10**8, "pointwise", False),
    # near the cutoff the best threshold lies past the box: clipped to 6 sigma
    (9.0, 0.1, 1, None, "pointwise", True),
    # block ec_mode's rate is a staircase in v_0; n = 1e8 has the widest
    # steps
    (3.0, 0.1, 1, 10**8, "block", False),
    (3.0, 0.1, 3, 10**8, "block", False),
    (6.0, 0.1, 1, 10**8, "block", False),
]


@pytest.mark.parametrize(
    "loss_db, xi, S, n, ec_mode, on_face",
    _EXACT_CASES,
    # pointwise adds nothing to a case's name
    ids=[
        f"{loss}-{xi}-{S}-{n}{'-block' if mode == 'block' else ''}-{face}"
        for loss, xi, S, n, mode, face in _EXACT_CASES
    ],
)
def test_solved_threshold_beats_dense_scan(loss_db, xi, S, n, ec_mode, on_face):
    # at the reported (mu_0, beta_A), no threshold in the box gives a rate
    # above the reported one: a 1201-point scan over [0, 6] sigma and 201
    # points within 1e-3 sigma of the reported threshold
    ch = ChannelModel(loss_db=loss_db, xi=xi)
    sys_s = SystemParams(S=S)
    fk = FiniteKeyParams(n=n) if n is not None else None
    opt = optimize_point(ch, sys_s, fk=fk, ec_mode=ec_mode)
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
    if fk is None:
        rates = asymptotic_rates(block)
    else:
        rates = finite_rates(block, fk, ec_mode)
    assert rates.max() <= opt.rate * (1.0 + 1e-12)


@pytest.mark.parametrize("loss_db", [1.0, 3.0, 6.0])
@pytest.mark.parametrize("n", [10**8, 10**12])
def test_block_optimum_below_pointwise(loss_db, n):
    # h is concave, so by Jensen's inequality the flat charge
    # f_EC h(Q + dQ) is never below the accepted average of
    # f_EC h(e(v) + dQ): block mode's optimum is at most the pointwise one,
    # and with these overheads it stays within 5% of it
    ch = ChannelModel(loss_db=loss_db, xi=0.1)
    fk = FiniteKeyParams(n=n)
    block = optimize_point(ch, SYS, fk=fk, ec_mode="block").rate
    pointwise = optimize_point(ch, SYS, fk=fk).rate
    assert 0.95 * pointwise < block <= pointwise


@pytest.mark.parametrize(
    "loss_db, xi, n",
    # feasible pockets narrower than a 24-row grid's m spacing
    [(9.0, 0.1, None), (7.25, 0.2, 10**8)],
)
def test_s1_grid_resolves_narrow_pockets(loss_db, xi, n):
    ch = ChannelModel(loss_db=loss_db, xi=xi)
    fk = FiniteKeyParams(n=n) if n is not None else None
    assert search._RIDGE_GRID_SHAPE == (64,)
    opt = optimize_point(ch, SYS, fk=fk)
    assert opt.rate > 0.0
    # a 24-row grid over the same box finds no positive rate
    lo, hi, shape, decode = search._search_space(Bounds(), SYS)
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
    scoring each descent's rows of a round, one block in the round's
    stack, with its own objective; returns (x, points scored), one entry
    per descent, after checking that each x is the row its returned origin
    names: the start, or a row of a stack it scored."""
    descent = search._refine(np.array(starts), lo, hi)
    rows, owner = next(descent)
    rounds = []
    while True:
        rounds.append((rows.copy(), owner.copy()))
        values = np.full(len(rows), np.nan)
        for k, objective in enumerate(objectives):
            (mine,) = np.nonzero(owner == k)
            if mine.size:
                assert np.array_equal(mine, np.arange(mine[0], mine[-1] + 1)), k
                values[mine] = objective(rows[mine])
        assert not np.isnan(values).any()
        try:
            rows, owner = descent.send(values)
        except StopIteration as stop:
            xs, n_evals, origins = stop.value
            break
    for k, (x, origin) in enumerate(zip(xs, origins)):
        r, row = origin
        if r < 0:
            assert np.array_equal(x, starts[k]), k
        else:
            stack, owners = rounds[r]
            assert owners[row] == k
            assert np.array_equal(x, stack[row]), k
    return xs, n_evals


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


def _stencil_values(fn, x, lo, hi):
    """(rows, values) of the refinement stencils of the points ``x`` (K, dim)."""
    unit, _ = search._stencil(x.shape[1])
    offsets = unit * (hi - lo)
    rows = search._clip(x[:, None] + offsets, lo, hi)
    return rows, fn(rows), offsets


def _plain_newton(x, rows, f, lo, hi):
    """The full Newton trials of :func:`search._line_searches` with no third
    derivative, from the same gradient, curvature and floored eigenvalues,
    for points whose coordinates are all free and whose step stays in the
    box and under _MAX_STEP."""
    dim, width = x.shape[1], hi - lo
    inside = (x - search._CURVE_STEP * width >= lo) & (x + search._CURVE_STEP * width <= hi)
    grad, _ = search._gradient(f, rows, inside)
    g, d = grad * width, (rows[:, 1 + 2 * dim :] - x[:, None]) / width
    df = f[:, 1 + 2 * dim :] - f[:, :1] - np.einsum("knd,kd->kn", d, g)
    lam, vec = np.linalg.eigh(search._curvature(d, df))
    lam = np.abs(lam)
    lam = np.maximum(lam, search._EIG_FLOOR * lam.max(axis=1, keepdims=True))
    newton = -np.einsum("kij,kj->ki", vec, np.einsum("kij,ki->kj", vec, g) / lam)
    return x + newton * width


def test_line_search_takes_a_third_order_step_in_one_coordinate():
    # a cubic g w + h w^2/2 + t w^3/6 about x (w = x' - x), written so
    # that its values near x are small and round finely: the 5-point
    # stencil measures t, up to the rounding of its points' coordinates,
    # and the full step is Chebyshev's, -(g + t s^2/2)/h with s = -g/h the
    # Newton step, here in a box 5 wide
    lo, hi, x0 = np.array([-2.0]), np.array([3.0]), 0.7
    g, h, t = 0.87, 3.8, 6.0

    def fn(rows):
        w = rows[..., 0] - x0
        return g * w + h / 2 * w**2 + t / 6 * w**3

    x = np.array([[x0]])
    rows, f, offsets = _stencil_values(fn, x, lo, hi)
    go, _, found = search._line_searches(x, rows, f, lo, hi, offsets)
    assert go.tolist() == [True]
    s = -g / h
    chebyshev = x0 - (g + t / 2 * s**2) / h
    assert abs(found[0, 0, 0, 0] - chebyshev) < 1e-10
    # plain Newton lands 0.04 away, more than twice as far from the
    # cubic's stationary point
    newton = _plain_newton(x, rows, f, lo, hi)[0, 0]
    assert abs(newton - (x0 + s)) < 1e-10
    assert abs(newton - chebyshev) > 0.04
    stationary = x0 + (math.sqrt(h * h - 2 * t * g) - h) / t
    assert abs(chebyshev - stationary) < 0.5 * abs(newton - stationary)


def test_line_search_uses_no_third_derivative_without_both_pairs():
    # one row whose near point scored no rate, one whose far point did
    # not, one whose far pair is clipped at the face, and a plain row: the
    # first three take the Newton step bit for bit, with no warning, and
    # do not move the fourth
    lo, hi = np.array([0.0]), np.array([1.0])

    def fn(rows):
        u = rows[..., 0] - 0.9
        return u**2 + u**3

    x = np.array([[0.8], [0.82], [1.0 - 0.5 * search._CURVE_STEP], [0.85]])
    rows, f, offsets = _stencil_values(fn, x, lo, hi)
    f[0, 1] = np.inf
    f[1, 4] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        go, _, found = search._line_searches(x, rows, f, lo, hi, offsets)
        assert go.all()
        plain = _plain_newton(x, rows, f, lo, hi)
    assert np.array_equal(found[:3, 0, 0], plain[:3])
    assert abs(found[3, 0, 0, 0] - plain[3, 0]) > 1e-3
    alone, _, _ = _stencil_values(fn, x[3:], lo, hi)
    assert np.array_equal(search._line_searches(x[3:], alone, f[3:], lo, hi, offsets)[2], found[3:])


def test_line_search_takes_the_newton_step_in_two_coordinates():
    # the 11-point stencil does not fix the mixed cubic terms, so in two
    # coordinates the full step stays Newton's, bit for bit
    lo, hi = np.zeros(2), np.ones(2)

    def fn(rows):
        u, v = rows[..., 0] - 0.4, rows[..., 1] - 0.5
        return u**2 + u**3 + 0.5 * v**2 + u * v**2

    x = np.array([[0.6, 0.55], [0.45, 0.3]])
    rows, f, offsets = _stencil_values(fn, x, lo, hi)
    assert search._gradient(f, rows, np.ones_like(x, dtype=bool))[1] is None
    go, _, found = search._line_searches(x, rows, f, lo, hi, offsets)
    assert go.all()
    assert np.array_equal(found[:, 0, 0], _plain_newton(x, rows, f, lo, hi))


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
            xi.tolist(),
            [None] * size if n is None else [int(v) for v in n.tolist()],
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


def _refine_calls(log):
    """The number of kernel calls after the last refinement start in the log."""
    return log[::-1].index("refine")


def test_sweep_scores_one_grid_per_point(monkeypatch):
    # the threshold, and so the grid's rates, depend on the block size:
    # the sweep scores a 64-point grid for every (xi, n, loss) point, all
    # in one kernel call, in output order; then each refinement round is
    # one call, so there are as many as the longest descent has rounds
    spec = _SWEEPS["finite-pointwise"]
    log = _log_kernel_calls(monkeypatch)
    reports = sweep(spec, SYS)
    assert len(reports) == 12 and all(r.status == "ok" for r in reports)
    (grid,) = _grid_calls(log)
    rows = _grid_rows(spec)
    assert len(rows) <= search._MAX_CALL_ROWS
    assert [len(call) for call in grid] == [len(rows)]
    assert _rows_of(grid) == rows
    assert [(r.loss_db, r.xi, r.n) for r in reports] == rows[::64]
    rounds = _refine_calls(log)
    alone = []
    for r in reports:
        log.clear()
        optimize_point(ChannelModel(loss_db=r.loss_db, xi=r.xi), SYS, FiniteKeyParams(n=r.n))
        alone.append(_refine_calls(log))
    assert rounds == max(alone) <= 3


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
    # a stack of more than _MAX_CALL_ROWS rows is scored in even calls, and
    # each call's node stage in even blocks of at most _MAX_ROWS rows, so
    # neither grows with the sweep, however many points it has; the rows
    # still equal their own uncapped optimize_point
    spec = SweepSpec(
        loss_grid=(2.0, 4.0), noise_levels=(0.0, 0.1), n_values=(10**8, 10**10)
    )
    expected = _pointwise_reports(spec)
    monkeypatch.setattr(search, "_MAX_CALL_ROWS", 200)
    monkeypatch.setattr(search, "_MAX_ROWS", 50)
    calls, blocks = [], []

    def counted_symbols(mu_0, *args):
        calls.append(len(mu_0))
        return symbol_block(mu_0, *args)

    def counted_rates(block, *args, **kwargs):
        blocks.append(len(block.v_0))
        return finite_rates(block, *args, **kwargs)

    monkeypatch.setattr(search, "symbol_block", counted_symbols)
    monkeypatch.setattr(search, "finite_rates", counted_rates)
    assert sweep(spec, SYS) == expected
    # the 8 points' 512 grid rows as 3 calls of 170 or 171 rows, each in 4
    # node blocks of 42 or 43, then the refinement's stacks, all within
    # the caps
    assert calls[:3] == [170, 171, 171]
    assert sum(blocks[:12]) == 512 and set(blocks[:12]) == {42, 43}
    assert max(calls) <= 200 and max(blocks) <= 50
    assert sum(calls) == sum(blocks)


@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("mode", ["asymptotic", "pointwise", "block"])
def test_kernel_rows_keep_their_bits_across_node_blocks(S, mode, monkeypatch):
    # one call whose node stage spans several blocks, with a transmittance,
    # excess noise and block size per row, gives every row the bits of
    # that row scored alone
    sys = SystemParams(S=S)
    lo, hi, _, decode = search._search_space(Bounds(), sys)
    rng = np.random.default_rng(S)
    count = 11
    points = decode(lo + (hi - lo) * rng.uniform(0.3, 0.8, (count, lo.size)))
    eta = np.array([ChannelModel(loss_db=v).eta for v in rng.uniform(0.5, 6.0, count)])
    xi = rng.choice([0.0, 0.1, 0.2], count)
    fk, n, ec_mode = None, None, "pointwise"
    if mode != "asymptotic":
        fk, ec_mode = FiniteKeyParams(n=10**10), mode
        n = rng.choice([1e8, 1e10, 1e12], count)
    monkeypatch.setattr(search, "_MAX_ROWS", 4)
    rates, record = search._kernel(points, eta, xi, n, sys, fk, ec_mode, Bounds())
    assert (rates > 0.0).sum() >= 4
    for i in range(count):
        one = slice(i, i + 1)
        alone = search._kernel(
            points[one], eta[one], xi[one], None if n is None else n[one],
            sys, fk, ec_mode, Bounds(),
        )
        assert rates[i] == alone[0][0], i
        assert np.array_equal(record[i], alone[1][0], equal_nan=True), i


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
