"""Key-rate maximization over protocol knobs, and loss-grid sweeps.

The decision variables are the carrier photon number (searched in log
space), Alice's modulation angle, and the post-selection threshold in
readout-sigma units.  The modulation-depth ratio delta is never free: it
is re-derived from the calibration condition at every angle, and
finite-block searches charge the configured parameter-estimation count.

At S=1 under the sideband convention the rate depends on photon number
and angle only through m = mu_0 sin^2(beta_A), so the search runs over
(log10 m, v_0/sigma) and decodes every point to the canonical point of
its ridge: the largest in-box angle that has a calibration root, lowered
where the photon number m / sin^2(beta_A) would fall below its bound.
For S>1 and the detector convention it runs over (log10 mu_0, beta_A,
v_0/sigma) itself.

The search is a deterministic two-stage scheme: a fixed coarse grid, 64 x
9 points in two coordinates or 12 x 8 x 9 in three, scored as one kernel
block, picks a start; grid ties go to the first point in axis order, so
the smaller m or photon number wins.  A bounded Newton descent then
refines it.  The stencil of a point is 11 points in two coordinates or 19
in three: the point, a central-difference pair on each axis for the
gradient, and a curvature stencil of axis and diagonal pairs, whose axis
pairs also cancel the gradient's h^2 error.  The start's stencil is one
kernel block.  Each line search is one block of 18 or 26 points: 8
halvings of the step and the stencil at the full step, so a full step
that wins needs no further call; a shorter winner has its stencil scored
in a block of its own.  When no Newton trial decreases, a steepest-descent
step is searched the same way.  It stops when the largest entry of the
projected gradient is at most 1e-7.
``OptimumPoint.evaluations`` counts the kernel points scored.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, InfeasibleError, ScwError
from .finitekey import FiniteKeyParams, finite_key_rate, finite_rates
from .noise import ChannelModel, noise_sigma
from .optics import SystemParams, TunableParams, calibrate_delta
from .security import asymptotic_key_rate, asymptotic_rates, rate_block

# coarse-grid resolution per axis over (log10 mu_0, beta_A, v_0/sigma)
_GRID_SHAPE = (12, 8, 9)
# coarse-grid resolution per axis over (log10 m, v_0/sigma) at S=1: 0.095
# decades in m on the default box; 24 or 48 rows miss feasible pockets
# near the cutoff (0.085 decades wide at 9 dB, xi=0.1) that the 3-D grid
# finds
_RIDGE_GRID_SHAPE = (64, 9)
# central-difference step of the refinement gradient, as a fraction of
# each box width
_STEP = 1e-5
# step of the curvature stencil, as a fraction of each box width
_CURVE_STEP = 1e-4
# curvature magnitudes are floored at this fraction of the largest, so a
# nearly flat direction still gets a bounded Newton step
_EIG_FLOOR = 1e-6
# a Newton step moves no coordinate by more than this fraction of its width
_MAX_STEP = 0.2
# each line search scores the step times 1, 1/2, ..., 1/2^(_TRIALS - 1)
_TRIALS = 8
# sufficient-decrease constant of the line search
_ARMIJO = 1e-4
# stop when no entry of the projected gradient exceeds this, in rate
# relative to the grid best per unit of each coordinate; there is no stop
# on a small decrease per step: where a valley meets a face (S=3, small
# beta_A) progress can slow 4e-6 short of the optimum
_GTOL = 1e-7
# iteration cap, far above the 3 to 19 iterations a point takes over
# 0.25-10 dB at xi 0-0.2, asymptotic or finite, S=1 to 3
_MAX_ITER = 100
# the decoder's top angle is bisected to this width, in radians
_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class Bounds:
    """Box bounds for the decision variables.

    The threshold bound is expressed in units of the readout standard
    deviation so one box serves every noise level.
    """

    mu_0: tuple[float, float] = (1e-3, 10.0)
    beta_A: tuple[float, float] = (0.1, 1.45)
    v_0_sigmas: tuple[float, float] = (0.0, 6.0)

    def __post_init__(self):
        for name in ("mu_0", "beta_A", "v_0_sigmas"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise DomainError(f"bounds for {name} must be ordered, got ({lo}, {hi})")
        if self.mu_0[0] <= 0.0:
            raise DomainError(f"mu_0 lower bound must be positive, got {self.mu_0[0]}")
        if not 0.0 < self.beta_A[0] < self.beta_A[1] < 0.5 * math.pi:
            raise DomainError(
                f"beta_A bounds must sit inside (0, pi/2), got {self.beta_A}"
            )
        if self.v_0_sigmas[0] < 0.0:
            raise DomainError(
                f"threshold lower bound must be >= 0, got {self.v_0_sigmas[0]}"
            )


@dataclass(frozen=True)
class OptimumPoint:
    """Best parameters found for one channel point and the rate there.

    ``evaluations`` counts kernel points scored: the coarse grid (576
    points over (log10 m, v_0/sigma) at S=1 under the sideband convention,
    864 over (log10 mu_0, beta_A, v_0/sigma) otherwise), then 11 or 19
    for the refinement's first stencil, 18 or 26 per line search (8
    halvings and the stencil at the full step) and another 11 or 19 for
    each step that wins shorter than full.
    """

    params: TunableParams
    rate: float
    Q: float
    P: float
    chi: float
    evaluations: int


@dataclass(frozen=True)
class SweepSpec:
    """Grid of channel points to optimize, with shared search settings."""

    loss_grid: tuple[float, ...]
    noise_levels: tuple[float, ...]
    n_values: tuple[int, ...] | None = None
    bounds: Bounds = Bounds()
    fk_template: FiniteKeyParams | None = None
    ec_mode: str = "pointwise"

    def __post_init__(self):
        for name in ("loss_grid", "noise_levels"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise DomainError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise DomainError(f"{name} must be strictly increasing, got {grid}")
        if self.n_values is not None:
            if len(self.n_values) == 0:
                raise DomainError("n_values must be non-empty when given")
            if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
                raise DomainError(
                    f"n_values must be strictly increasing, got {self.n_values}"
                )


@dataclass(frozen=True)
class KeyRateReport:
    """Outcome of one sweep point; ``status`` records failures in-band."""

    loss_db: float
    xi: float
    n: int | None
    rate: float
    Q: float | None
    P: float | None
    chi: float | None
    params: TunableParams | None
    status: str


def _decode(x, ch: ChannelModel, fk: FiniteKeyParams | None) -> TunableParams:
    # plain floats: an np.float64 would print as np.float64(...) in reports
    return TunableParams(
        mu_0=10.0 ** float(x[0]),
        beta_A=float(x[1]),
        delta=1.0,
        v_0=float(x[2]) * noise_sigma(ch.xi),
        k_sample=fk.k_sample if fk is not None else 0,
    )


def _evaluate(
    x,
    ch: ChannelModel,
    sys: SystemParams,
    fk: FiniteKeyParams | None,
    ec_mode: str,
):
    """Rate and reporting stats at one decision vector; ScwError means infeasible."""
    shell = _decode(x, ch, fk)
    delta = calibrate_delta(shell.beta_A, sys)
    tun = replace(shell, delta=delta)
    if fk is None:
        out = asymptotic_key_rate(tun, sys, ch)
    else:
        out = finite_key_rate(tun, sys, ch, fk, ec_mode=ec_mode)
    stats = out.stats
    return (
        tun,
        out.rate,
        stats.Q if stats is not None else None,
        stats.P if stats is not None else None,
        out.chi,
    )


def _score(points, ch, sys, fk, ec_mode) -> np.ndarray:
    """Rates at decision vectors, rows of (log10 mu_0, beta_A, v_0/sigma).

    Each distinct angle is calibrated once and every point is scored in one
    kernel block, decoded exactly as :func:`_decode` decodes a single point.
    A point whose angle has no calibration root, or whose symbol means are
    degenerate, scores -inf.
    """
    lg_mu, beta_A, v_sig = points.T
    delta = np.full(beta_A.size, math.nan)
    # dict.fromkeys, not np.unique: the first np.unique in a process
    # imports numpy.ma
    for beta in dict.fromkeys(beta_A.tolist()):
        try:
            delta[beta_A == beta] = calibrate_delta(beta, sys)
        except ScwError:
            pass
    rates = np.full(beta_A.size, -math.inf)
    ok = ~np.isnan(delta)
    if ok.any():
        mu_0 = np.array([10.0 ** float(m) for m in lg_mu[ok]])
        block = rate_block(
            mu_0, beta_A[ok], delta[ok], v_sig[ok] * noise_sigma(ch.xi), sys, ch
        )
        if fk is None:
            scored = asymptotic_rates(block)
        else:
            scored = finite_rates(block, fk, ec_mode)
        rates[ok] = np.where(block.degenerate, -math.inf, scored)
    return rates


def _grid_points(axes) -> np.ndarray:
    """Rows of every point of the grid on ``axes``, the last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _has_root(beta_A: float, sys: SystemParams) -> bool:
    try:
        calibrate_delta(beta_A, sys)
    except ScwError:
        return False
    return True


def _top_angle(bounds: Bounds, sys: SystemParams) -> float:
    """The largest in-box angle that has a calibration root.

    That is the upper bound unless cos(2 beta_A) is too small there for a
    root (near pi/4); then the lower edge of that root-less band is
    bisected to _ANGLE_TOL.
    """
    lo, hi = bounds.beta_A
    if _has_root(hi, sys):
        return hi
    while hi - lo > _ANGLE_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _has_root(mid, sys) else (lo, mid)
    return lo


def _search_space(bounds: Bounds, sys: SystemParams):
    """Search box (lo, hi), grid shape and decoder to decision vectors.

    At S=1 under the sideband convention the search runs over (log10 m,
    v_0/sigma) with m = mu_0 sin^2(beta_A), the only combination of the
    two that the rate depends on.  Each row decodes to the canonical point
    of its ridge: beta_A = min(beta_top, arcsin sqrt(m / mu_lo)) and
    mu_0 = m / sin^2(beta_A), both clipped to the box, with beta_top from
    :func:`_top_angle`.
    Otherwise the search runs over (log10 mu_0, beta_A, v_0/sigma) and
    the decoder is the identity.
    """
    v_lo, v_hi = bounds.v_0_sigmas
    if sys.S != 1 or sys.mean_convention != "sideband":
        lo = np.array([math.log10(bounds.mu_0[0]), bounds.beta_A[0], v_lo])
        hi = np.array([math.log10(bounds.mu_0[1]), bounds.beta_A[1], v_hi])
        return lo, hi, _GRID_SHAPE, lambda points: points

    mu_lo, mu_hi = bounds.mu_0
    beta_lo, beta_top = bounds.beta_A[0], _top_angle(bounds, sys)
    lo = np.array([math.log10(mu_lo * math.sin(beta_lo) ** 2), v_lo])
    hi = np.array([math.log10(mu_hi * math.sin(beta_top) ** 2), v_hi])

    def decode(points):
        m = 10.0 ** points[:, 0]
        beta = np.arcsin(np.sqrt(np.minimum(1.0, m / mu_lo)))
        beta = np.clip(beta, beta_lo, beta_top)
        mu_0 = np.clip(m / np.sin(beta) ** 2, mu_lo, mu_hi)
        return np.column_stack([np.log10(mu_0), beta, points[:, 1]])

    return lo, hi, _RIDGE_GRID_SHAPE, decode


@lru_cache(maxsize=None)
def _stencil(dim: int) -> np.ndarray:
    """Curvature stencil in units of _CURVE_STEP.

    An axis pair per coordinate (all + rows, then all - rows), then a pair
    along each diagonal of two coordinates: 6 rows in 2-D, 12 in 3-D.
    """
    i, j = np.triu_indices(dim, 1)
    diagonals = np.eye(dim)[i] + np.eye(dim)[j]
    return np.vstack([np.eye(dim), -np.eye(dim), diagonals, -diagonals])


@lru_cache(maxsize=None)
def _hessian_terms(dim: int):
    """Indices (i, j), i <= j, of the Hessian entries and their weights.

    d.H.d / 2 is the sum of weight * H_ij * d_i * d_j over those entries.
    """
    i, j = np.triu_indices(dim)
    return i, j, np.where(i == j, 0.5, 1.0)


def _gradient(f, rows, inside):
    """Gradient from the values ``f`` at the stencil ``rows`` of one point.

    ``rows`` holds x, x + h e_i, x - h e_i and the curvature stencil, whose
    first rows are x + H e_i and x - H e_i with H = r h, all clipped to the
    box.  Where all four axis points scored a rate and the far pair is
    unclipped (``inside``), the central differences D(h) and D(H) cancel
    their h^2 error: (r^2 D(h) - D(H)) / (r^2 - 1).  Elsewhere a near side
    that was clipped onto x or scored no rate falls back to x, so the
    difference turns one-sided; with both sides gone the slope is 0.
    """
    x = rows[0]
    dim = x.size
    # the moved coordinate of each axis point
    at_up, at_down, at_far_up, at_far_down = (
        rows[1 : 1 + 4 * dim].reshape(4, dim, dim).diagonal(axis1=1, axis2=2)
    )
    near_up, near_down, far_up, far_down = f[1 : 1 + 4 * dim].reshape(4, dim)
    up_ok, down_ok = np.isfinite(near_up), np.isfinite(near_down)
    f_up = np.where(up_ok, near_up, f[0])
    f_down = np.where(down_ok, near_down, f[0])
    span = np.where(up_ok, at_up, x) - np.where(down_ok, at_down, x)
    grad = np.divide(f_up - f_down, span, out=np.zeros(dim), where=span > 0.0)

    fourth = inside & up_ok & down_ok & np.isfinite(far_up) & np.isfinite(far_down)
    far_span = at_far_up - at_far_down
    far_diff = np.subtract(far_up, far_down, out=np.zeros(dim), where=fourth)
    far_grad = np.divide(far_diff, far_span, out=np.zeros(dim), where=fourth)
    r2 = (_CURVE_STEP / _STEP) ** 2
    return np.where(fourth, (r2 * grad - far_grad) / (r2 - 1.0), grad)


def _curvature(d, df) -> np.ndarray:
    """Least-squares Hessian from displacements ``d`` and value changes ``df``.

    Each row says df = d.H.d / 2 once the gradient term is removed.
    Displacements clipped onto the point, or points with no rate, drop out;
    entries the rest leave undetermined come out 0.
    """
    dim = d.shape[1]
    i, j, weight = _hessian_terms(dim)
    ok = np.isfinite(df) & (np.abs(d).sum(axis=1) > 0.0)
    design = d[ok][:, i] * d[ok][:, j] * weight
    coef = np.linalg.lstsq(design, df[ok], rcond=None)[0]
    hess = np.zeros((dim, dim))
    hess[i, j] = coef
    hess[j, i] = coef
    return hess


def _refine(x, objective, lo, hi) -> tuple[np.ndarray, int]:
    """Bounded Newton descent of ``objective`` from x; returns (x, points scored).

    ``objective`` maps rows of decision vectors to values, +inf where a
    point has no rate.  Steps are formed in box-width units.  A coordinate
    on a face whose gradient points out of the box is held.  On the others
    the step is Newton's, with each curvature eigenvalue replaced by its
    magnitude floored at _EIG_FLOOR of the largest, and no coordinate moves
    by more than _MAX_STEP.  One block scores halvings of the step, clipped
    to the box, together with the gradient and curvature stencil around
    the full step, and the longest halving with a sufficient decrease wins.
    When none decreases, a steepest-descent step to the minimum of the same
    quadratic model is tried the same way; when that fails too, x is
    returned.  Stops when the projected gradient's largest entry is at most
    _GTOL.  A full step that wins brings its stencil to the next
    iteration; a shorter winner has its stencil scored in a block of its
    own.
    """
    dim = x.size
    width = hi - lo
    small = np.diag(_STEP * width)
    far = _CURVE_STEP * width
    # the stencil of a point, as offsets from it: the point itself, the
    # near pair on each axis, then the curvature stencil
    offsets = np.vstack([np.zeros(dim), small, -small, _stencil(dim) * far])
    halvings = 0.5 ** np.arange(_TRIALS)
    f = None
    n_eval = 0
    for _ in range(_MAX_ITER):
        if f is None:
            rows = np.clip(x + offsets, lo, hi)
            f = objective(rows)
            n_eval += f.size
        inside = (x - far >= lo) & (x + far <= hi)
        grad = _gradient(f, rows, inside)
        if np.max(np.abs(x - np.clip(x - grad, lo, hi))) <= _GTOL:
            break
        # in box-width units from here on
        g, d = grad * width, (rows[1 + 2 * dim :] - x) / width
        hess = _curvature(d, f[1 + 2 * dim :] - f[0] - d @ g)
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        lam, vec = np.linalg.eigh(hess[free][:, free])
        lam = np.abs(lam)
        if not lam.max() > 0.0:
            break
        lam = np.maximum(lam, _EIG_FLOOR * lam.max())
        g_free = g[free]
        proj = vec.T @ g_free
        newton = -vec @ (proj / lam)
        # the minimum of the same quadratic model along the gradient
        cauchy = -g_free * (g_free @ g_free) / (proj**2 @ lam)
        won = None
        for direction in (newton, cauchy):
            step = np.zeros(dim)
            step[free] = direction * min(1.0, _MAX_STEP / np.abs(direction).max())
            trials = np.clip(x + np.outer(halvings, step * width), lo, hi)
            ahead = np.clip(trials[0] + offsets, lo, hi)
            f_ahead = objective(np.vstack([trials, ahead[1:]]))
            n_eval += f_ahead.size
            f_trial = f_ahead[:_TRIALS]
            ok = (f_trial < f[0]) & (f_trial <= f[0] + _ARMIJO * ((trials - x) @ grad))
            if ok.any():
                won = np.argmax(ok)
                break
        if won is None:
            break
        x = trials[won]
        # a full step brings its stencil; a shorter winner is scored anew
        if won == 0:
            rows, f = ahead, np.concatenate([f_ahead[:1], f_ahead[_TRIALS:]])
        else:
            f = None
    return x, n_eval


def optimize_point(
    ch: ChannelModel,
    sys: SystemParams,
    fk: FiniteKeyParams | None = None,
    ec_mode: str = "pointwise",
    bounds: Bounds = Bounds(),
) -> OptimumPoint:
    """Maximize the key rate at one channel point.

    The best point of a fixed coarse grid starts one bounded Newton
    descent (see :func:`_refine`).  At S=1 under the sideband convention
    both run over (log10 m, v_0/sigma) and every point decodes to the
    canonical (mu_0, beta_A) of its equal-rate curve; otherwise they run
    over (log10 mu_0, beta_A, v_0/sigma) (see :func:`_search_space`).
    Each line search scores one kernel block: the halvings of the step
    and the gradient and curvature stencil at the full step, with central
    differences that turn one-sided where a pair meets a face or a point
    without a calibration root.  Deterministic: no randomness
    enters at any stage.

    Raises :class:`InfeasibleError` when no coarse-grid point has a
    positive rate, carrying the best grid diagnostics.
    """
    lo, hi, shape, decode = _search_space(bounds, sys)
    axes = [np.linspace(a, b, size) for a, b, size in zip(lo, hi, shape)]
    points = _grid_points(axes)

    def objective(rows):
        return _score(decode(rows), ch, sys, fk, ec_mode)

    grid = objective(points)
    n_eval = grid.size
    # argmax takes the first maximum in axis order: ties go to the smaller
    # m or photon number
    best = np.argmax(grid)
    best_rate = float(grid[best])
    x = points[best]
    if not best_rate > 0.0:
        raise InfeasibleError(
            f"no positive rate on the {grid.size}-point coarse grid at "
            f"loss={ch.loss_db} dB, xi={ch.xi}",
            diagnostics={
                "best_rate": best_rate,
                "best_point": tuple(float(v) for v in decode(x[None])[0]),
                "grid_points": grid.size,
            },
        )

    x, refined = _refine(x, lambda rows: -objective(rows) / best_rate, lo, hi)
    n_eval += refined

    tun, rate, q, p, chi = _evaluate(decode(x[None])[0], ch, sys, fk, ec_mode)
    return OptimumPoint(params=tun, rate=rate, Q=q, P=p, chi=chi, evaluations=n_eval)


def _sweep_worker(args) -> KeyRateReport:
    loss_db, xi, n, sys, bounds, fk_template, ec_mode = args
    ch = ChannelModel(loss_db=loss_db, xi=xi)
    fk = None
    if n is not None:
        base = fk_template if fk_template is not None else FiniteKeyParams(n=n)
        fk = replace(base, n=n)
    try:
        opt = optimize_point(ch, sys, fk=fk, ec_mode=ec_mode, bounds=bounds)
    except InfeasibleError:
        return KeyRateReport(
            loss_db=loss_db, xi=xi, n=n, rate=0.0,
            Q=None, P=None, chi=None, params=None, status="infeasible",
        )
    except Exception as exc:  # record, never abort the sweep
        return KeyRateReport(
            loss_db=loss_db, xi=xi, n=n, rate=0.0,
            Q=None, P=None, chi=None, params=None,
            status=f"error: {type(exc).__name__}: {exc}",
        )
    return KeyRateReport(
        loss_db=loss_db, xi=xi, n=n, rate=opt.rate,
        Q=opt.Q, P=opt.P, chi=opt.chi, params=opt.params, status="ok",
    )


def thread_count(n_tasks: int) -> int:
    """Worker count for sweeps: SCW_THREADS, else the CPU count, capped by tasks."""
    raw = os.environ.get("SCW_THREADS", "")
    try:
        threads = int(raw) if raw else (os.cpu_count() or 1)
    except ValueError:
        raise DomainError(f"SCW_THREADS must be an integer, got {raw!r}")
    if threads < 1:
        raise DomainError(f"SCW_THREADS must be at least 1, got {raw!r}")
    return max(1, min(threads, n_tasks))


def sweep(spec: SweepSpec, sys: SystemParams) -> list[KeyRateReport]:
    """Optimize every (noise, block-size, loss) grid point.

    Points are independent and evaluated in parallel when more than one
    worker is available; the output order always follows the grid index
    (noise level outermost, loss innermost), and per-point failures are
    recorded in the report status rather than raised.
    """
    n_list = list(spec.n_values) if spec.n_values is not None else [None]
    tasks = [
        (loss, xi, n, sys, spec.bounds, spec.fk_template, spec.ec_mode)
        for xi in spec.noise_levels
        for n in n_list
        for loss in spec.loss_grid
    ]
    workers = thread_count(len(tasks))
    if workers == 1:
        return [_sweep_worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_worker, tasks))
