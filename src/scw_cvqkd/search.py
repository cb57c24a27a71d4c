"""Key-rate maximization over protocol knobs, and loss-grid sweeps.

The decision variables are the carrier photon number (searched in log
space), Alice's modulation angle, and the post-selection threshold in
readout-sigma units.  The modulation-depth ratio delta is never free: it
is re-derived from the calibration condition at every angle, and
finite-block searches charge the configured parameter-estimation count.

The search is a deterministic two-stage scheme: a fixed coarse grid,
scored by the batched rate kernel one block per modulation angle, picks
a start; grid ties go to the first point in (photon number, angle,
threshold) order, so the smaller photon number wins.  A bounded Newton
descent then refines it.  Each iteration scores one kernel block of 19
points: the point, a central-difference pair on each axis for the
gradient, and a curvature stencil of axis and diagonal pairs.  A second
block of 8 points scores halvings of the step, and a third the same for
a steepest-descent step when none of those decreases.  It stops when the
largest entry of the projected gradient is at most 1e-7.  At S=1 under
the sideband convention the rate depends on photon number and angle only
through mu_0 sin^2(beta_A), so the reported pair is the canonical point
of that ridge: the largest angle in the box whose photon number stays in
bounds, unless that angle has no calibration root, in which case the
refined point is reported.  ``OptimumPoint.evaluations`` counts the
kernel points scored.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InfeasibleError, ScwError
from .finitekey import FiniteKeyParams, finite_key_rate, finite_rates
from .noise import ChannelModel, noise_sigma
from .optics import SystemParams, TunableParams, calibrate_delta
from .security import asymptotic_key_rate, asymptotic_rates, rate_block

# coarse-grid resolution per axis: photon number, angle, threshold
_GRID_SHAPE = (12, 8, 9)
# central-difference step of the refinement gradient, as a fraction of
# each box width
_STEP = 1e-5
# step of the curvature stencil, as a fraction of each box width
_CURVE_STEP = 1e-4
# curvature stencil in units of that step: an axis pair per coordinate and
# a pair along each diagonal of two coordinates
_DIAGONALS = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
_STENCIL = np.vstack([np.eye(3), -np.eye(3), _DIAGONALS, -_DIAGONALS])
# curvature magnitudes are floored at this fraction of the largest: at S=1
# the rate is flat along mu_0 sin^2(beta_A) = const, so the curvature
# is singular there
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

    ``evaluations`` counts kernel points scored: the 864-point coarse grid,
    19 per Newton iteration of the refinement and 8 per line search.
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
    for beta in np.unique(beta_A):
        try:
            delta[beta_A == beta] = calibrate_delta(float(beta), sys)
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


def _score_grid(axes, ch, sys, fk, ec_mode) -> np.ndarray:
    """Rates on the coarse grid, shape (mu, beta, v), one kernel block per angle."""
    lg_mu, betas, v_sig = axes
    beta, mu, v = np.meshgrid(betas, lg_mu, v_sig, indexing="ij")
    planes = np.stack([mu, beta, v], axis=-1).reshape(len(betas), -1, 3)
    rates = np.array([_score(plane, ch, sys, fk, ec_mode) for plane in planes])
    return rates.reshape(beta.shape).transpose(1, 0, 2)


def _ridge_point(x, bounds: Bounds, sys: SystemParams) -> np.ndarray:
    """The reported point of the equal-rate curve through ``x``.

    At S=1 under the sideband convention the rate depends on (mu_0, beta_A)
    only through m = mu_0 sin^2(beta_A).  The canonical point of that curve
    is the largest angle in the box whose photon number m / sin^2(beta_A)
    stays in bounds.  Elsewhere, and where that angle has no calibration
    root (cos 2 beta_A too small near pi/4), ``x`` itself is reported.
    """
    if sys.S != 1 or sys.mean_convention != "sideband":
        return x
    mu_lo = bounds.mu_0[0]
    m = 10.0 ** float(x[0]) * math.sin(x[1]) ** 2
    beta = min(bounds.beta_A[1], math.asin(math.sqrt(min(1.0, m / mu_lo))))
    try:
        calibrate_delta(beta, sys)
    except ScwError:
        return x
    mu_0 = max(mu_lo, m / math.sin(beta) ** 2)
    return np.array([math.log10(mu_0), beta, x[2]])


def _gradient(f, x, up, down):
    """Central differences from the values at x, x + h e_i and x - h e_i.

    A side that was clipped onto x or scored no rate falls back to x, so
    the difference turns one-sided; with both sides gone the slope is 0.
    """
    up_ok, down_ok = np.isfinite(f[1:4]), np.isfinite(f[4:7])
    f_up = np.where(up_ok, f[1:4], f[0])
    f_down = np.where(down_ok, f[4:7], f[0])
    span = np.where(up_ok, up.diagonal(), x) - np.where(down_ok, down.diagonal(), x)
    return np.divide(f_up - f_down, span, out=np.zeros(3), where=span > 0.0)


def _curvature(d, df) -> np.ndarray:
    """Least-squares Hessian from displacements ``d`` and value changes ``df``.

    Each row says df = d.H.d / 2 once the gradient term is removed.
    Displacements clipped onto the point, or points with no rate, drop out;
    entries the rest leave undetermined come out 0.
    """
    i, j = np.triu_indices(3)
    weight = np.where(i == j, 0.5, 1.0)
    ok = np.isfinite(df) & (np.abs(d).sum(axis=1) > 0.0)
    design = d[ok][:, i] * d[ok][:, j] * weight
    coef = np.linalg.lstsq(design, df[ok], rcond=None)[0]
    hess = np.zeros((3, 3))
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
    by more than _MAX_STEP.  A second block scores halvings of the step,
    clipped to the box, and the longest with a sufficient decrease wins.
    When none decreases, a steepest-descent step to the minimum of the same
    quadratic model is tried the same way; when that fails too, x is
    returned.  Stops when the projected gradient's largest entry is at most
    _GTOL.
    """
    width = hi - lo
    small = np.diag(_STEP * width)
    n_eval = 0
    for _ in range(_MAX_ITER):
        up, down = np.minimum(x + small, hi), np.maximum(x - small, lo)
        curve = np.clip(x + _CURVE_STEP * _STENCIL * width, lo, hi)
        f = objective(np.vstack([x, up, down, curve]))
        n_eval += f.size
        grad = _gradient(f, x, up, down)
        if np.max(np.abs(x - np.clip(x - grad, lo, hi))) <= _GTOL:
            break
        # in box-width units from here on
        g, d = grad * width, (curve - x) / width
        hess = _curvature(d, f[7:] - f[0] - d @ g)
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        lam, vec = np.linalg.eigh(hess[np.ix_(free, free)])
        lam = np.abs(lam)
        if not lam.max() > 0.0:
            break
        lam = np.maximum(lam, _EIG_FLOOR * lam.max())
        g_free = g[free]
        proj = vec.T @ g_free
        newton = -vec @ (proj / lam)
        # the minimum of the same quadratic model along the gradient
        cauchy = -g_free * (g_free @ g_free) / (proj**2 @ lam)
        x_next = None
        for direction in (newton, cauchy):
            step = np.zeros(3)
            step[free] = direction * min(1.0, _MAX_STEP / np.abs(direction).max())
            trials = np.clip(
                x + np.outer(0.5 ** np.arange(_TRIALS), step * width), lo, hi
            )
            f_trial = objective(trials)
            n_eval += f_trial.size
            ok = (f_trial < f[0]) & (f_trial <= f[0] + _ARMIJO * ((trials - x) @ grad))
            if ok.any():
                x_next = trials[np.argmax(ok)]
                break
        if x_next is None:
            break
        x = x_next
    return x, n_eval


def optimize_point(
    ch: ChannelModel,
    sys: SystemParams,
    fk: FiniteKeyParams | None = None,
    ec_mode: str = "pointwise",
    bounds: Bounds = Bounds(),
) -> OptimumPoint:
    """Maximize the key rate at one channel point.

    The best point of a fixed coarse grid over (log10 mu_0, beta_A,
    v_0/sigma) starts one bounded Newton descent (see :func:`_refine`).
    Each iteration scores one kernel block for the gradient and curvature,
    with central differences that turn one-sided where a pair meets a face
    or a point without a calibration root.  At S=1 the reported
    (mu_0, beta_A) is the canonical point of the equal-rate curve (see
    :func:`_ridge_point`).  Deterministic: no randomness enters at any
    stage.

    Raises :class:`InfeasibleError` when no coarse-grid point has a
    positive rate, carrying the best grid diagnostics.
    """
    lo = np.array([math.log10(bounds.mu_0[0]), bounds.beta_A[0], bounds.v_0_sigmas[0]])
    hi = np.array([math.log10(bounds.mu_0[1]), bounds.beta_A[1], bounds.v_0_sigmas[1]])
    axes = [np.linspace(a, b, size) for a, b, size in zip(lo, hi, _GRID_SHAPE)]

    grid = _score_grid(axes, ch, sys, fk, ec_mode)
    n_eval = grid.size
    # argmax takes the first maximum in (mu, beta, v) order: ties go to
    # the smaller photon number
    best = np.unravel_index(np.argmax(grid), grid.shape)
    best_rate = float(grid[best])
    x = np.array([axis[i] for axis, i in zip(axes, best)])
    if not best_rate > 0.0:
        raise InfeasibleError(
            f"no positive rate on the {grid.size}-point coarse grid at "
            f"loss={ch.loss_db} dB, xi={ch.xi}",
            diagnostics={
                "best_rate": best_rate,
                "best_point": tuple(float(v) for v in x),
                "grid_points": grid.size,
            },
        )

    x, refined = _refine(
        x, lambda pts: -_score(pts, ch, sys, fk, ec_mode) / best_rate, lo, hi
    )
    n_eval += refined

    tun, rate, q, p, chi = _evaluate(_ridge_point(x, bounds, sys), ch, sys, fk, ec_mode)
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
