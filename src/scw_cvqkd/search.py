"""Key-rate maximization over protocol knobs, and loss-grid sweeps.

The decision variables are the carrier photon number (searched in log
space), Alice's modulation angle, and the post-selection threshold in
readout-sigma units.  The modulation-depth ratio delta is never free: it
is re-derived from the calibration condition at every angle, and
finite-block searches charge the configured parameter-estimation count.

The threshold is not searched in asymptotic and pointwise finite mode:
the rate's derivative in v_0 is minus the secret fraction at v_0, so the
kernel sets v_0 where that fraction crosses zero, clipped to the box
(:func:`security.asymptotic_threshold`,
:func:`finitekey.pointwise_threshold`).  Block ``ec_mode`` charges a flat
h(Q + dQ) that moves with v_0, so there the threshold stays the last
search coordinate.

At S=1 the rate depends on photon number and angle only through
m = mu_0 sin^2(beta_A), so the search runs over log10 m (and v_0/sigma
in block mode) and decodes every point to the canonical point of its
ridge: the largest in-box angle that has a calibration root, lowered
where the photon number m / sin^2(beta_A) would fall below its bound.
For S>1 it runs over (log10 mu_0, beta_A[, v_0/sigma]) itself.

The search is a deterministic two-stage scheme: a fixed coarse grid, 64
points in one coordinate or 12 x 8 in two (64 x 9 and 12 x 8 x 9 with
the threshold axis), scored as one kernel block, picks a start; grid ties
go to the first point in axis order, so the smaller m or photon number
wins.  A bounded Newton descent then refines the start.  The stencil of
a point is 5, 11 or 19 points in one, two or three coordinates: the
point, a central-difference pair on each axis for the gradient, and a
curvature stencil of axis and diagonal pairs, whose axis pairs also
cancel the gradient's h^2 error.  The start's stencil is one kernel
block.  Each line search is one block of 12, 18 or 26 points: 8
halvings of the step and the stencil at the full step, so a full step
that wins needs no further call; a shorter winner has its stencil scored
in a block of its own.  When no Newton trial decreases, a steepest-descent
step is searched the same way.  It stops when the largest entry of the
projected gradient is at most 1e-7.
``OptimumPoint.evaluations`` counts the kernel points scored.

Kernel calls, not points, set the search's time, so a sweep optimizes
all its (noise level, block size, loss) points in lockstep, in one
process: the kernel takes each row's transmittance, excess noise and
block size, so one stage scores every point's coarse grid, then each
round stacks every unfinished descent's next block and one vectorised
step advances every descent, and a last block scores every optimum for
its report.  A stack of more than _MAX_ROWS rows is scored in even
chunks, which bounds a kernel call's memory whatever the sweep's size.
A kernel row and a descent's step depend on that row or descent alone,
to the last bit, so every sweep row equals what :func:`optimize_point`,
the one-point case, returns for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DomainError, InfeasibleError, ScwError
from .finitekey import _EC_MODES, FiniteKeyParams, finite_rates, pointwise_threshold
from .noise import ChannelModel, noise_sigma
from .optics import SystemParams, TunableParams, calibrate_delta
from .security import SymbolBlock, asymptotic_rates, asymptotic_threshold, symbol_block

# coarse-grid resolution per axis over (log10 mu_0, beta_A, v_0/sigma);
# the last axis is dropped where the threshold is solved for
_GRID_SHAPE = (12, 8, 9)
# coarse-grid resolution per axis over (log10 m, v_0/sigma) at S=1, the
# last axis again dropped where the threshold is solved for: 0.095
# decades in m on the default box; 24 rows miss feasible pockets near the
# cutoff (0.085 decades wide at 9 dB, xi=0.1) that 64 rows find
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
_HALVINGS = 0.5 ** np.arange(_TRIALS)[:, None]
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
# a stacked block of more rows is scored in even chunks of at most this
# many, so a sweep's kernel memory does not grow with its size.  Per row,
# kernel calls of a few hundred rows are the fastest: against 512, this
# cap scored the 24-point asymptotic benchmark sweep 4-7% faster (six grid
# calls of 256 rows for three of 512) and tied on the 9-point finite one
# (2-core VM, paired passes); it also holds a 24-descent round of 12-row
# line searches in one call
_MAX_ROWS = 288


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

    ``evaluations`` counts kernel points scored: the coarse grid (64
    points over log10 m at S=1, 96 over (log10 mu_0, beta_A) otherwise;
    576 and 864 in block ``ec_mode``, which adds the v_0/sigma axis), then
    one stencil for the refinement's start (5, 11 or 19 points in one, two
    or three coordinates), 12, 18 or 26 per line search (8 halvings and the
    stencil at the full step) and another stencil for each step that wins
    shorter than full.
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
        if self.ec_mode not in _EC_MODES:
            raise DomainError(
                f"ec_mode must be one of {_EC_MODES}, got {self.ec_mode!r}"
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


def _threshold(symbols: SymbolBlock, sigma, fk, n, bounds: Bounds):
    """The best thresholds of a symbol block in the box: asymptotic, or
    pointwise finite; ``sigma`` and ``n`` are one per row or one for all."""
    v_lo, v_hi = (b * sigma for b in bounds.v_0_sigmas)
    if fk is None:
        return asymptotic_threshold(symbols, v_lo, v_hi)
    return pointwise_threshold(symbols, fk, v_lo, v_hi, n)


def _rate_block(points, delta, eta, xi, n, sys, fk, ec_mode, bounds):
    """The kernel block of decision vectors and its rates.

    Every row's angle has the calibration root ``delta``; ``eta``, ``xi``
    and ``n`` hold each row's transmittance, excess noise and block size,
    the last two as an array or as one value for all rows (``fk`` sets
    every other finite-key setting; ``n`` is None when ``fk`` is).  A row
    without a v_0/sigma entry gets the best threshold of its point (see
    :func:`_threshold`).
    """
    mu_0 = np.array([10.0 ** float(m) for m in points[:, 0]])
    symbols = symbol_block(mu_0, points[:, 1], delta, eta, xi, sys)
    sigma = noise_sigma(xi)
    if points.shape[1] == 3:
        v_0 = points[:, 2] * sigma
    else:
        v_0 = _threshold(symbols, sigma, fk, n, bounds)
    block = symbols.at(v_0)
    if fk is None:
        return block, asymptotic_rates(block)
    return block, finite_rates(block, fk, ec_mode, n=n)


def _at_rows(value, rows):
    """A per-row array at ``rows``; one value shared by every row (or None)
    as it is."""
    return value[rows] if isinstance(value, np.ndarray) else value


def _kernel(points, eta, xi, n, sys, fk, ec_mode, bounds):
    """Rates and thresholds at decision vectors, as one kernel block.

    Rows are (log10 mu_0, beta_A, v_0/sigma), or (log10 mu_0, beta_A) where
    the threshold is solved for (see :func:`_threshold`); ``eta``, ``xi``
    and ``n`` hold each row's transmittance, excess noise and block size,
    the last two as one value for all rows where they share it (see
    :func:`_rate_block`).  Returns the rates and each row's v_0/sigma; a
    row's values do not depend on the other rows.  Each distinct angle is
    calibrated once and the symbol means and chi are formed once for every
    row.  A row scores
    -inf where its angle has no calibration root, where its symbol means
    are degenerate, and where they are not ordered
    (m+ <= m-), since the threshold rule rests on m+ > m-.
    """
    angles = points[:, 1].tolist()
    # dict.fromkeys, not np.unique: the first np.unique in a process
    # imports numpy.ma
    roots = dict.fromkeys(angles, math.nan)
    for beta in roots:
        try:
            roots[beta] = calibrate_delta(beta, sys)
        except ScwError:
            pass
    delta = np.array([roots[beta] for beta in angles])
    ok = ~np.isnan(delta)
    rates = np.full(ok.size, -math.inf)
    v_sig = np.full(ok.size, math.nan)
    if not ok.any():
        return rates, v_sig
    xi = _at_rows(xi, ok)
    block, scored = _rate_block(
        points[ok], delta[ok], eta[ok], xi, _at_rows(n, ok),
        sys, fk, ec_mode, bounds,
    )
    invalid = block.degenerate | ~(block.mean_plus > block.mean_minus)
    rates[ok] = np.where(invalid, -math.inf, scored)
    v_sig[ok] = block.v_0 / noise_sigma(xi)
    return rates, v_sig


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


def _search_space(bounds: Bounds, sys: SystemParams, v_axis: bool):
    """Search box (lo, hi), grid shape and decoder to decision vectors.

    At S=1 the search runs over log10 m with m = mu_0 sin^2(beta_A), the
    only combination of the two that the rate depends on.  Each row
    decodes to the canonical point of its ridge:
    beta_A = min(beta_top, arcsin sqrt(m / mu_lo)) and
    mu_0 = m / sin^2(beta_A), both clipped to the box, with beta_top from
    :func:`_top_angle`.
    Otherwise the search runs over (log10 mu_0, beta_A) and the decoder is
    the identity.  With ``v_axis`` a last coordinate v_0/sigma is searched
    too and passed through as the decision vector's third entry.
    """
    if sys.S != 1:
        lo = [math.log10(bounds.mu_0[0]), bounds.beta_A[0]]
        hi = [math.log10(bounds.mu_0[1]), bounds.beta_A[1]]
        shape = _GRID_SHAPE

        def decode(points):
            return points

    else:
        mu_lo, mu_hi = bounds.mu_0
        beta_lo, beta_top = bounds.beta_A[0], _top_angle(bounds, sys)
        lo = [math.log10(mu_lo * math.sin(beta_lo) ** 2)]
        hi = [math.log10(mu_hi * math.sin(beta_top) ** 2)]
        shape = _RIDGE_GRID_SHAPE

        def decode(points):
            m = 10.0 ** points[:, 0]
            beta = np.arcsin(np.sqrt(np.minimum(1.0, m / mu_lo)))
            beta = np.clip(beta, beta_lo, beta_top)
            mu_0 = np.clip(m / np.sin(beta) ** 2, mu_lo, mu_hi)
            return np.column_stack([np.log10(mu_0), beta, points[:, 1:]])

    if v_axis:
        lo.append(bounds.v_0_sigmas[0])
        hi.append(bounds.v_0_sigmas[1])
    else:
        shape = shape[:-1]
    return np.array(lo), np.array(hi), shape, decode


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
    """Gradients of K points from the values ``f`` (K, n) at their stencils
    ``rows`` (K, n, dim).

    A stencil holds x, x + h e_i, x - h e_i and the curvature stencil,
    whose first rows are x + H e_i and x - H e_i with H = r h, all clipped
    to the box.  Where all four axis points scored a rate and the far pair
    is unclipped (``inside``), the central differences D(h) and D(H) cancel
    their h^2 error: (r^2 D(h) - D(H)) / (r^2 - 1).  Elsewhere a near side
    that was clipped onto x or scored no rate falls back to x, so the
    difference turns one-sided; with both sides gone the slope is 0.
    """
    x = rows[:, 0]
    k, dim = x.shape
    # the moved coordinate of each axis point
    at_up, at_down, at_far_up, at_far_down = (
        rows[:, 1 : 1 + 4 * dim].reshape(k, 4, dim, dim).diagonal(axis1=2, axis2=3)
    ).transpose(1, 0, 2)
    axis_f = f[:, 1 : 1 + 4 * dim].reshape(k, 4, dim)
    near_up, near_down, far_up, far_down = axis_f.transpose(1, 0, 2)
    finite = np.isfinite(axis_f)
    up_ok, down_ok = finite[:, 0], finite[:, 1]
    f_up = np.where(up_ok, near_up, f[:, :1])
    f_down = np.where(down_ok, near_down, f[:, :1])
    span = np.where(up_ok, at_up, x) - np.where(down_ok, at_down, x)
    grad = np.divide(f_up - f_down, span, out=np.zeros_like(x), where=span > 0.0)

    fourth = inside & finite.all(axis=1)
    far_diff = np.subtract(far_up, far_down, out=np.zeros_like(x), where=fourth)
    far_grad = np.divide(
        far_diff, at_far_up - at_far_down, out=np.zeros_like(x), where=fourth
    )
    r2 = (_CURVE_STEP / _STEP) ** 2
    return np.where(fourth, (r2 * grad - far_grad) / (r2 - 1.0), grad)


def _curvature(d, df) -> np.ndarray:
    """Least-squares Hessians of K points from displacements ``d`` (K, n,
    dim) and value changes ``df`` (K, n).

    Each row says df = d.H.d / 2 once the gradient term is removed.
    Displacements clipped onto the point, or points with no rate, drop out
    as zeroed rows; the minimum-norm solution, from one stacked SVD with
    lstsq's default cutoff, leaves entries the rest do not determine at 0.
    """
    dim = d.shape[2]
    i, j, weight = _hessian_terms(dim)
    ok = np.isfinite(df) & (np.abs(d).sum(axis=2) > 0.0)
    design = np.where(ok[:, :, None], d[:, :, i] * d[:, :, j] * weight, 0.0)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    kept = s > s[:, :1] * (np.finfo(float).eps * max(design.shape[1:]))
    proj = np.einsum("kni,kn->ki", u, np.where(ok, df, 0.0))
    coef = np.einsum(
        "kij,ki->kj", vt, np.divide(proj, s, out=np.zeros_like(s), where=kept)
    )
    hess = np.zeros((len(d), dim, dim))
    hess[:, i, j] = coef
    hess[:, j, i] = coef
    return hess


def _line_searches(x, rows, f, lo, hi, offsets):
    """The next line-search blocks of K descents, from the values ``f``
    (K, n) at the stencils ``rows`` (K, n, dim) of their points ``x``.

    Returns which descents go on, their gradients, and their Newton and
    steepest-descent blocks (K', 2, _TRIALS + n - 1, dim), or None for
    both when none goes on.  A block holds the step's halvings, clipped to
    the box, and the stencil at the full step.  A
    descent stops where no entry of the projected gradient exceeds _GTOL
    or no curvature is left.  Steps are in box-width units; a coordinate
    on a face whose gradient points out of the box is held.  The Newton
    step floors each curvature eigenvalue's magnitude at _EIG_FLOOR of the
    largest, the steepest-descent step goes to the minimum of the same
    quadratic model, and neither moves a coordinate more than _MAX_STEP.
    """
    dim = x.shape[1]
    width = hi - lo
    inside = (x - _CURVE_STEP * width >= lo) & (x + _CURVE_STEP * width <= hi)
    grad = _gradient(f, rows, inside)
    go = np.max(np.abs(x - np.clip(x - grad, lo, hi)), axis=1) > _GTOL
    if not go.any():
        return go, None, None
    x, rows, f, grad = x[go], rows[go], f[go], grad[go]
    # in box-width units from here on
    g, d = grad * width, (rows[:, 1 + 2 * dim :] - x[:, None]) / width
    df = f[:, 1 + 2 * dim :] - f[:, :1] - np.einsum("knd,kd->kn", d, g)
    free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
    # a held coordinate's curvature row and column and its gradient entry
    # are zeroed, so its eigenvector carries no step
    g = np.where(free, g, 0.0)
    pair = free[:, :, None] & free[:, None, :]
    lam, vec = np.linalg.eigh(np.where(pair, _curvature(d, df), 0.0))
    lam = np.abs(lam)
    top = lam.max(axis=1, keepdims=True)
    curved = top[:, 0] > 0.0
    if not curved.all():
        go[go] = curved
        x, grad, g, free, lam, vec, top = (
            a[curved] for a in (x, grad, g, free, lam, vec, top)
        )
    lam = np.maximum(lam, _EIG_FLOOR * top)
    proj = np.einsum("kij,ki->kj", vec, g)
    newton = -np.einsum("kij,kj->ki", vec, proj / lam)
    curve = np.einsum("kj,kj->k", proj**2, lam)[:, None]
    cauchy = -g * np.einsum("ki,ki->k", g, g)[:, None] / curve
    steps = np.where(free[:, None], np.stack([newton, cauchy], axis=1), 0.0)
    steps *= np.minimum(1.0, _MAX_STEP / np.abs(steps).max(axis=2, keepdims=True))
    trials = np.clip(x[:, None, None] + _HALVINGS * (steps * width)[:, :, None], lo, hi)
    ahead = np.clip(trials[:, :, :1] + offsets, lo, hi)
    return go, grad, np.concatenate([trials, ahead[:, :, 1:]], axis=2)


def _refine(starts, lo, hi):
    """Bounded Newton descents from each row of ``starts``, in lockstep, as
    a generator of the blocks they score.

    Each round it yields a dict from descent index to the next block of
    every unfinished descent and is sent a dict of their objective values,
    +inf where a point has no rate; it returns (x, points scored), one
    entry per descent.  One vectorised pass over a round's values advances
    every descent, using only elementwise operations, einsum and stacked
    linear algebra, so a descent's bits do not depend on the others.  A
    descent first scores the stencil at its start; then each line search
    (see :func:`_line_searches`) keeps its longest halving with a
    sufficient decrease, else tries the steepest-descent block, else
    returns x.  A full step that wins brings its stencil to the next
    iteration; a shorter winner has its stencil scored in a block of its
    own.
    """
    count, dim = starts.shape
    width = hi - lo
    small, far = np.diag(_STEP * width), _CURVE_STEP * width
    # the stencil of a point, as offsets from it: the point itself, the
    # near pair on each axis, then the curvature stencil
    offsets = np.vstack([np.zeros(dim), small, -small, _stencil(dim) * far])
    size = len(offsets)
    # the rows of a search block that form the stencil at its full step
    ahead = np.r_[0, _TRIALS : _TRIALS + size - 1]
    x, grad, f_x = starts.copy(), np.zeros_like(starts), np.zeros(count)
    # each descent's Newton and steepest-descent search blocks
    searches = np.zeros((count, 2, _TRIALS + size - 1, dim))
    # what each descent's pending block is: 0 its stencil, 1 or 2 a search
    stage, iters, n_eval = [0] * count, [0] * count, [0] * count
    blocks = {k: np.clip(x[k] + offsets, lo, hi) for k in range(count)}
    while blocks:
        sent, values = blocks, (yield blocks)
        blocks = {}
        for k in sent:
            n_eval[k] += len(values[k])
        at = [k for k in sent if stage[k] == 0]
        rows, f = [sent[k] for k in at], [values[k] for k in at]
        searched = [k for k in sent if stage[k]]
        if searched:
            block = np.array([sent[k] for k in searched])
            f_block = np.array([values[k] for k in searched])
            trials, f_trial = block[:, :_TRIALS], f_block[:, :_TRIALS]
            slope = np.einsum("ktd,kd->kt", trials - x[searched, None], grad[searched])
            f_0 = f_x[searched, None]
            ok = (f_trial < f_0) & (f_trial <= f_0 + _ARMIJO * slope)
            won, hit = np.argmax(ok, axis=1).tolist(), ok.any(axis=1).tolist()
            for i, k in enumerate(searched):
                if not hit[i]:
                    # no decrease: the steepest-descent search next, or x is kept
                    if stage[k] == 1:
                        stage[k], blocks[k] = 2, searches[k, 1]
                    continue
                x[k] = trials[i, won[i]]
                if iters[k] == _MAX_ITER:  # that was its last iteration
                    continue
                # a full step brings its stencil; a shorter winner is scored anew
                if won[i]:
                    stage[k], blocks[k] = 0, np.clip(x[k] + offsets, lo, hi)
                else:
                    at.append(k)
                    rows.append(block[i, ahead])
                    f.append(f_block[i, ahead])
        if at:
            f = np.array(f)
            go, g, found = _line_searches(x[at], np.array(rows), f, lo, hi, offsets)
            for k in at:
                iters[k] += 1
            at = [k for k, on in zip(at, go.tolist()) if on]
            if at:
                grad[at], f_x[at], searches[at] = g, f[go, 0], found
                for k in at:
                    stage[k], blocks[k] = 1, searches[k, 0]
    return x, n_eval


def _shared_or_each(values: list):
    """The one value every problem shares, else an array of one each.

    A shared value stays a scalar, so a one-point search, and a sweep of
    one noise level or block size, does no per-row work for it.
    """
    return values[0] if len(set(values)) == 1 else np.array(values, dtype=float)


def _chunks(size: int):
    """(start, stop) of the fewest even chunks of ``size`` rows that hold
    at most _MAX_ROWS rows each."""
    count = -(-size // _MAX_ROWS)
    edges = [size * i // count for i in range(count + 1)]
    return zip(edges, edges[1:])


def _optimize_group(problems, sys, ec_mode: str, bounds: Bounds) -> list:
    """Maximize the key rate at every (channel, finite-key settings) pair
    of ``problems``, in lockstep.

    The settings are None for every pair (asymptotic) or differ in the
    block size alone.  Returns one outcome per pair: an
    :class:`OptimumPoint`, or the :class:`InfeasibleError` of a pair whose
    coarse grid has no positive rate.  Every pair's grid is scored
    together; then each round of one batched descent (see :func:`_refine`)
    stacks the next block of every unfinished descent and advances them
    all in one vectorised step, and one last block scores every optimum
    for its report.  Each stack is one kernel call, or one per even chunk
    where it holds more than _MAX_ROWS rows, which bounds a call's memory.
    Since a kernel row and a descent's step depend on that row or descent
    alone, each outcome equals the one its pair gets alone.
    """
    fk = problems[0][1]
    v_axis = fk is not None and ec_mode == "block"
    lo, hi, shape, decode = _search_space(bounds, sys, v_axis)
    eta = np.array([ch.eta for ch, _ in problems])
    xi = _shared_or_each([ch.xi for ch, _ in problems])
    n = None if fk is None else _shared_or_each([f.n for _, f in problems])

    def channel_rows(of):
        """Transmittance, excess noise and block size of rows of problems ``of``."""
        return eta[of], _at_rows(xi, of), _at_rows(n, of)

    def score(blocks: dict, owner):
        """Rates and v_0/sigma of each block of rows; block k belongs to
        problem owner[k]."""
        sizes = [len(rows) for rows in blocks.values()]
        rows = decode(np.concatenate(list(blocks.values())))
        of = np.repeat(owner[list(blocks)], sizes)
        parts = [
            _kernel(rows[a:b], *channel_rows(of[a:b]), sys, fk, ec_mode, bounds)
            for a, b in _chunks(len(rows))
        ]
        rates = np.concatenate([r for r, _ in parts])
        v_sig = np.concatenate([v for _, v in parts])
        ends = list(accumulate(sizes))
        starts = [0] + ends[:-1]
        return [(k, rates[a:b], v_sig[a:b]) for k, a, b in zip(blocks, starts, ends)]

    points = _grid_points([np.linspace(a, b, size) for a, b, size in zip(lo, hi, shape)])
    outcomes = [None] * len(problems)
    grid_best, best_rate = {}, {}
    everyone = np.arange(len(problems))
    for k, rates, v_sig in score(dict.fromkeys(everyone.tolist(), points), everyone):
        # argmax takes the first maximum in axis order: ties go to the
        # smaller m or photon number
        best = np.argmax(rates)
        best_rate[k] = float(rates[best])
        if best_rate[k] > 0.0:
            grid_best[k] = points[best]
            continue
        vector = decode(points[best][None])[0]
        if not v_axis:
            vector = np.append(vector, v_sig[best])
        ch = problems[k][0]
        outcomes[k] = InfeasibleError(
            f"no positive rate on the {rates.size}-point coarse grid at "
            f"loss={ch.loss_db} dB, xi={ch.xi}",
            diagnostics={
                "best_rate": best_rate[k],
                "best_point": tuple(float(v) for v in vector),
                "grid_points": rates.size,
            },
        )
    if not grid_best:
        return outcomes

    # descent i refines problem done[i], in units of its grid best
    done = np.array(list(grid_best))
    descent = _refine(np.array(list(grid_best.values())), lo, hi)
    blocks = next(descent)
    try:
        while True:
            scored = score(blocks, done)
            values = {i: -rates / best_rate[done[i]] for i, rates, _ in scored}
            blocks = descent.send(values)
    except StopIteration as stop:
        x, n_eval = stop.value

    # the reported point of each optimum, scored once more for Q, P and chi
    vectors = decode(x)
    delta = np.array([calibrate_delta(float(b), sys) for b in vectors[:, 1]])
    for a, b in _chunks(len(done)):
        block, rates = _rate_block(
            vectors[a:b], delta[a:b], *channel_rows(done[a:b]), sys, fk, ec_mode, bounds
        )
        for i in range(a, b):
            stats, quantities = block.point(i - a)
            # plain floats: an np.float64 would print as np.float64(...) in reports
            tun = TunableParams(
                mu_0=10.0 ** float(vectors[i, 0]),
                beta_A=float(vectors[i, 1]),
                delta=float(delta[i]),
                v_0=float(block.v_0[i - a]),
                k_sample=fk.k_sample if fk is not None else 0,
            )
            outcomes[done[i]] = OptimumPoint(
                params=tun,
                rate=float(rates[i - a]),
                Q=stats.Q if stats is not None else None,
                P=stats.P if stats is not None else None,
                chi=quantities.chi_dr,
                evaluations=points.shape[0] + n_eval[i],
            )
    return outcomes


def optimize_point(
    ch: ChannelModel,
    sys: SystemParams,
    fk: FiniteKeyParams | None = None,
    ec_mode: str = "pointwise",
    bounds: Bounds = Bounds(),
) -> OptimumPoint:
    """Maximize the key rate at one channel point.

    The best point of a fixed coarse grid starts one bounded Newton
    descent (see :func:`_refine`).  At S=1 both run over log10 m and every
    point decodes to the canonical (mu_0, beta_A) of its equal-rate curve;
    otherwise they run over (log10 mu_0, beta_A) (see
    :func:`_search_space`).  The kernel sets each point's threshold (see
    :func:`_kernel`), except in block ``ec_mode``, where v_0/sigma is a
    last search coordinate.  Each line search scores one kernel block: the
    halvings of the step and the gradient and curvature stencil at the
    full step, with central differences that turn one-sided where a pair
    meets a face or a point without a calibration root.  Deterministic: no
    randomness enters at any stage.  This is the one-channel case of a
    sweep's lockstep search (:func:`_optimize_group`).

    Raises :class:`InfeasibleError` when no coarse-grid point has a
    positive rate, carrying the best grid diagnostics.
    """
    (outcome,) = _optimize_group([(ch, fk)], sys, ec_mode, bounds)
    if isinstance(outcome, InfeasibleError):
        raise outcome
    return outcome


def _report(ch: ChannelModel, fk, outcome) -> KeyRateReport:
    """The sweep row of an OptimumPoint, or of the exception raised instead."""
    n = fk.n if fk is not None else None
    if isinstance(outcome, OptimumPoint):
        return KeyRateReport(
            loss_db=ch.loss_db, xi=ch.xi, n=n, rate=outcome.rate, Q=outcome.Q,
            P=outcome.P, chi=outcome.chi, params=outcome.params, status="ok",
        )
    if isinstance(outcome, InfeasibleError):
        status = "infeasible"
    else:
        status = f"error: {type(outcome).__name__}: {outcome}"
    return KeyRateReport(
        loss_db=ch.loss_db, xi=ch.xi, n=n, rate=0.0,
        Q=None, P=None, chi=None, params=None, status=status,
    )


def _alone(ch: ChannelModel, fk, sys, ec_mode: str, bounds: Bounds):
    """What :func:`optimize_point` returns at one channel, or the exception it raises."""
    try:
        return optimize_point(ch, sys, fk, ec_mode, bounds)
    except Exception as exc:  # record, never abort the sweep
        return exc


def thread_count(n_tasks: int) -> int:
    """Processes a sweep runs in: always 1, since a sweep scores all its
    points together, one kernel call (per chunk of rows) per round."""
    # kept only for perfbench/worker.py, which imports it and reports it
    # as the sweep worker count
    return 1


def sweep(spec: SweepSpec, sys: SystemParams) -> list[KeyRateReport]:
    """Optimize every (noise, block-size, loss) grid point.

    Every point of the sweep is optimized in one lockstep search (see
    :func:`_optimize_group`), in one process: each round scores a block
    for every unfinished point, in one kernel call per chunk of at most
    _MAX_ROWS rows, and each row equals its own :func:`optimize_point`.
    When a shared call raises, the points are optimized again one at a
    time, so only the point at fault records the error.  The output order
    follows the grid index (noise level outermost, loss innermost), and
    per-point failures are recorded in the report status rather than
    raised.
    """
    fks = [None]
    if spec.n_values is not None:
        fks = [
            replace(spec.fk_template or FiniteKeyParams(n=n), n=n)
            for n in spec.n_values
        ]
    problems = [
        (ChannelModel(loss_db=loss, xi=xi), fk)
        for xi in spec.noise_levels
        for fk in fks
        for loss in spec.loss_grid
    ]
    args = (sys, spec.ec_mode, spec.bounds)
    try:
        outcomes = _optimize_group(problems, *args)
    except Exception:
        outcomes = [_alone(ch, fk, *args) for ch, fk in problems]
    return [_report(ch, fk, o) for (ch, fk), o in zip(problems, outcomes)]
