"""Key-rate maximization over protocol knobs, and loss-grid sweeps.

The decision variables are the carrier photon number (searched in log
space), Alice's modulation angle, and the post-selection threshold, boxed
in readout-sigma units.  The modulation-depth ratio delta is never free: it
is re-derived from the calibration condition at every angle, and
finite-block searches charge the configured parameter-estimation count.

The threshold is never searched: the kernel solves for it.  The
asymptotic and pointwise finite rates' derivative in v_0 is minus the
secret fraction at v_0, so v_0 sits where that fraction crosses zero
(:func:`security.asymptotic_threshold`,
:func:`finitekey.pointwise_threshold`).  Block ``ec_mode`` charges a flat
ceil(n f_EC h(Q + dQ))/n that moves with v_0; its threshold is the left
end of the syndrome step that holds the peak of the rate without the ceil
(:func:`finitekey.block_threshold`), all clipped to the box.

At S=1 the rate depends on photon number and angle only through
m = mu_0 sin^2(beta_A), so the search runs over log10 m and decodes
every point to the canonical point of its ridge: the largest in-box
angle that has a calibration root, lowered where the photon number
m / sin^2(beta_A) would fall below its bound.  For S>1 it runs over
(log10 mu_0, beta_A) itself.

The search is a deterministic two-stage scheme: a fixed coarse grid, 64
points in one coordinate or 12 x 8 in two, scored as one kernel block,
picks a start; grid ties go to the first point in axis order, so the
smaller m or photon number wins.  A bounded Newton descent then refines
the start.  The stencil of a point is 5 or 11 points in one or two
coordinates: the point, a central-difference pair on each axis for the
gradient, and a curvature stencil of axis and diagonal pairs, whose axis
pairs also cancel the gradient's h^2 error.  In one coordinate the two
axis pairs also measure the third derivative, and the Newton step takes
Chebyshev's third-order correction (Traub, Iterative Methods for the
Solution of Equations, 1964), which saves about one iteration per S=1
optimum; in two, the stencil does not fix the mixed third derivatives,
so the step stays Newton's.  The start's stencil is one kernel block.
Each line search is one block of 12 or 18 points: 8
halvings of the step and the stencil at the full step, so a full step
that wins needs no further call; a shorter winner has its stencil scored
in a block of its own.  When no Newton trial decreases, a steepest-descent
step is searched the same way.  It stops when the largest entry of the
projected gradient is at most 1e-7.
``OptimumPoint.evaluations`` counts the kernel points scored.

Kernel calls, not points, set the search's time, so a sweep optimizes
all its (noise level, block size, loss) points in lockstep, in one
process.  The kernel takes each row's transmittance, excess noise and
block size as arrays, one entry per row, even where every row shares a
value, so a one-point search and a sweep pass the same form.  One kernel
call scores every point's coarse grid; then each round stacks every
unfinished descent's next block into one array, scores it in one call
and advances every descent in one vectorised step.  A descent ends on a
row it has scored, so each optimum is reported from that row's record:
its rate and parameters as scored, with Q and P (the only tail masses
the asymptotic and pointwise searches form) computed for the reported
rows alone.  A call forms its (rows, 48) node arrays in blocks of at
most _MAX_ROWS rows, and a stack of more than _MAX_CALL_ROWS rows is
scored in even calls, which bounds a call's memory whatever the sweep's
size.  A kernel row and a descent's step depend on that row or descent
alone, to the last bit, so every sweep row equals what
:func:`optimize_point`, the one-point case, returns for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import _EC_MODES, Bounds, FiniteKeyParams
from .errors import DomainError, InfeasibleError, ScwError
from .finitekey import block_threshold, finite_rates, pointwise_threshold
from .noise import P_FLOOR, ChannelModel, _distinct, decision_masses
from .optics import SystemParams, TunableParams, calibrate_delta
from .security import SymbolBlock, asymptotic_rates, asymptotic_threshold, symbol_block

# coarse-grid resolution per axis over (log10 mu_0, beta_A)
_GRID_SHAPE = (12, 8)
# coarse-grid resolution over log10 m at S=1: 0.095 decades in m on the
# default box; 24 rows miss feasible pockets near the cutoff (0.085
# decades wide at 9 dB, xi=0.1) that 64 rows find
_RIDGE_GRID_SHAPE = (64,)
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
# a kernel call forms its node stage (the (rows, 48) readout profiles and
# their integral) in even blocks of at most this many rows; its per-row
# stages (calibration, symbol means, threshold, record) run once for the
# whole call.  Per row, node stages of a few hundred rows are the fastest:
# when each block was its own call, this cap scored the 24-point
# asymptotic benchmark sweep 4-7% faster than 512 (2-core VM, paired
# passes).  That sweep's 1536 grid rows are now one call of six blocks of
# 256
_MAX_ROWS = 288
# a stack of more rows is scored in even kernel calls of at most this many,
# since a call holds its per-row stages for all its rows at once: a
# 360-point S=3 block-mode sweep (34,560 grid rows) peaked at 99.0 MiB
# with no cap and at 87.8 MiB with this one (parent, 288-row calls:
# 88.5 MiB; fresh interpreters, 2-core VM); every round of the benchmark
# sweeps, their grids included, is one call
_MAX_CALL_ROWS = 4096


@dataclass(frozen=True)
class OptimumPoint:
    """Best parameters found for one channel point and the rate there.

    ``evaluations`` counts kernel points scored: the coarse grid (64
    points over log10 m at S=1, 96 over (log10 mu_0, beta_A) otherwise),
    then one stencil for the refinement's start (5 or 11 points in one or
    two coordinates), 12 or 18 per line search (8 halvings and the stencil
    at the full step) and another stencil for each step that wins shorter
    than full: about 93 in all at S=1, where most optima take two line
    searches, and 205 at S=3 (the optimum gate's points).  The rate,
    parameters and chi are those of the kernel row that scored the
    optimum, and Q and P are formed from that row's threshold and symbol
    means; the one-point rate functions at ``params`` reproduce them.
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


def _threshold(symbols: SymbolBlock, fk, ec_mode, n, bounds: Bounds):
    """The best thresholds of a symbol block in the box: asymptotic, or
    finite in ``ec_mode`` with the rows' block sizes ``n``."""
    v_lo, v_hi = (b * symbols.sigma for b in bounds.v_0_sigmas)
    if fk is None:
        return asymptotic_threshold(symbols, v_lo, v_hi)
    if ec_mode == "block":
        return block_threshold(symbols, fk, v_lo, v_hi, n)
    return pointwise_threshold(symbols, fk, v_lo, v_hi, n)


def _kernel(points, eta, xi, n, sys, fk, ec_mode, bounds):
    """Rates of decision vectors, in one kernel call, and a record of each row.

    Rows are (log10 mu_0, beta_A), and the kernel sets each row's
    threshold (see :func:`_threshold`); ``eta``, ``xi`` and ``n`` are
    (N,) arrays of each row's transmittance, excess noise and block size
    (``fk`` sets every other finite-key setting; ``n`` is None when ``fk``
    is).  Returns the rates and a record of each row, an (N, 8) array of
    its working point, threshold and what its report is formed from:
    mu_0, beta_A, delta, v_0, sigma, m+, m- and chi.  A row's values do
    not depend on the other rows.  Each distinct angle is calibrated once,
    and the symbol means, chi and thresholds are formed once for every
    row; only the node stage and the rates run in even blocks of at most
    _MAX_ROWS rows.  A row scores -inf, with a NaN record,
    where its angle has no calibration root; it scores -inf where its
    symbol means are degenerate, and where they are not ordered
    (m+ <= m-), since the threshold rules rest on m+ > m-.
    """
    angles, inverse = _distinct(points[:, 1])
    roots = np.full(angles.size, math.nan)
    for i, beta in enumerate(angles.tolist()):
        try:
            roots[i] = calibrate_delta(beta, sys)
        except ScwError:
            pass
    delta = roots[inverse]
    ok = ~np.isnan(delta)
    rates = np.full(ok.size, -math.inf)
    record = np.full((ok.size, 8), math.nan)
    if not ok.any():
        return rates, record
    if not ok.all():
        points, delta, eta, xi = points[ok], delta[ok], eta[ok], xi[ok]
        n = None if n is None else n[ok]
    mu_0 = 10.0 ** points[:, 0]
    symbols = symbol_block(mu_0, points[:, 1], delta, eta, xi, sys)
    v_0 = _threshold(symbols, fk, ec_mode, n, bounds)
    scored = np.empty(v_0.shape)
    for a, b in _chunks(v_0.size, _MAX_ROWS):
        rows = slice(a, b)
        block = SymbolBlock(
            **{name: value[rows] for name, value in vars(symbols).items()}
        ).at(v_0[rows])
        if fk is None:
            scored[rows] = asymptotic_rates(block)
        else:
            scored[rows] = finite_rates(block, fk, ec_mode, n[rows])
    plus, minus = symbols.mean_plus, symbols.mean_minus
    invalid = symbols.degenerate | ~(plus > minus)
    rates[ok] = np.where(invalid, -math.inf, scored)
    record[ok] = np.column_stack([
        mu_0, points[:, 1], delta, v_0, symbols.sigma, plus, minus, symbols.chi,
    ])
    return rates, record


def _clip(a, lo, hi):
    """np.clip(a, lo, hi), the same values at a third of its cost on the
    few-row arrays of a descent."""
    return np.minimum(np.maximum(a, lo), hi)


@lru_cache(maxsize=16)
def _grid_points(lo: tuple, hi: tuple, shape: tuple) -> np.ndarray:
    """Rows of every point of the evenly spaced grid of ``shape`` points
    over the box (lo, hi), the last axis fastest; read-only, since it is
    cached."""
    axes = [np.linspace(a, b, size) for a, b, size in zip(lo, hi, shape)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    points.flags.writeable = False
    return points


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

    At S=1 the search runs over log10 m with m = mu_0 sin^2(beta_A), the
    only combination of the two that the rate depends on.  Each row
    decodes to the canonical point of its ridge:
    beta_A = min(beta_top, arcsin sqrt(m / mu_lo)) and
    mu_0 = m / sin^2(beta_A), both clipped to the box, with beta_top from
    :func:`_top_angle`.
    Otherwise the search runs over (log10 mu_0, beta_A) and the decoder is
    the identity.
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
            beta = _clip(beta, beta_lo, beta_top)
            mu_0 = _clip(m / np.sin(beta) ** 2, mu_lo, mu_hi)
            return np.column_stack([np.log10(mu_0), beta])

    return np.array(lo), np.array(hi), shape, decode


@lru_cache(maxsize=None)
def _stencil(dim: int):
    """The stencil of a point in box-width units, as offsets from it, and
    the rows of a search block that form the stencil at its full step.

    The point itself, the near pair on each axis (_STEP), then the
    curvature stencil (_CURVE_STEP): an axis pair per coordinate (all +
    rows, then all - rows), then a pair along each diagonal of two
    coordinates.  5 rows in 1-D, 11 in 2-D.
    """
    i, j = np.triu_indices(dim, 1)
    axes = np.eye(dim)
    diagonals = axes[i] + axes[j]
    curvature = np.vstack([axes, -axes, diagonals, -diagonals])
    offsets = np.vstack(
        [np.zeros(dim), _STEP * axes, -_STEP * axes, _CURVE_STEP * curvature]
    )
    return offsets, np.r_[0, _TRIALS : _TRIALS + len(offsets) - 1]


@lru_cache(maxsize=None)
def _hessian_terms(dim: int):
    """Indices (i, j), i <= j, of the Hessian entries and their weights.

    d.H.d / 2 is the sum of weight * H_ij * d_i * d_j over those entries.
    """
    i, j = np.triu_indices(dim)
    return i, j, np.where(i == j, 0.5, 1.0)


def _gradient(f, rows, inside):
    """Gradients of K points from the values ``f`` (K, n) at their stencils
    ``rows`` (K, n, dim), and in one coordinate the spread D(H) - D(h).

    A stencil holds x, x + h e_i, x - h e_i and the curvature stencil,
    whose first rows are x + H e_i and x - H e_i with H = r h, all clipped
    to the box.  Where all four axis points scored a rate and the far pair
    is unclipped (``inside``), the central differences D(h) and D(H) cancel
    their h^2 error: (r^2 D(h) - D(H)) / (r^2 - 1).  Elsewhere a near side
    that was clipped onto x or scored no rate falls back to x, so the
    difference turns one-sided; with both sides gone the slope is 0.  The
    spread, which is the third derivative times (H^2 - h^2) / 6 up to
    rounding, is 0 where no cancellation is made, and None in more than
    one coordinate.
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
    grad = np.divide(f_up - f_down, span, out=np.zeros(x.shape), where=span > 0.0)

    fourth = inside & finite.all(axis=1)
    far_diff = np.subtract(far_up, far_down, out=np.zeros(x.shape), where=fourth)
    far_grad = np.divide(
        far_diff, at_far_up - at_far_down, out=np.zeros(x.shape), where=fourth
    )
    r2 = (_CURVE_STEP / _STEP) ** 2
    richardson = np.where(fourth, (r2 * grad - far_grad) / (r2 - 1.0), grad)
    if dim > 1:
        return richardson, None
    return richardson, np.subtract(far_grad, grad, out=np.zeros(x.shape), where=fourth)


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
        "kij,ki->kj", vt, np.divide(proj, s, out=np.zeros(s.shape), where=kept)
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
    step s floors each curvature eigenvalue's magnitude at _EIG_FLOOR of
    the largest.  In one coordinate, where both axis pairs scored a rate
    and the far pair is unclipped, it takes the third derivative t along
    the axis, 6 (D(H) - D(h)) / (H^2 - h^2) from the two central
    differences (see :func:`_gradient`), and Chebyshev's step
    -H^-1 (g + t s^2 / 2) in the same eigenbasis.  The steepest-descent
    step goes to the minimum of the quadratic model, and neither step
    moves a coordinate more than _MAX_STEP.
    """
    dim = x.shape[1]
    width = hi - lo
    inside = (x - _CURVE_STEP * width >= lo) & (x + _CURVE_STEP * width <= hi)
    grad, spread = _gradient(f, rows, inside)
    go = np.max(np.abs(x - _clip(x - grad, lo, hi)), axis=1) > _GTOL
    if not go.any():
        return go, None, None
    x, rows, f, grad = x[go], rows[go], f[go], grad[go]
    # in one coordinate, the third derivative along it in box-width units
    third = None if spread is None else (
        6.0 * (spread[go] * width) / (_CURVE_STEP**2 - _STEP**2)
    )
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
        if third is not None:
            third = third[curved]
    lam = np.maximum(lam, _EIG_FLOOR * top)
    proj = np.einsum("kij,ki->kj", vec, g)
    newton = -np.einsum("kij,kj->ki", vec, proj / lam)
    if third is not None:
        # Chebyshev's correction, toward a root of g + H s + t s^2 / 2
        cubic = np.einsum("kij,ki->kj", vec, 0.5 * third * newton**2)
        newton = -np.einsum("kij,kj->ki", vec, (proj + cubic) / lam)
    curve = np.einsum("kj,kj->k", proj**2, lam)[:, None]
    cauchy = -g * np.einsum("ki,ki->k", g, g)[:, None] / curve
    steps = np.where(free[:, None], np.stack([newton, cauchy], axis=1), 0.0)
    steps *= np.minimum(1.0, _MAX_STEP / np.abs(steps).max(axis=2, keepdims=True))
    trials = _clip(x[:, None, None] + _HALVINGS * (steps * width)[:, :, None], lo, hi)
    ahead = _clip(trials[:, :, :1] + offsets, lo, hi)
    return go, grad, np.concatenate([trials, ahead[:, :, 1:]], axis=2)


def _refine(starts, lo, hi):
    """Bounded Newton descents from each row of ``starts``, in lockstep, as
    a generator of the rows they score.

    Each round it yields the next block of every unfinished descent,
    stacked as one (rows, dim) array with each descent's block contiguous
    (pending stencils first, then line searches), and the descent each row
    belongs to, and is sent one objective value per row, +inf where a
    point has no rate.  It returns x (K, dim), the points each descent
    scored (K,) and origin (K, 2).  x is always a row the descent scored:
    its origin is (-1, -1) where x is the start, else (round, row), the
    row of the stack yielded in that round (counted from 0) that x was
    scored as.  One vectorised pass over a round's values advances every
    descent, using only elementwise operations, einsum and stacked linear
    algebra, so a descent's bits do not depend on the others.  A descent
    first scores the stencil at its start; then each line search (see
    :func:`_line_searches`) keeps its longest halving with a sufficient
    decrease, else tries the steepest-descent block, else returns x.  A
    full step that wins brings its stencil to the next iteration; a
    shorter winner has its stencil scored in a block of its own.
    """
    count, dim = starts.shape
    unit, ahead = _stencil(dim)
    offsets = unit * (hi - lo)
    size = len(offsets)
    length = _TRIALS + size - 1
    x, grad, f_x = starts.copy(), np.zeros_like(starts), np.zeros(count)
    # each descent's next search block, and its steepest-descent one
    queued, steepest = np.zeros((2, count, length, dim))
    iters, origin = np.zeros(count, dtype=int), np.full((count, 2), -1)
    # the descents whose stencil is pending, and those whose search is:
    # first those whose Newton block is queued, then the rest
    pending, searching, newton = np.arange(count), np.arange(0), 0
    # the descent of each row, one array per round
    owners = []
    while pending.size or searching.size:
        stencils = _clip(x[pending, None] + offsets, lo, hi)
        blocks = queued[searching]
        owners.append(
            np.concatenate([np.repeat(pending, size), np.repeat(searching, length)])
        )
        values = yield (
            np.concatenate([stencils.reshape(-1, dim), blocks.reshape(-1, dim)]),
            owners[-1],
        )
        split = pending.size * size
        # the descents that take a line search from a scored stencil
        at, rows, f = pending, stencils, values[:split].reshape(-1, size)
        pending = retry = searching[:0]
        if searching.size:
            f_block = values[split:].reshape(-1, length)
            trials, f_trial = blocks[:, :_TRIALS], f_block[:, :_TRIALS]
            slope = np.einsum("ktd,kd->kt", trials - x[searching, None], grad[searching])
            f_0 = f_x[searching, None]
            ok = (f_trial < f_0) & (f_trial <= f_0 + _ARMIJO * slope)
            won, hit = np.argmax(ok, axis=1), ok.any(axis=1)
            # no decrease: the steepest-descent search next, or x is kept
            retry = searching[:newton][~hit[:newton]]
            (hit,) = np.nonzero(hit)
            won, winners = won[hit], searching[hit]
            x[winners] = trials[hit, won]
            origin[winners, 0] = len(owners) - 1
            origin[winners, 1] = split + hit * length + won
            # a winner on its last iteration stops there; otherwise a full
            # step brings its stencil and a shorter winner is scored anew
            live = iters[winners] < _MAX_ITER
            full, pending = hit[live & (won == 0)], winners[live & (won > 0)]
            if full.size:
                at = np.concatenate([at, searching[full]])
                rows = np.concatenate([rows, blocks[full][:, ahead]])
                f = np.concatenate([f, f_block[full][:, ahead]])
            if retry.size:
                queued[retry] = steepest[retry]
        searching, newton = retry, 0
        if at.size:
            go, g, found = _line_searches(x[at], rows, f, lo, hi, offsets)
            iters[at] += 1
            if found is not None:
                on = at[go]
                grad[on], f_x[on] = g, f[go, 0]
                queued[on], steepest[on] = found[:, 0], found[:, 1]
                searching, newton = np.concatenate([on, retry]), on.size
    return x, np.bincount(np.concatenate(owners), minlength=count), origin


def _chunks(size: int, cap: int):
    """(start, stop) of the fewest even chunks of ``size`` rows that hold
    at most ``cap`` rows each."""
    count = -(-size // cap)
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
    all in one vectorised step.  The grid and each stack are one kernel
    call, or one per even part where they hold more than _MAX_CALL_ROWS
    rows, which bounds a call's memory.  Each optimum is reported from the
    kernel row that scored it, with Q and P formed for those rows alone.
    Since a kernel row and a descent's step depend on that row or descent
    alone, each outcome equals the one its pair gets alone.
    """
    fk = problems[0][1]
    lo, hi, shape, decode = _search_space(bounds, sys)
    eta = np.array([ch.eta for ch, _ in problems])
    xi = np.array([ch.xi for ch, _ in problems])
    n = None if fk is None else np.array([f.n for _, f in problems], dtype=float)

    def score(rows, owner):
        """Rates and records of decision rows; row i belongs to problem owner[i]."""
        rows = decode(rows)
        rates, record = np.empty(len(rows)), np.empty((len(rows), 8))
        for a, b in _chunks(len(rows), _MAX_CALL_ROWS):
            of = owner[a:b]
            rates[a:b], record[a:b] = _kernel(
                rows[a:b], eta[of], xi[of], None if n is None else n[of],
                sys, fk, ec_mode, bounds,
            )
        return rates, record

    points = _grid_points(tuple(lo.tolist()), tuple(hi.tolist()), shape)
    count, size = len(problems), len(points)
    rates, records = score(
        np.tile(points, (count, 1)), np.repeat(np.arange(count), size)
    )
    rates, records = rates.reshape(count, size), records.reshape(count, size, 8)
    # argmax takes the first maximum in axis order: ties go to the smaller
    # m or photon number
    best = np.argmax(rates, axis=1)
    best_rate = rates[np.arange(count), best]
    feasible = np.flatnonzero(best_rate > 0.0)
    outcomes = [None] * count
    for k in np.flatnonzero(~(best_rate > 0.0)).tolist():
        _, _, _, v_0, sigma, *_ = records[k, best[k]]
        vector = np.append(decode(points[best[k]][None])[0], v_0 / sigma)
        ch = problems[k][0]
        outcomes[k] = InfeasibleError(
            f"no positive rate on the {size}-point coarse grid at "
            f"loss={ch.loss_db} dB, xi={ch.xi}",
            diagnostics={
                "best_rate": float(best_rate[k]),
                "best_point": tuple(float(v) for v in vector),
                "grid_points": size,
            },
        )
    if not feasible.size:
        return outcomes

    # descent i refines problem feasible[i], in units of its grid best
    start_rate = best_rate[feasible]
    descent = _refine(points[best[feasible]], lo, hi)
    rows, index = next(descent)
    # every round's scored rows, to report each optimum from
    history = []
    try:
        while True:
            history.append(score(rows, feasible[index]))
            rows, index = descent.send(-history[-1][0] / start_rate[index])
    except StopIteration as stop:
        _, n_eval, origin = stop.value

    # each optimum's rate and record, from the row that scored it
    found = [
        (best_rate[k], records[k, best[k]]) if r < 0
        else (history[r][0][row], history[r][1][row])
        for k, (r, row) in zip(feasible.tolist(), origin.tolist())
    ]
    mu_0, beta_A, delta, v_0, sigma, plus, minus, chi = np.array(
        [record for _, record in found]
    ).T
    E, P = decision_masses(v_0, plus, minus, sigma)
    for i, k in enumerate(feasible.tolist()):
        # plain floats: an np.float64 would print as np.float64(...) in reports
        accepted = P[i] >= P_FLOOR
        outcomes[k] = OptimumPoint(
            params=TunableParams(
                mu_0=float(mu_0[i]), beta_A=float(beta_A[i]), delta=float(delta[i]),
                v_0=float(v_0[i]), k_sample=fk.k_sample if fk is not None else 0,
            ),
            rate=float(found[i][0]),
            Q=float(E[i]) / float(P[i]) if accepted else None,
            P=float(P[i]) if accepted else None,
            chi=float(chi[i]),
            evaluations=size + int(n_eval[i]),
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
    :func:`_search_space`).  The kernel sets each point's threshold in
    every mode (see :func:`_threshold`).  Each line search scores one
    kernel block: the halvings of the step and the gradient and curvature
    stencil at the full step, with central differences that turn one-sided
    where a pair meets a face or a point without a calibration root.
    Deterministic: no randomness enters at any stage.  This is the
    one-channel case of a sweep's lockstep search (:func:`_optimize_group`).

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
    points together, one kernel call per round (per _MAX_CALL_ROWS rows)."""
    # kept only for perfbench/worker.py, which imports it and reports it
    # as the sweep worker count
    return 1


def sweep(spec: SweepSpec, sys: SystemParams) -> list[KeyRateReport]:
    """Optimize every (noise, block-size, loss) grid point.

    Every point of the sweep is optimized in one lockstep search (see
    :func:`_optimize_group`), in one process: each round scores a block
    for every unfinished point, in one kernel call per even part of at
    most _MAX_CALL_ROWS rows, and each row equals its own
    :func:`optimize_point`.
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
