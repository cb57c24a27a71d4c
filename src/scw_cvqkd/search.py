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
all losses of one (noise level, block size) pair in lockstep, in one
process: one kernel call scores every channel's coarse grid, then each
round stacks every unfinished descent's next block into one call, and a
last block scores every optimum for its report.  A kernel row depends on
that row alone, to the last bit, so every sweep row equals what
:func:`optimize_point`, the one-channel case, returns for it.
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


def _threshold(symbols: SymbolBlock, sigma: float, fk, bounds: Bounds):
    """The best thresholds of a symbol block in the box: asymptotic, or
    pointwise finite."""
    v_lo, v_hi = (b * sigma for b in bounds.v_0_sigmas)
    if fk is None:
        return asymptotic_threshold(symbols, v_lo, v_hi)
    return pointwise_threshold(symbols, fk, v_lo, v_hi)


def _rate_block(points, delta, eta, xi: float, sys, fk, ec_mode, bounds):
    """The kernel block of decision vectors and its rates.

    Every row's angle has the calibration root ``delta``; ``eta`` holds
    each row's transmittance.  A row without a v_0/sigma entry gets the
    best threshold of its point (see :func:`_threshold`).
    """
    mu_0 = np.array([10.0 ** float(m) for m in points[:, 0]])
    symbols = symbol_block(mu_0, points[:, 1], delta, eta, xi, sys)
    sigma = noise_sigma(xi)
    if points.shape[1] == 3:
        v_0 = points[:, 2] * sigma
    else:
        v_0 = _threshold(symbols, sigma, fk, bounds)
    block = symbols.at(v_0)
    if fk is None:
        return block, asymptotic_rates(block)
    return block, finite_rates(block, fk, ec_mode)


def _kernel(points, eta, xi: float, sys, fk, ec_mode, bounds):
    """Rates and thresholds at decision vectors, as one kernel block.

    Rows are (log10 mu_0, beta_A, v_0/sigma), or (log10 mu_0, beta_A) where
    the threshold is solved for (see :func:`_threshold`); ``eta`` holds
    each row's transmittance, and every row has the excess noise ``xi``.
    Returns the rates and each row's v_0/sigma; a row's values do not
    depend on the other rows.  Each distinct angle is calibrated once and
    the symbol means and chi are formed once for every row.  A row scores
    -inf where its angle has no calibration root, where its symbol means
    are degenerate, and where they are not ordered
    (m+ <= m-), since the threshold rule rests on m+ > m-.
    """
    beta_A = points[:, 1]
    delta = np.full(beta_A.size, math.nan)
    # dict.fromkeys, not np.unique: the first np.unique in a process
    # imports numpy.ma
    for beta in dict.fromkeys(beta_A.tolist()):
        try:
            delta[beta_A == beta] = calibrate_delta(beta, sys)
        except ScwError:
            pass
    ok = ~np.isnan(delta)
    rates = np.full(ok.size, -math.inf)
    v_sig = np.full(ok.size, math.nan)
    if not ok.any():
        return rates, v_sig
    block, scored = _rate_block(
        points[ok], delta[ok], eta[ok], xi, sys, fk, ec_mode, bounds
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


def _refine(x, lo, hi):
    """Bounded Newton descent from x, as a generator of the blocks it scores.

    It yields each block of rows to score and is sent back their objective
    values, +inf where a point has no rate; it returns (x, points scored).
    The caller may score many descents' blocks in one kernel call.  Steps
    are formed in box-width units.  A coordinate
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
            f = yield rows
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
            f_ahead = yield np.vstack([trials, ahead[1:]])
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




def _optimize_group(channels, sys, fk, ec_mode: str, bounds: Bounds) -> list:
    """Maximize the key rate at channels of one excess noise, in lockstep.

    Returns one outcome per channel: an :class:`OptimumPoint`, or the
    :class:`InfeasibleError` of a channel whose coarse grid has no
    positive rate.  Every channel's grid is scored in one kernel call.
    Then each round stacks the next block of every unfinished descent
    (see :func:`_refine`) into one kernel call, and one last block scores
    every optimum for its report.  Since a kernel row depends on that row
    alone, each outcome equals the one its channel gets alone.
    """
    v_axis = fk is not None and ec_mode == "block"
    lo, hi, shape, decode = _search_space(bounds, sys, v_axis)
    xi = channels[0].xi
    eta = np.array([ch.eta for ch in channels])

    def score(blocks: dict):
        """Rates and v_0/sigma of each channel's rows, from one kernel call."""
        sizes = [len(rows) for rows in blocks.values()]
        rates, v_sig = _kernel(
            decode(np.concatenate(list(blocks.values()))),
            np.repeat(eta[list(blocks)], sizes), xi, sys, fk, ec_mode, bounds,
        )
        ends = list(accumulate(sizes))
        starts = [0] + ends[:-1]
        return [(k, rates[a:b], v_sig[a:b]) for k, a, b in zip(blocks, starts, ends)]

    points = _grid_points([np.linspace(a, b, size) for a, b, size in zip(lo, hi, shape)])
    outcomes = [None] * len(channels)
    descents, pending, best_rate = {}, {}, {}
    for k, rates, v_sig in score(dict.fromkeys(range(len(channels)), points)):
        # argmax takes the first maximum in axis order: ties go to the
        # smaller m or photon number
        best = np.argmax(rates)
        best_rate[k] = float(rates[best])
        if best_rate[k] > 0.0:
            descents[k] = _refine(points[best], lo, hi)
            pending[k] = next(descents[k])
            continue
        vector = decode(points[best][None])[0]
        if not v_axis:
            vector = np.append(vector, v_sig[best])
        ch = channels[k]
        outcomes[k] = InfeasibleError(
            f"no positive rate on the {rates.size}-point coarse grid at "
            f"loss={ch.loss_db} dB, xi={ch.xi}",
            diagnostics={
                "best_rate": best_rate[k],
                "best_point": tuple(float(v) for v in vector),
                "grid_points": rates.size,
            },
        )

    optima = {}
    while pending:
        for k, rates, _ in score(pending):
            try:
                pending[k] = descents[k].send(-rates / best_rate[k])
            except StopIteration as stop:
                optima[k] = stop.value
                del pending[k]
    if not optima:
        return outcomes

    # the reported point of each optimum, scored once more for Q, P and chi
    done = sorted(optima)
    vectors = decode(np.array([optima[k][0] for k in done]))
    delta = np.array([calibrate_delta(float(b), sys) for b in vectors[:, 1]])
    block, rates = _rate_block(vectors, delta, eta[done], xi, sys, fk, ec_mode, bounds)
    for i, k in enumerate(done):
        stats, quantities = block.point(i)
        # plain floats: an np.float64 would print as np.float64(...) in reports
        tun = TunableParams(
            mu_0=10.0 ** float(vectors[i, 0]),
            beta_A=float(vectors[i, 1]),
            delta=float(delta[i]),
            v_0=float(block.v_0[i]),
            k_sample=fk.k_sample if fk is not None else 0,
        )
        outcomes[k] = OptimumPoint(
            params=tun,
            rate=float(rates[i]),
            Q=stats.Q if stats is not None else None,
            P=stats.P if stats is not None else None,
            chi=quantities.chi_dr,
            evaluations=points.shape[0] + optima[k][1],
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
    (outcome,) = _optimize_group([ch], sys, fk, ec_mode, bounds)
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


def _alone(ch: ChannelModel, sys, fk, ec_mode: str, bounds: Bounds):
    """What :func:`optimize_point` returns at one channel, or the exception it raises."""
    try:
        return optimize_point(ch, sys, fk, ec_mode, bounds)
    except Exception as exc:  # record, never abort the sweep
        return exc


def thread_count(n_tasks: int) -> int:
    """Processes a sweep runs in: always 1, since a sweep scores every
    channel of a noise level in one kernel call per round."""
    # kept for perfbench/worker.py, which reports it as the sweep worker count
    return 1


def sweep(spec: SweepSpec, sys: SystemParams) -> list[KeyRateReport]:
    """Optimize every (noise, block-size, loss) grid point.

    The losses of each (noise, block size) pair are optimized together
    in lockstep (see :func:`_optimize_group`), in one process: a kernel
    call scores a block for every unfinished point, and each row equals
    its own :func:`optimize_point`.  When such a shared call raises, that
    pair's points are optimized again one at a time, so only the point at
    fault records the error.  The output order follows the grid index
    (noise level outermost, loss innermost), and per-point failures are
    recorded in the report status rather than raised.
    """
    fks = [None]
    if spec.n_values is not None:
        fks = [
            replace(spec.fk_template or FiniteKeyParams(n=n), n=n)
            for n in spec.n_values
        ]
    reports = []
    for xi in spec.noise_levels:
        channels = [ChannelModel(loss_db=loss, xi=xi) for loss in spec.loss_grid]
        for fk in fks:
            args = (sys, fk, spec.ec_mode, spec.bounds)
            try:
                outcomes = _optimize_group(channels, *args)
            except Exception:
                outcomes = [_alone(ch, *args) for ch in channels]
            reports.extend(_report(ch, fk, o) for ch, o in zip(channels, outcomes))
    return reports
