"""Key-rate maximization over protocol knobs, and loss-grid sweeps.

The decision variables are the carrier photon number (searched in log
space), Alice's modulation angle, and the post-selection threshold in
readout-sigma units.  The modulation-depth ratio delta is never free: it
is re-derived from the calibration condition at every angle, and
finite-block searches charge the configured parameter-estimation count.

The search is a deterministic two-stage scheme: a fixed coarse grid,
scored by the batched rate kernel one block per modulation angle, picks
a start; grid ties go to the first point in (photon number, angle,
threshold) order, so the smaller photon number wins.  One Nelder-Mead
simplex then refines it on the box mirrored into itself, and is rebuilt
once from where it stopped.  At S=1 the rate depends on photon number
and angle only through mu_0 sin^2(beta_A), so the reported pair is one
point on a ridge of equal rate.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, InfeasibleError, ScwError
from .finitekey import FiniteKeyParams, finite_key_rate, finite_rates
from .noise import ChannelModel, noise_sigma
from .optics import SystemParams, TunableParams, calibrate_delta
from .security import asymptotic_key_rate, asymptotic_rates, rate_block

# coarse-grid resolution per axis: photon number, angle, threshold
_GRID_SHAPE = (12, 8, 9)
_NM_OPTIONS = dict(fatol=1e-11, xatol=1e-7, maxfev=900, maxiter=900)


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
    """Best parameters found for one channel point and the rate there."""

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


def _fold(x, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mirror image of ``x`` in the box [lo, hi], reflecting off every face."""
    w = hi - lo
    t = np.mod(x - lo, 2.0 * w)
    return hi - np.abs(t - w)


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


def _score_grid(lg_mu, betas, v_sig, ch, sys, fk, ec_mode) -> np.ndarray:
    """Rates on the coarse grid, shape (mu, beta, v); -inf where infeasible.

    Each angle is calibrated once and its mu x v plane scored as one kernel
    block, decoded exactly as :func:`_decode` decodes a single point.
    """
    mu_0 = np.array([10.0 ** float(m) for m in lg_mu])
    v_0 = np.array([float(v) * noise_sigma(ch.xi) for v in v_sig])
    mu_plane, v_plane = (a.ravel() for a in np.meshgrid(mu_0, v_0, indexing="ij"))
    ones = np.ones(mu_plane.size)
    rates = np.full((len(lg_mu), len(betas), len(v_sig)), -math.inf)
    for j, beta_A in enumerate(betas):
        try:
            delta = calibrate_delta(float(beta_A), sys)
        except ScwError:
            continue
        block = rate_block(
            mu_plane, float(beta_A) * ones, delta * ones, v_plane, sys, ch
        )
        if fk is None:
            plane = asymptotic_rates(block)
        else:
            plane = finite_rates(block, fk, ec_mode)
        plane[block.degenerate] = -math.inf
        rates[:, j, :] = plane.reshape(len(lg_mu), len(v_sig))
    return rates


def optimize_point(
    ch: ChannelModel,
    sys: SystemParams,
    fk: FiniteKeyParams | None = None,
    ec_mode: str = "pointwise",
    bounds: Bounds = Bounds(),
) -> OptimumPoint:
    """Maximize the key rate at one channel point.

    The best point of a fixed coarse grid over (log10 mu_0, beta_A,
    v_0/sigma) starts one Nelder-Mead simplex, which is run a second time
    from where the first stopped.  The simplex moves freely and the rate
    is read at the mirror image of each vertex in the box, so a start on a
    face keeps every dimension.  Deterministic: no randomness enters at
    any stage.

    Raises :class:`InfeasibleError` when no coarse-grid point has a
    positive rate, carrying the best grid diagnostics.
    """
    lo = np.array([math.log10(bounds.mu_0[0]), bounds.beta_A[0], bounds.v_0_sigmas[0]])
    hi = np.array([math.log10(bounds.mu_0[1]), bounds.beta_A[1], bounds.v_0_sigmas[1]])
    axes = [np.linspace(a, b, size) for a, b, size in zip(lo, hi, _GRID_SHAPE)]

    grid = _score_grid(*axes, ch, sys, fk, ec_mode)
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

    def objective(x):
        nonlocal n_eval
        n_eval += 1
        try:
            return -_evaluate(_fold(x, lo, hi), ch, sys, fk, ec_mode)[1] / best_rate
        except ScwError:
            return math.inf

    # the second run rebuilds a simplex the first may have let collapse
    for _ in range(2):
        x = minimize(objective, x, method="Nelder-Mead", options=_NM_OPTIONS).x

    tun, rate, q, p, chi = _evaluate(_fold(x, lo, hi), ch, sys, fk, ec_mode)
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
