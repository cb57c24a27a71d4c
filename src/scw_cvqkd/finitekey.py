"""Finite-block secret key length and rate.

For a sifted block of n bits the extractable key length is

    l = n (1 - chi - delta(eps_s)/sqrt(n)) - k - code_EC - check_EC - loss_PA

where delta(eps_s) is the smooth min-entropy correction, k the bits spent
on parameter estimation, code_EC the disclosed syndrome, check_EC the
verification hash (eps_EC = 2^-check_EC) and loss_PA = log2(1/eps_PA) - 2
the privacy-amplification overhead.  The finite rate integrates the same
per-bit budget over the accepted readout region.

Two error-correction charges are available.  The default, "pointwise",
subtracts f_EC h(e(v) + dQ) inside the integrand, the finite-efficiency
analogue of the asymptotic h(e(v)) term, so the rate converges to the
asymptotic one as n grows and the margins vanish.  "block" subtracts the
flat per-bit syndrome cost f_EC h(Q + dQ) instead, which reproduces the
key-length bookkeeping above verbatim (see the length consistency check
in the tests) but keeps a Jensen gap from the asymptotic rate even at
idealized efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import _EC_MODES, FiniteKeyParams
from .errors import DomainError
from .noise import ChannelModel, DecisionStats, decision_masses
from .optics import SystemParams, TunableParams
from .security import (
    RateBlock,
    SymbolBlock,
    _LN2,
    _entropy_bits,
    binary_entropy,
    binary_entropy_inverse,
    point_block,
    threshold_at_error,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# a threshold root stops after a step of at most this fraction of its
# box: Newton's next step would be of order its square; bisection alone
# gets there in 24 passes, and _ROOT_PASSES caps the passes
_ROOT_TOL = 1e-7
_ROOT_PASSES = 64
# block mode aims its threshold this far, relative, inside the syndrome
# step it picks, so rounding cannot land it on the step before
_STEP_MARGIN = 1e-14
# Newton steps from the relaxation's peak to its step's left end, a
# fraction of a syndrome step away
_STEP_NEWTON = 2


@dataclass(frozen=True)
class FiniteKeyLength:
    """Extractable key length in bits; zero with ``abort`` set when negative."""

    l: float
    abort: bool


@dataclass(frozen=True)
class FiniteKeyResult:
    """One finite-block rate point in bits per second."""

    rate: float
    abort: bool
    chi: float
    stats: DecisionStats | None
    n: int


def smoothing_correction(eps_s: float) -> float:
    """Smooth min-entropy correction per sqrt(n), 4 log2(2 + sqrt 2) sqrt(log2(2/eps_s^2))."""
    if not 0.0 < eps_s < 1.0:
        raise DomainError(f"eps_s must be in (0, 1), got {eps_s}")
    return 4.0 * math.log2(2.0 + math.sqrt(2.0)) * math.sqrt(
        math.log2(2.0 / eps_s**2)
    )


def ec_syndrome_length(n: int, Q_est, dQ: float, f_EC: float):
    """Disclosed syndrome bits, ceil(n f_EC h(Q_est + dQ)).

    An int for a scalar ``Q_est``, a float array for an array.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"block size must be a positive int, got {n!r}")
    if not f_EC >= 1.0:
        raise DomainError(f"f_EC must be >= 1, got {f_EC}")
    q = np.asarray(Q_est, dtype=float) + dQ
    if not np.all((0.0 <= q) & (q < 0.5)):
        raise DomainError(f"Q_est + dQ must be in [0, 1/2), got {q}")
    bits = _syndrome_bits(n, q, f_EC)
    return int(bits) if bits.ndim == 0 else bits


def _syndrome_bits(n, q, f_EC: float):
    """ceil(n f_EC h(q)), with one block size ``n`` or one per entry of ``q``."""
    return np.ceil(n * f_EC * binary_entropy(q))


def finite_key_length(fk: FiniteKeyParams, chi: float) -> FiniteKeyLength:
    """Extractable key length for a block with known error-rate estimate."""
    if fk.Q_est is None:
        raise DomainError("finite_key_length needs Q_est set on FiniteKeyParams")
    if not 0.0 <= chi <= 1.0:
        raise DomainError(f"chi must be in [0, 1], got {chi}")
    if fk.Q_est + fk.dQ >= 0.5:
        return FiniteKeyLength(l=0.0, abort=True)
    code_ec = ec_syndrome_length(fk.n, fk.Q_est, fk.dQ, fk.f_EC)
    l = (
        fk.n * (1.0 - chi)
        - math.sqrt(fk.n) * smoothing_correction(fk.eps_s)
        - fk.k_sample
        - code_ec
        - fk.check_EC
        - fk.loss_PA
    )
    if l <= 0.0:
        return FiniteKeyLength(l=0.0, abort=True)
    return FiniteKeyLength(l=l, abort=False)


def _fixed_charge(chi, fk: FiniteKeyParams, n):
    """The per-bit charges that do not depend on the readout, shared by both
    error-correction charges: each point's chi and the overheads of its
    block size ``n`` and of ``fk``'s sample count.

    ``n`` is a float array of block sizes, or an int such as ``fk.n``:
    sqrt and division are correctly rounded in numpy as in Python, so a
    point's charge has the same bits either way.
    """
    return (
        chi
        + smoothing_correction(fk.eps_s) / np.sqrt(n)
        + (fk.k_sample + fk.check_EC + fk.loss_PA) / n
    )


def pointwise_threshold(symbols: SymbolBlock, fk: FiniteKeyParams, v_lo, v_hi, n):
    """The pointwise finite rate's best thresholds in [v_lo, v_hi].

    The per-bit fraction 1 - c_n - f_EC h(min(e(v) + dQ, 1/2)), with c_n
    from :func:`_fixed_charge`, crosses zero at
    e* = h^-1((1 - c_n)/f_EC) - dQ (see
    :func:`security.threshold_at_error`); when e* <= 0 it is negative at
    every v and the threshold is v_hi.  Block mode's flat charge moves
    with v through Q, so it has a rule of its own
    (:func:`block_threshold`), which starts from this one.  The bounds
    broadcast against the points; ``n`` holds the points' block sizes.
    """
    fixed = _fixed_charge(symbols.chi, fk, n)
    e_star = binary_entropy_inverse((1.0 - fixed) / fk.f_EC) - fk.dQ
    return threshold_at_error(symbols, e_star, v_lo, v_hi)


def _increasing_root(fn, lo, hi, x):
    """Roots of increasing functions in [lo, hi], one per row, by
    safeguarded Newton steps from ``x``.

    ``fn(v, rows)`` returns the values and slopes at points ``v`` of the
    rows ``rows``.  Each row keeps a bracket of its root.  A step that
    leaves the bracket goes to the end of the box it passes, once, and
    otherwise to the bracket's midpoint, so a root past an end of the box
    ends on that end.  A row takes its step and stops once the step is
    at most _ROOT_TOL of its box; each pass scores only the rows still
    running.
    """
    x = np.array(x, dtype=float)
    lo, hi = (np.array(np.broadcast_to(b, x.shape)) for b in (lo, hi))
    box_lo, box_hi = lo.copy(), hi.copy()
    # which rows have scored an end of the box
    seen_lo, seen_hi = np.zeros(x.shape, bool), np.zeros(x.shape, bool)
    tol = _ROOT_TOL * (hi - lo)
    rows = np.arange(x.size)
    for _ in range(_ROOT_PASSES):
        if rows.size == 0:
            break
        v = x[rows]
        value, slope = fn(v, rows)
        seen_lo[rows] |= v == box_lo[rows]
        seen_hi[rows] |= v == box_hi[rows]
        below = value < 0.0
        lo[rows] = l = np.where(below, v, lo[rows])
        hi[rows] = h = np.where(below, hi[rows], v)
        step = v - value / slope
        up = (step >= h) & (h == box_hi[rows]) & ~seen_hi[rows]
        down = (step <= l) & (l == box_lo[rows]) & ~seen_lo[rows]
        inside = (l < step) & (step < h)
        step = np.where(inside, step, np.where(up, h, np.where(down, l, 0.5 * (l + h))))
        x[rows] = step
        rows = rows[np.abs(step - v) > tol[rows]]
    return x


def block_threshold(symbols: SymbolBlock, fk: FiniteKeyParams, v_lo, v_hi, n):
    """The block rate's best thresholds in [v_lo, v_hi].

    Block mode charges each accepted bit k/n, k = ceil(n f_EC h(q)),
    q = Q + dQ, with Q = E/P over the whole accepted region.  Without the
    ceil the rate is P(v) (a - f_EC h(q)) up to a constant, a = 1 - c_n
    (:func:`_fixed_charge`); as dQ/dv = p (Q - e)/P, with p the accepted
    density and e the error fraction at v, its slope is -p phi with

        phi = a - f_EC h(q) - f_EC h'(q) (e - Q),

    so it peaks at v*, where phi rises through zero (v_lo or v_hi where
    the root lies past them), found by :func:`_increasing_root` from the
    pointwise threshold.  With the ceil the rate is a staircase: along a
    step of k it is P(v) times a constant and falls as v rises, and at
    the step's left end, where n f_EC h(q) = k, it meets the relaxation.
    So the threshold is v_k, the smallest v <= v* with the k of v*, whose
    exact rate is at least v*'s (scoring v* itself loses up to 8.5e-8
    relative on the optimum gate's block points).  _STEP_NEWTON Newton
    steps from v* on n f_EC h(q(v)) = k (1 - _STEP_MARGIN) find it, and
    its ceil is checked: v* is kept where that is not k, and where
    q >= 1/2 at v*.  The left end of the next step, past v*, also sits on
    the relaxation and differs from v_k's rate to second order in the
    step.

    ``v_lo`` and ``v_hi`` broadcast against the points; ``n`` holds the
    points' block sizes.  A row's threshold depends on that row alone.
    """
    fixed = _fixed_charge(symbols.chi, fk, n)
    f_EC, dQ = fk.f_EC, fk.dQ

    def profile(v, rows):
        """Q above thresholds ``v`` of rows ``rows``, the error fraction e
        at v, and their slopes dQ/dv and de/dv."""
        plus, minus = symbols.mean_plus[rows], symbols.mean_minus[rows]
        sigma = symbols.sigma[rows]
        E, P = decision_masses(v, plus, minus, sigma)
        # the four tail edges of decision_masses: -d/dv of each tail is the
        # normal density g at its edge over sigma, and dg/dv = g z / sigma
        z = np.array([plus - v, -v - plus, minus - v, -v - minus]) / sigma
        g = np.exp(-0.5 * z * z)
        gz = g * z
        total = g[0] + g[1] + g[2] + g[3]
        e = (g[1] + g[2]) / total
        Q = E / P
        slope_Q = 0.5 * total / (sigma * _SQRT_2PI) * (Q - e) / P
        slope_e = (gz[1] + gz[2] - e * (gz[0] + gz[1] + gz[2] + gz[3])) / (sigma * total)
        return Q, e, slope_Q, slope_e

    def phi(v, rows):
        Q, e, slope_Q, slope_e = profile(v, rows)
        q = np.minimum(Q + dQ, 0.5)
        # h'(q) and h''(q), in bits; both vanish past q = 1/2, where h is 1
        h1 = np.log2((1.0 - q) / q)
        h2 = np.where(q < 0.5, -1.0 / (q * (1.0 - q) * _LN2), 0.0)
        value = 1.0 - fixed[rows] - f_EC * (_entropy_bits(q) + h1 * (e - Q))
        return value, -f_EC * (h2 * slope_Q * (e - Q) + h1 * slope_e)

    every = np.arange(symbols.chi.size)
    # rows that abort, or lack ordered means, give infinities and NaNs here
    # and keep v*; the kernel scores the latter -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        start = pointwise_threshold(symbols, fk, v_lo, v_hi, n)
        v_star = _increasing_root(phi, v_lo, v_hi, start)
        Q, _, slope_Q, _ = profile(v_star, every)
        q = np.minimum(Q + dQ, 0.5)
        live = q < 0.5
        k = _syndrome_bits(n, q, f_EC)
        target = k * (1.0 - _STEP_MARGIN) / (n * f_EC)
        v = v_star
        for _ in range(_STEP_NEWTON):
            step = (_entropy_bits(q) - target) / (np.log2((1.0 - q) / q) * slope_Q)
            v = np.minimum(np.maximum(v - step, v_lo), v_star)
            Q, _, slope_Q, _ = profile(v, every)
            q = np.minimum(Q + dQ, 0.5)
        kept = live & (_syndrome_bits(n, q, f_EC) <= k)
    return np.where(kept, v, v_star)


def finite_rates(block: RateBlock, fk: FiniteKeyParams, ec_mode: str, n) -> np.ndarray:
    """Finite-block rates of a kernel block in bits per second; 0 where aborted.

    ``ec_mode`` is one of ``_EC_MODES``; ``n`` holds the points' block
    sizes, and ``fk`` sets every other finite-key setting.  Only block
    mode forms the block's E and P.
    """
    if ec_mode not in _EC_MODES:
        raise DomainError(f"ec_mode must be one of {_EC_MODES}, got {ec_mode!r}")
    fixed = _fixed_charge(block.chi, fk, n)
    abort = block.empty
    if ec_mode == "block":
        Q = np.divide(block.E, block.P, out=np.zeros_like(block.P), where=~abort)
        abort = abort | (Q + fk.dQ >= 0.5)
        code_ec = _syndrome_bits(n, np.where(abort, 0.0, Q) + fk.dQ, fk.f_EC)
        fraction = (1.0 - fixed - code_ec / n)[:, None]
    else:
        # e + dQ >= 0 by construction, so the unchecked entropy is exact
        charge = fk.f_EC * _entropy_bits(np.minimum(block.e + fk.dQ, 0.5))
        fraction = 1.0 - fixed[:, None] - charge
    raw = block.integrate(fraction)
    return np.where(abort | (raw <= 0.0), 0.0, raw)


def finite_key_rate(
    tun: TunableParams,
    sys: SystemParams,
    ch: ChannelModel,
    fk: FiniteKeyParams,
    ec_mode: str = "pointwise",
) -> FiniteKeyResult:
    """Finite-block secret key rate in bits per second.

    The per-bit budget 1 - chi - delta/sqrt(n) - (k + check_EC + loss_PA)/n
    minus the error-correction charge is integrated over the accepted
    region with the same folding and clamping conventions as the
    asymptotic rate.  k is ``tun.k_sample`` where that is positive, else
    ``fk.k_sample``; a k of at least ``fk.n`` raises :class:`DomainError`.
    """
    if tun.k_sample > 0:
        fk = replace(fk, k_sample=tun.k_sample)
    block = point_block(tun, sys, ch)
    stats, quantities = block.point(0)
    rate = float(finite_rates(block, fk, ec_mode, np.full(1, float(fk.n)))[0])
    return FiniteKeyResult(
        rate=rate, abort=not rate > 0.0, chi=quantities.chi_dr, stats=stats, n=fk.n
    )

