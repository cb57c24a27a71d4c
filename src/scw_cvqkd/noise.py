"""Quadrature statistics of the induced binary channel.

A matched-basis round draws the readout v from a Gaussian centered at one
of two symmetric symbol means with variance (1 + Xi)/4, where Xi is the
excess-noise variance in vacuum units.  Bob keeps rounds with |v| >= v_0
and assigns the bit from the sign.  This module carries the densities,
the pointwise error fraction e(v), and the integrated acceptance and
error masses P and E (Q = E/P), with both a closed-form route through
the Gaussian tail function and an adaptive-quadrature cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _import_one_blas_thread
from .errors import DomainError, EmptyAcceptanceError

# vacuum quadrature variance in the chosen normalization
V_VAC = 0.25
# acceptance mass below this is numerically indistinguishable from an abort
P_FLOOR = 1e-300
# integration window: means +/- this many sigmas bound the lost tail below 1e-40
TAIL_SIGMAS = 14.0
# the erfc argument is z * sqrt(1/2), a product as usual normal-CDF routines
# form it: z / sqrt(2) rounds differently, and at z = -38 one unit of
# rounding in the argument moves the tail mass by about 1.6e-13 relative
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class ChannelModel:
    """Lossy bosonic channel with excess noise.

    ``loss_db`` is the attenuation in dB (transmittance eta = 10^(-loss_db/10));
    ``xi`` the excess-noise variance in vacuum units.
    """

    loss_db: float
    xi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.loss_db) and self.loss_db >= 0.0):
            raise DomainError(f"loss_db must be finite and >= 0, got {self.loss_db}")
        if not (math.isfinite(self.xi) and self.xi >= 0.0):
            raise DomainError(f"xi must be finite and >= 0, got {self.xi}")

    @property
    def eta(self) -> float:
        return 10.0 ** (-self.loss_db / 10.0)

    @property
    def sigma(self) -> float:
        return noise_sigma(self.xi)


def noise_sigma(xi: float) -> float:
    """Standard deviation of the readout, sqrt((1 + xi)/4)."""
    if xi < 0.0:
        raise DomainError(f"xi must be >= 0, got {xi}")
    return math.sqrt(0.25 * (1.0 + xi))


def quadrature_pdf(v, mean_v: float, xi: float):
    """Readout density sqrt(2/(pi(1+xi))) exp(-2 (v - mean)^2 / (1+xi)).

    Normalized Gaussian with variance (1 + xi)/4.  Accepts scalar or array v.
    """
    if xi < 0.0:
        raise DomainError(f"xi must be >= 0, got {xi}")
    v = np.asarray(v, dtype=float)
    out = np.sqrt(2.0 / (math.pi * (1.0 + xi))) * np.exp(
        -2.0 * (v - mean_v) ** 2 / (1.0 + xi)
    )
    return float(out) if out.ndim == 0 else out


def _distinct(values: np.ndarray):
    """The distinct entries of a 1-D array, ascending, and the index of each
    entry among them, from one sort (the first np.unique in a process
    imports numpy.ma)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.empty(ordered.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(ordered.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _per_value(f, values):
    """``f`` at each entry of an array ``values``, called once per distinct
    value, so every entry has the bits of the scalar call (numpy's log may
    round differently from math's).  An ``f`` of several outputs gives one
    array per output, each of the shape of ``values``."""
    values = np.asarray(values)
    distinct, inverse = _distinct(values.ravel())
    table = np.array([f(value) for value in distinct.tolist()])
    if table.ndim == 1:
        return table[inverse].reshape(values.shape)
    return tuple(column[inverse].reshape(values.shape) for column in table.T)


def _log_peak(xi: float) -> float:
    """Log of the readout density's peak, 0.5 log(2 / (pi (1 + xi)))."""
    if xi < 0.0:
        raise DomainError(f"xi must be >= 0, got {xi}")
    return 0.5 * math.log(2.0 / (math.pi * (1.0 + xi)))


def readout_scales(xi: float) -> tuple[float, float]:
    """The readout's standard deviation and the log of its density's peak,
    (:func:`noise_sigma`, 0.5 log(2 / (pi (1 + xi))))."""
    return noise_sigma(xi), _log_peak(xi)


def erasure_error_profiles(v, mean_plus, mean_minus, xi):
    """Pointwise outcome density and error fraction, (1 - g(v), e(v)).

    1 - g is the accepted-outcome density per emitted symbol (equal priors
    on the two symbols); e is the fraction of mass at v belonging to the
    symbol whose bit disagrees with the sign of v.  Likelihood ratios are
    formed in the log domain, so far tails saturate to 0 or 1 instead of
    producing NaN.  Accepts scalar or array v, and means and ``xi`` that
    broadcast against it.
    """
    v = np.asarray(v, dtype=float)
    log_peak = _per_value(_log_peak, xi)
    lp_plus = log_peak - 2.0 * (v - mean_plus) ** 2 / (1.0 + xi)
    lp_minus = log_peak - 2.0 * (v - mean_minus) ** 2 / (1.0 + xi)
    one_minus_g = 0.5 * (np.exp(lp_plus) + np.exp(lp_minus))
    # the sign of v picks which symbol would have been decoded incorrectly
    log_ratio = lp_minus - lp_plus
    # logistic function; exp overflows to inf for a far tail, giving e = 0
    with np.errstate(over="ignore"):
        e = 1.0 / (1.0 + np.exp(-np.where(v >= 0.0, log_ratio, -log_ratio)))
    e = np.where(v == 0.0, 0.5, e)
    if one_minus_g.ndim == 0:
        return float(one_minus_g), float(e)
    return one_minus_g, e


@dataclass(frozen=True)
class DecisionStats:
    """Integrated post-selection statistics of one matched-basis symbol pair."""

    E: float
    P: float
    Q: float
    v_0: float
    mean_plus: float
    mean_minus: float
    xi: float


def integration_ceiling(mean_plus, mean_minus, sigma):
    """Upper readout bound past which the remaining mass is below 1e-40.

    Scalar or array means, and one readout sigma (:func:`noise_sigma`) or
    one per mean.
    """
    widest = np.maximum(np.abs(mean_plus), np.abs(mean_minus))
    return widest + TAIL_SIGMAS * sigma


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-z/sqrt(2)), elementwise through math.erfc."""
    flat = (-_SQRT_HALF * z).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, flat), float, len(flat)).reshape(z.shape)


def decision_masses(v_0, mean_plus, mean_minus, sigma):
    """Error and acceptance masses (E, P) through the Gaussian tail function.

    Scalar or array thresholds, means and readout sigmas
    (:func:`noise_sigma`); no validation (see :func:`decision_stats`).
    """
    # tails beyond +v_0 and below -v_0 under each symbol, in one call
    edges = [mean_plus - v_0, -v_0 - mean_plus, mean_minus - v_0, -v_0 - mean_minus]
    plus_up, plus_down, minus_up, minus_down = _normal_cdf(
        np.array(edges) / sigma
    )
    # acceptance: |v| >= v_0 under either symbol, equal priors
    p = 0.5 * (plus_up + plus_down + minus_up + minus_down)
    # error: the plus symbol landing in the negative tail and vice versa
    e_mass = 0.5 * (plus_down + minus_up)
    return e_mass, p


def _stats_quadrature(v_0, mean_plus, mean_minus, xi):
    # scipy is imported only by this cross-check, not by the rate path;
    # its own OpenBLAS gets the package's one-thread default
    quad = _import_one_blas_thread("scipy.integrate").quad

    hi = float(integration_ceiling(mean_plus, mean_minus, noise_sigma(xi)))
    if v_0 >= hi:
        return 0.0, 0.0

    def dens(v, m):
        return quadrature_pdf(v, m, xi)

    kw = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    # positive acceptance tail [v_0, hi] and its mirror via v -> -v
    p = 0.0
    e_mass = 0.0
    for m in (mean_plus, mean_minus):
        upper = quad(dens, v_0, hi, args=(m,), **kw)[0]
        lower = quad(dens, -hi, -v_0, args=(m,), **kw)[0]
        p += 0.5 * (upper + lower)
    e_mass += 0.5 * quad(dens, -hi, -v_0, args=(mean_plus,), **kw)[0]
    e_mass += 0.5 * quad(dens, v_0, hi, args=(mean_minus,), **kw)[0]
    return e_mass, p


def decision_stats(
    v_0: float,
    mean_plus: float,
    mean_minus: float,
    xi: float,
    method: str = "closed_form",
) -> DecisionStats:
    """Acceptance mass P, error mass E and bit error rate Q = E/P.

    ``method`` selects the Gaussian-tail closed form (default) or the
    adaptive-quadrature route kept as an independent cross-check; the two
    agree within 1e-9 absolute.
    """
    if not (math.isfinite(v_0) and v_0 >= 0.0):
        raise DomainError(f"threshold must be finite and >= 0, got {v_0}")
    if xi < 0.0:
        raise DomainError(f"xi must be >= 0, got {xi}")
    if method == "closed_form":
        masses = decision_masses(v_0, mean_plus, mean_minus, noise_sigma(xi))
        e_mass, p = (float(m) for m in masses)
    elif method == "quadrature":
        e_mass, p = _stats_quadrature(v_0, mean_plus, mean_minus, xi)
    else:
        raise DomainError(f"unknown method {method!r}")
    if p < P_FLOOR:
        raise EmptyAcceptanceError(
            f"acceptance mass {p} below {P_FLOOR} at v_0={v_0}"
        )
    return DecisionStats(
        E=e_mass,
        P=p,
        Q=e_mass / p,
        v_0=v_0,
        mean_plus=mean_plus,
        mean_minus=mean_minus,
        xi=xi,
    )
