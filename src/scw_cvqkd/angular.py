"""Rotation-matrix weights for multimode sideband states.

The electro-optic phase modulator distributes a coherent carrier over 2S+1
modes.  The amplitude weights form one row of the spin-S rotation matrix,
``d^S_{0k}(beta)``, in the convention where

    d^1_{0,+1}(beta) = +sin(beta)/sqrt(2)
    d^1_{0,0}(beta)  =  cos(beta)
    d^1_{0,-1}(beta) = -sin(beta)/sqrt(2)

Two evaluation routes are provided and cross-checked by the test suite:

* an explicit factorial sum, exact and cheap for small spin (used for
  ``S <= _SUM_CUTOFF``);
* an order-by-order normalized-Legendre degree recurrence that stays
  stable for large spin, where the factorial sum would overflow or lose
  precision.

The k = 0 element equals the Legendre polynomial P_S(cos beta) and extends
to any real angle (:func:`carrier_weight`, :func:`legendre_p`); the security
analysis evaluates it at twice the modulation angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InternalError

# Switch from the factorial sum to the degree recurrence above this spin.
_SUM_CUTOFF = 10
# Unitarity drift beyond this signals an unstable evaluation.
_UNITARITY_TOL = 1e-9
# Slack when validating angles against [0, pi].
_ANGLE_SLOP = 1e-12


@dataclass(frozen=True)
class DRow:
    """One row of rotation weights, indexed by sideband order k in [-S, S]."""

    S: int
    beta: float
    values: np.ndarray = field(repr=False)

    def value(self, k: int) -> float:
        """Weight of sideband order k (k = 0 is the carrier)."""
        if not -self.S <= k <= self.S:
            raise DomainError(f"sideband order {k} outside [-{self.S}, {self.S}]")
        return float(self.values[k + self.S])

    def __getitem__(self, k: int) -> float:
        return self.value(k)

    @property
    def norm_sq(self) -> float:
        return float(np.dot(self.values, self.values))


def _validate_spin(S: int) -> int:
    if not isinstance(S, (int, np.integer)) or isinstance(S, bool):
        raise DomainError(f"spin must be an integer, got {S!r}")
    if S < 0:
        raise DomainError(f"spin must be non-negative, got {S}")
    return int(S)


def _row_by_sum(S: int, beta: float) -> np.ndarray:
    """Factorial-sum evaluation; every k computed independently."""
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    fact = math.factorial
    values = np.empty(2 * S + 1)
    for k in range(-S, S + 1):
        pref = math.sqrt(float(fact(S) ** 2 * fact(S + k) * fact(S - k)))
        acc = 0.0
        for t in range(max(0, k), min(S, S + k) + 1):
            denom = fact(S + k - t) * fact(t) * fact(t - k) * fact(S - t)
            term = c ** (2 * S + k - 2 * t) * s ** (2 * t - k) / denom
            acc += -term if (t - k) % 2 else term
        values[k + S] = pref * acc
    return values


def _row_by_recurrence(S: int, beta: float) -> np.ndarray:
    """Degree recurrence per sideband order; stable for large spin.

    For each order k the quantity f_l = sqrt((l-k)!/(l+k)!) P_l^k(cos beta)
    is carried up in degree l from its sectoral seed.  All intermediates are
    bounded by 1, so no overflow occurs at any spin.
    """
    x = math.cos(beta)
    snb = math.sin(beta)
    values = np.empty(2 * S + 1)
    sectoral = 1.0  # f_{k,k}
    for k in range(0, S + 1):
        f_prev = 0.0
        f_cur = sectoral
        for ell in range(k, S):
            a = (2 * ell + 1) * x * math.sqrt((ell + 1 - k) / (ell + 1 + k))
            b = math.sqrt((ell + 1 - k) * (ell - k) * (ell + k) / (ell + 1 + k))
            f_next = (a * f_cur - b * f_prev) / (ell - k + 1)
            f_prev, f_cur = f_cur, f_next
        # d^S_{0k} = (-1)^k f_{S,k};  d^S_{0,-k} = f_{S,k}
        values[S + k] = -f_cur if k % 2 else f_cur
        values[S - k] = f_cur
        sectoral *= -snb * math.sqrt((2 * k + 1) / (2 * k + 2))
    return values


def wigner_d_row(S: int, beta: float) -> DRow:
    """Rotation weights d^S_{0k}(beta) for all k in [-S, S].

    ``beta`` must lie in [0, pi].  The returned row satisfies
    sum_k values[k]^2 = 1 and values[k] = (-1)^k values[-k]; a unitarity
    drift beyond 1e-9 raises :class:`InternalError`.
    """
    S = _validate_spin(S)
    if not math.isfinite(beta):
        raise DomainError(f"angle must be finite, got {beta!r}")
    if beta < -_ANGLE_SLOP or beta > math.pi + _ANGLE_SLOP:
        raise DomainError(f"angle {beta} outside [0, pi]")
    beta = min(max(beta, 0.0), math.pi)

    if beta == 0.0 or beta == math.pi:
        values = np.zeros(2 * S + 1)
        values[S] = 1.0 if beta == 0.0 else (-1.0) ** S
    elif S <= _SUM_CUTOFF:
        values = _row_by_sum(S, beta)
    else:
        values = _row_by_recurrence(S, beta)

    norm = float(np.dot(values, values))
    if abs(norm - 1.0) > _UNITARITY_TOL:
        raise InternalError(
            f"rotation row unitarity drift {abs(norm - 1.0):.3e} at S={S}, beta={beta}"
        )
    return DRow(S=S, beta=beta, values=values)


def carrier_weight(S: int, beta: float) -> float:
    """d^S_{00}(beta) = P_S(cos beta), valid for any real angle.

    The k = 0 weight is a polynomial in cos(beta), so it continues
    analytically beyond [0, pi], where the security overlap evaluates it
    (at twice the modulation angle, through :func:`legendre_p`).
    """
    S = _validate_spin(S)
    if not math.isfinite(beta):
        raise DomainError(f"angle must be finite, got {beta!r}")
    return legendre_p(S, math.cos(beta))


def legendre_p(S: int, x):
    """Legendre polynomial P_S(x) by the three-term recurrence; scalar or array x.

    Scalars and array elements go through the same arithmetic, so the
    vectorized callers agree bit for bit with :func:`carrier_weight`.
    """
    if S == 0:
        return 1.0 + 0.0 * x
    p_prev, p_cur = 1.0, x
    for ell in range(1, S):
        p_prev, p_cur = p_cur, ((2 * ell + 1) * x * p_cur - ell * p_prev) / (ell + 1)
    return p_cur


def first_sideband_weight(S: int, beta):
    """|d^S_{01}(beta)| = sin(beta) |P_S'(cos beta)| / sqrt(S (S + 1)); scalar or array.

    The derivative comes from P'_{l+1} = P'_{l-1} + (2l + 1) P_l alongside
    the Legendre recurrence, so every angle, including 0 and pi, is finite.
    """
    x = np.cos(beta)
    p_prev, p_cur = 1.0, x
    d_prev, d_cur = 0.0, 1.0
    for ell in range(1, S):
        p_prev, p_cur, d_prev, d_cur = (
            p_cur,
            ((2 * ell + 1) * x * p_cur - ell * p_prev) / (ell + 1),
            d_cur,
            d_prev + (2 * ell + 1) * p_cur,
        )
    return np.abs(np.sin(beta) * d_cur) / math.sqrt(S * (S + 1))

