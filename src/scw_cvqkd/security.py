"""Eavesdropper information bound and the asymptotic secret key rate.

Under a collective beam-splitting attack the adversary ends up having to
distinguish the two multimode coherent states Alice sends within one
basis.  Their overlap fixes the eigenvalues of the intercepted density
operator and hence the accessible information (the chi bound below); the
secret fraction at readout v is 1 - h(e(v)) - chi, and the key rate is
its acceptance-weighted integral over the post-selected region, converted
to bits per second by the basis count and window duration.

Rates are evaluated by one vectorized kernel, :func:`rate_block`, which
takes N working points at one channel and forms their symbol means, chi,
P and E, and the readout profiles on an N x 240 Gauss-Legendre grid.
:func:`asymptotic_key_rate` and :func:`finitekey.finite_key_rate` are its
N=1 case; the optimizer scores its coarse grid in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import carrier_weight, legendre_p, wigner_d_row
from .errors import DegenerateError, DomainError
from .noise import (
    P_FLOOR,
    ChannelModel,
    DecisionStats,
    decision_masses,
    erasure_error_profiles,
    integration_ceiling,
)
from .optics import SystemParams, TunableParams, matched_means_array

_BOUNDS_SLOP = 1e-12
# Gauss-Legendre order for the rate integral; the integrand is entire, so
# convergence is supergeometric and this is far past saturation.
_GL_ORDER = 240


@dataclass(frozen=True)
class SecurityQuantities:
    """Overlap, intercepted-state spectrum and information bound."""

    overlap: float
    lambda_1: float
    lambda_2: float
    chi_dr: float
    K: float | None = None


@dataclass(frozen=True)
class KeyRateResult:
    """One evaluated rate point: bits per second plus its ingredients."""

    rate: float
    insecure: bool
    chi: float
    stats: DecisionStats | None
    quantities: SecurityQuantities


def _plogp(p):
    # p log p with 0 log 0 = 0
    return p * np.log(np.where(p > 0.0, p, 1.0))


def _entropy_bits(p):
    # binary entropy of arguments already known to lie in [0, 1]
    return -(_plogp(p) + _plogp(1.0 - p)) / math.log(2.0)


def binary_entropy(x):
    """Binary Shannon entropy in bits, with 0 log 0 = 0.  Scalar or array."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -_BOUNDS_SLOP) or np.any(arr > 1.0 + _BOUNDS_SLOP):
        raise DomainError(f"entropy argument outside [0, 1]: {x!r}")
    out = _entropy_bits(np.clip(arr, 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def state_overlap(mu_0: float, beta_A: float, S: int) -> float:
    """Overlap of the two same-basis signal states, exp(-mu_0 (1 - d00(2 beta_A))).

    The doubled angle can exceed pi; the carrier weight continues
    analytically there.
    """
    if not (math.isfinite(mu_0) and mu_0 >= 0.0):
        raise DomainError(f"mu_0 must be finite and >= 0, got {mu_0}")
    if not 0.0 <= beta_A <= math.pi:
        raise DomainError(f"beta_A must be in [0, pi], got {beta_A}")
    return math.exp(-mu_0 * (1.0 - carrier_weight(S, 2.0 * beta_A)))


def security_quantities(mu_0: float, beta_A: float, S: int) -> SecurityQuantities:
    """Spectrum of the intercepted two-state mixture and its chi bound."""
    overlap = state_overlap(mu_0, beta_A, S)
    lambda_1 = 0.5 * (1.0 + overlap)
    lambda_2 = 0.5 * (1.0 - overlap)
    return SecurityQuantities(
        overlap=overlap,
        lambda_1=lambda_1,
        lambda_2=lambda_2,
        chi_dr=binary_entropy(lambda_2),
    )


def holevo_dr(mu_0: float, beta_A: float, S: int) -> float:
    """Direct-reconciliation information bound chi = h((1 - overlap)/2)."""
    return security_quantities(mu_0, beta_A, S).chi_dr


@lru_cache(maxsize=8)
def _gl_nodes(order: int):
    return np.polynomial.legendre.leggauss(order)


@dataclass(frozen=True)
class RateBlock:
    """Shared ingredients of N rate points at one channel.

    Every field is an array over the N points.  ``one_minus_g`` and ``e``
    are the readout profiles at the Gauss-Legendre nodes of each point's
    accepted region [v_0, ceiling], shape (N, 240).  ``empty`` marks an
    acceptance mass below the abort floor, ``degenerate`` symbol means the
    model leaves undefined.
    """

    v_0: np.ndarray
    xi: float
    mean_plus: np.ndarray
    mean_minus: np.ndarray
    overlap: np.ndarray
    chi: np.ndarray
    E: np.ndarray
    P: np.ndarray
    empty: np.ndarray
    degenerate: np.ndarray
    one_minus_g: np.ndarray
    e: np.ndarray
    half: np.ndarray
    scale: float

    def integrate(self, fraction) -> np.ndarray:
        """Bits per second from a per-bit secret fraction on the node grid."""
        _, w = _gl_nodes(_GL_ORDER)
        return self.scale * (self.half * ((self.one_minus_g * fraction) @ w))

    def point(self, i: int) -> tuple[DecisionStats | None, SecurityQuantities]:
        """Post-selection statistics (None when empty) and chi spectrum of point i."""
        overlap = float(self.overlap[i])
        quantities = SecurityQuantities(
            overlap=overlap,
            lambda_1=0.5 * (1.0 + overlap),
            lambda_2=0.5 * (1.0 - overlap),
            chi_dr=float(self.chi[i]),
        )
        if self.empty[i]:
            return None, quantities
        E, P = float(self.E[i]), float(self.P[i])
        stats = DecisionStats(
            E=E,
            P=P,
            Q=E / P,
            v_0=float(self.v_0[i]),
            mean_plus=float(self.mean_plus[i]),
            mean_minus=float(self.mean_minus[i]),
            xi=self.xi,
        )
        return stats, quantities


def rate_block(
    mu_0,
    beta_A,
    delta,
    v_0,
    sys: SystemParams,
    ch: ChannelModel,
    doubling: bool | None = None,
) -> RateBlock:
    """Evaluate N working points at one channel at once.

    ``mu_0``, ``beta_A``, ``delta`` and ``v_0`` are equal-length arrays of
    values already validated as :class:`TunableParams` validates them.
    ``doubling`` (default: the system's symmetric_doubling flag) folds in
    the mirrored negative readout branch.
    """
    if doubling is None:
        doubling = sys.symmetric_doubling
    mu_0 = np.asarray(mu_0, dtype=float)
    beta_A = np.asarray(beta_A, dtype=float)
    v_0 = np.asarray(v_0, dtype=float)
    mean_plus, mean_minus, degenerate = matched_means_array(
        mu_0, beta_A, np.asarray(delta, dtype=float), sys, ch.eta
    )
    # the doubled angle can exceed pi; P_S(cos) continues analytically there
    overlap = np.exp(-mu_0 * (1.0 - legendre_p(sys.S, np.cos(2.0 * beta_A))))
    E, P = decision_masses(v_0, mean_plus, mean_minus, ch.xi)

    hi = integration_ceiling(mean_plus, mean_minus, ch.xi)
    half = np.where(hi > v_0, 0.5 * (hi - v_0), 0.0)
    x, _ = _gl_nodes(_GL_ORDER)
    nodes = (0.5 * (hi + v_0))[:, None] + half[:, None] * x
    one_minus_g, e = erasure_error_profiles(
        nodes, mean_plus[:, None], mean_minus[:, None], ch.xi
    )
    return RateBlock(
        v_0=v_0,
        xi=ch.xi,
        mean_plus=mean_plus,
        mean_minus=mean_minus,
        overlap=overlap,
        chi=_entropy_bits(0.5 * (1.0 - overlap)),
        E=E,
        P=P,
        empty=P < P_FLOOR,
        degenerate=degenerate,
        one_minus_g=one_minus_g,
        e=e,
        half=half,
        scale=(2.0 if doubling else 1.0) / (sys.N * sys.T),
    )


def point_block(
    tun: TunableParams, sys: SystemParams, ch: ChannelModel, doubling: bool | None
) -> RateBlock:
    """The N=1 kernel block of one working point; undefined means raise."""
    block = rate_block(
        [tun.mu_0], [tun.beta_A], [tun.delta], [tun.v_0], sys, ch, doubling
    )
    if block.degenerate[0]:
        raise DegenerateError(
            f"symbol means undefined at beta_A={tun.beta_A}, delta={tun.delta}"
        )
    return block


def asymptotic_rates(block: RateBlock) -> np.ndarray:
    """Asymptotic rates of a block in bits per second; 0 where insecure."""
    raw = block.integrate(1.0 - _entropy_bits(block.e) - block.chi[:, None])
    return np.where(block.empty | (raw <= 0.0), 0.0, raw)


def asymptotic_key_rate(
    tun: TunableParams,
    sys: SystemParams,
    ch: ChannelModel,
    doubling: bool | None = None,
) -> KeyRateResult:
    """Collective-attack secret key rate in bits per second.

    Integrates the acceptance-weighted secret fraction over v >= v_0 and,
    when ``doubling`` is set (default: the system's symmetric_doubling
    flag), doubles it for the mirrored negative branch.  A non-positive
    total, or an empty acceptance region, is clamped to 0 and flagged
    insecure.
    """
    block = point_block(tun, sys, ch, doubling)
    stats, quantities = block.point(0)
    rate = float(asymptotic_rates(block)[0])
    return KeyRateResult(
        rate=rate,
        insecure=not rate > 0.0,
        chi=quantities.chi_dr,
        stats=stats,
        quantities=quantities,
    )


def sideband_photon_number(mu_0: float, beta_A: float, S: int) -> float:
    """Total mean photons in the sidebands, mu_0 (1 - d00(beta_A)^2)."""
    w = wigner_d_row(S, beta_A)[0]
    return mu_0 * (1.0 - w * w)
