"""Eavesdropper information bound and the asymptotic secret key rate.

Under a collective beam-splitting attack the adversary ends up having to
distinguish the two multimode coherent states Alice sends within one
basis.  Their overlap fixes the eigenvalues of the intercepted density
operator and hence the accessible information (the chi bound below); the
secret fraction at readout v is 1 - h(e(v)) - chi, and the key rate is
its acceptance-weighted integral over the post-selected region, converted
to bits per second by the basis count and window duration.

Rates are evaluated by one vectorized kernel in two stages:
:func:`symbol_block` forms the symbol means and chi of N working points,
each with its own channel loss and excess noise, and
:meth:`SymbolBlock.at` adds P and E at given thresholds and the readout
profiles on an N x ``_GL_ORDER`` Gauss-Legendre grid (:func:`rate_block`
runs both at one channel).  Each row's result depends on that row alone,
to the last bit, whatever the block around it.
:func:`asymptotic_key_rate` and :func:`finitekey.finite_key_rate` are its
N=1 case; the optimizer scores many points, and many channels, per
block.

Between the two stages the optimizer can solve for the threshold instead
of searching it.  Both readout Gaussians have the variance (1 + xi)/4, so
e(v) is a logistic in a linear function of v and falls as v rises; the
secret fraction at v then rises, and the rate, its integral from v_0 up,
peaks where the fraction crosses zero: post-selection keeps exactly the
readouts with a positive advantage (:func:`asymptotic_threshold`,
:func:`finitekey.pointwise_threshold`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .angular import _validate_spin, legendre_p
from .errors import DegenerateError, DomainError
from .noise import (
    P_FLOOR,
    V_VAC,
    ChannelModel,
    DecisionStats,
    decision_masses,
    erasure_error_profiles,
    integration_ceiling,
    noise_sigma,
)
from .optics import SystemParams, TunableParams, matched_means_array

_BOUNDS_SLOP = 1e-12
# Gauss-Legendre order for the rate integral.  The integrand is entire, so
# the rule converges geometrically: rates reach the rounding floor (~3e-11
# relative) at 24 nodes for S=1 and 32 for S=3, and 48 gives 1.5x margin
# over the S=3 knee (test_rate_kernel_converged_in_order pins this).
_GL_ORDER = 48
# Bob's measurement bases; each window is sifted into one of them
N_BASES = 2
# start table of binary_entropy_inverse: this many nodes of
# log(p / (1 - 2p)) on [-40, 34] and 34 coarser ones from -700 up to -40;
# from its linear interpolation two steps leave h(p) within 4.5e-16 of the
# target (test_binary_entropy_inverse_round_trip pins 1e-14)
_HINV_NODES = 512
_HINV_STEPS = 2
# the iterate stays in [_P_MIN, _P_MAX], where both logs of a step are finite
_P_MIN = float(np.finfo(float).tiny)
_P_MAX = 0.5 - 2.0**-54


@dataclass(frozen=True)
class SecurityQuantities:
    """Overlap, intercepted-state spectrum and information bound."""

    overlap: float
    lambda_1: float
    lambda_2: float
    chi_dr: float

    @classmethod
    def of(cls, overlap, chi) -> SecurityQuantities:
        """The spectrum (1 +- overlap)/2 of an overlap, with its chi."""
        overlap = float(overlap)
        return cls(
            overlap=overlap,
            lambda_1=0.5 * (1.0 + overlap),
            lambda_2=0.5 * (1.0 - overlap),
            chi_dr=float(chi),
        )


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


@lru_cache(maxsize=None)
def _hinv_table():
    """Nodes (logit h(p), log(p / (1 - 2p))) of :func:`binary_entropy_inverse`'s start.

    Both coordinates run from -inf to +inf as p goes from 0 to 1/2, and
    each is asymptotically linear in the other at both ends.  1 - h(p) is
    formed from u = 1 - 2p for p >= 1/4, where h(p) nears 1.
    """
    t = np.exp(
        np.concatenate([np.linspace(-700.0, -40.0, 34, endpoint=False),
                        np.linspace(-40.0, 34.0, _HINV_NODES)])
    )
    p = t / (1.0 + 2.0 * t)
    logit = np.empty_like(p)
    low = p < 0.25
    h = _entropy_bits(p[low])
    logit[low] = np.log(h / (1.0 - h))
    u = 1.0 - 2.0 * p[~low]
    one_minus_h = (2.0 * u * np.arctanh(u) + np.log1p(-u * u)) / (2.0 * math.log(2.0))
    logit[~low] = np.log((1.0 - one_minus_h) / one_minus_h)
    return logit, np.log(t)


def binary_entropy_inverse(y) -> np.ndarray:
    """The p in [0, 1/2] with h(p) = y, elementwise; y is clipped to [0, 1].

    Starts from a table (:func:`_hinv_table`) and takes _HINV_STEPS
    Newton steps in w = (1 - 2p)^2 rather than in p: h'(1/2) = 0, so
    Newton in p converges only linearly as y nears 1, while 1 - h is
    smooth in w with a nonzero slope at w = 0.  The step is carried out
    on p, which keeps its relative precision as p nears 0.
    """
    # np.minimum/np.maximum: np.clip costs twice as much on short arrays
    y = np.minimum(np.maximum(np.asarray(y, dtype=float), 0.0), 1.0)
    logit, log_t = _hinv_table()
    # y = 0 and y = 1 give logits of -inf and +inf, which take the end nodes
    with np.errstate(divide="ignore"):
        t = np.exp(np.interp(np.log(y / (1.0 - y)), logit, log_t))
    p = t / (1.0 + 2.0 * t)
    y_nats = y * math.log(2.0)
    for _ in range(_HINV_STEPS):
        p = np.minimum(np.maximum(p, _P_MIN), _P_MAX)
        u = 1.0 - 2.0 * p
        # log((1 - p)/p), and the plain Newton step in p, in nats
        slope = np.log1p(u / p)
        r = (p * slope - np.log1p(-p) - y_nats) / slope
        # the Newton step in w, expressed as a step in p
        p = p - 2.0 * r / (1.0 + np.sqrt(np.maximum(1.0 + 4.0 * r / u, 0.0)))
    return np.minimum(np.maximum(p, 0.0), 0.5)


def _overlap_chi(mu_0, beta_A, S: int):
    """Overlap of the two same-basis signal states,
    exp(-mu_0 (1 - d00(2 beta_A))), and chi = h((1 - overlap)/2), elementwise.

    The doubled angle can exceed pi; P_S(cos) continues analytically there.
    """
    overlap = np.exp(-mu_0 * (1.0 - legendre_p(S, np.cos(2.0 * beta_A))))
    return overlap, _entropy_bits(0.5 * (1.0 - overlap))


def security_quantities(mu_0: float, beta_A: float, S: int) -> SecurityQuantities:
    """Spectrum of the intercepted two-state mixture and its chi bound: the
    one-point case of the rate kernel's rule."""
    S = _validate_spin(S)
    if not (math.isfinite(mu_0) and mu_0 >= 0.0):
        raise DomainError(f"mu_0 must be finite and >= 0, got {mu_0}")
    if not 0.0 <= beta_A <= math.pi:
        raise DomainError(f"beta_A must be in [0, pi], got {beta_A}")
    (overlap,), (chi,) = _overlap_chi(np.array([mu_0]), np.array([beta_A]), S)
    return SecurityQuantities.of(overlap, chi)


def holevo_dr(mu_0: float, beta_A: float, S: int) -> float:
    """Direct-reconciliation information bound chi = h((1 - overlap)/2)."""
    return security_quantities(mu_0, beta_A, S).chi_dr


def _legendre_series(c, x):
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, in legval's operation order."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=8)
def _gl_nodes(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], bit for bit those of
    ``numpy.polynomial.legendre.leggauss`` (companion-matrix eigenvalues,
    one Newton step), without importing numpy.polynomial."""
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    off = np.arange(1, order) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, -1) + np.diag(off, 1))
    c = np.eye(order + 1)[order]
    # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    k = np.arange(order)
    dc = np.where(k % 2 == (order - 1) % 2, 2.0 * k + 1.0, 0.0)
    df = _legendre_series(dc, x)
    x -= _legendre_series(c, x) / df
    fm = _legendre_series(c[1:], x)
    w = 1 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    return x, w * (2.0 / w.sum())


@dataclass(frozen=True)
class SymbolBlock:
    """The threshold-free part of N rate points.

    Every array is over the N points; ``xi`` is one excess noise for all
    of them or an array of one each, and ``sigma`` its readout standard
    deviation.  ``degenerate`` marks symbol means the model leaves
    undefined.
    """

    xi: float | np.ndarray
    sigma: float | np.ndarray
    mean_plus: np.ndarray
    mean_minus: np.ndarray
    overlap: np.ndarray
    chi: np.ndarray
    degenerate: np.ndarray
    scale: float

    def at(self, v_0) -> RateBlock:
        """The rate block of these points at thresholds ``v_0`` (one per point)."""
        v_0 = np.asarray(v_0, dtype=float)
        E, P = decision_masses(v_0, self.mean_plus, self.mean_minus, self.sigma)
        hi = integration_ceiling(self.mean_plus, self.mean_minus, self.sigma)
        half = np.where(hi > v_0, 0.5 * (hi - v_0), 0.0)
        x, _ = _gl_nodes(_GL_ORDER)
        nodes = (0.5 * (hi + v_0))[:, None] + half[:, None] * x
        xi = self.xi[:, None] if isinstance(self.xi, np.ndarray) else self.xi
        one_minus_g, e = erasure_error_profiles(
            nodes, self.mean_plus[:, None], self.mean_minus[:, None], xi
        )
        shared = {f.name: getattr(self, f.name) for f in fields(SymbolBlock)}
        return RateBlock(
            **shared, v_0=v_0, E=E, P=P, empty=P < P_FLOOR,
            one_minus_g=one_minus_g, e=e, half=half,
        )


@dataclass(frozen=True)
class RateBlock(SymbolBlock):
    """Shared ingredients of N rate points and their thresholds.

    ``one_minus_g`` and ``e`` are the readout profiles at the
    Gauss-Legendre nodes of each point's accepted region [v_0, ceiling],
    shape (N, ``_GL_ORDER``).  ``empty`` marks an acceptance mass below
    the abort floor.
    """

    v_0: np.ndarray
    E: np.ndarray
    P: np.ndarray
    empty: np.ndarray
    one_minus_g: np.ndarray
    e: np.ndarray
    half: np.ndarray

    def integrate(self, fraction) -> np.ndarray:
        """Bits per second from a per-bit secret fraction on the node grid.

        einsum, not a BLAS ``@``: the last bits of a BLAS product depend on
        how many rows share the call, and a row's rate must not.
        """
        _, w = _gl_nodes(_GL_ORDER)
        weighted = np.einsum("ij,j->i", self.one_minus_g * fraction, w)
        return self.scale * (self.half * weighted)

    def point(self, i: int) -> tuple[DecisionStats | None, SecurityQuantities]:
        """Post-selection statistics (None when empty) and chi spectrum of point i."""
        quantities = SecurityQuantities.of(self.overlap[i], self.chi[i])
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
            xi=float(self.xi[i] if isinstance(self.xi, np.ndarray) else self.xi),
        )
        return stats, quantities


def symbol_block(mu_0, beta_A, delta, eta, xi, sys: SystemParams) -> SymbolBlock:
    """Symbol means and chi of N working points.

    ``mu_0``, ``beta_A`` and ``delta`` are equal-length arrays of values
    already validated as :class:`TunableParams` validates them; ``eta``
    and ``xi`` hold each point's channel transmittance and excess noise,
    or one for all.  Every output row depends on its own point alone.  The
    system's symmetric_doubling flag folds in the mirrored negative readout
    branch.
    """
    mu_0 = np.asarray(mu_0, dtype=float)
    beta_A = np.asarray(beta_A, dtype=float)
    if not isinstance(xi, float):
        xi = np.asarray(xi, dtype=float)
        xi = float(xi) if xi.ndim == 0 else xi
    mean_plus, mean_minus, degenerate = matched_means_array(
        mu_0, beta_A, np.asarray(delta, dtype=float), sys, np.asarray(eta, dtype=float)
    )
    overlap, chi = _overlap_chi(mu_0, beta_A, sys.S)
    return SymbolBlock(
        xi=xi,
        sigma=noise_sigma(xi),
        mean_plus=mean_plus,
        mean_minus=mean_minus,
        overlap=overlap,
        chi=chi,
        degenerate=degenerate,
        scale=(2.0 if sys.symmetric_doubling else 1.0) / (N_BASES * sys.T),
    )


def rate_block(
    mu_0,
    beta_A,
    delta,
    v_0,
    sys: SystemParams,
    ch: ChannelModel,
) -> RateBlock:
    """Evaluate N working points at one channel at once: :func:`symbol_block`
    at thresholds ``v_0``, an array of the same length."""
    return symbol_block(mu_0, beta_A, delta, ch.eta, ch.xi, sys).at(v_0)


def threshold_at_error(symbols: SymbolBlock, e_star, v_lo, v_hi):
    """Thresholds where the error fraction e(v) falls to ``e_star``, in [v_lo, v_hi].

    ``v_lo`` and ``v_hi`` are one bound for all points or one per point.

    With sigma^2 = (1 + xi)/4, logit e(v) = (m+ - m-)(m+ + m- - 2v) /
    (2 sigma^2), so v = (m+ + m-)/2 - sigma^2 logit(e*) / (m+ - m-).  An
    e* <= 0 is reached by no v and gives v_hi.  The rule needs m+ > m-;
    a point without it gets v_lo, and callers must not score it.
    """
    gap = symbols.mean_plus - symbols.mean_minus
    sigma2 = V_VAC * (1.0 + symbols.xi)
    e_star = np.maximum(e_star, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logit = np.log(e_star) - np.log1p(-e_star)
        v = 0.5 * (symbols.mean_plus + symbols.mean_minus) - sigma2 * logit / gap
    return np.where(gap > 0.0, np.minimum(np.maximum(v, v_lo), v_hi), v_lo)


def asymptotic_threshold(symbols: SymbolBlock, v_lo, v_hi):
    """The asymptotic rate's best thresholds in [v_lo, v_hi] (scalars or per point).

    The secret fraction 1 - h(e(v)) - chi crosses zero at
    e* = h^-1(1 - chi) (see :func:`threshold_at_error`).
    """
    e_star = binary_entropy_inverse(1.0 - symbols.chi)
    return threshold_at_error(symbols, e_star, v_lo, v_hi)


def point_block(tun: TunableParams, sys: SystemParams, ch: ChannelModel) -> RateBlock:
    """The N=1 kernel block of one working point; undefined means raise."""
    block = rate_block([tun.mu_0], [tun.beta_A], [tun.delta], [tun.v_0], sys, ch)
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
    tun: TunableParams, sys: SystemParams, ch: ChannelModel
) -> KeyRateResult:
    """Collective-attack secret key rate in bits per second.

    Integrates the acceptance-weighted secret fraction over v >= v_0 and,
    when the system's symmetric_doubling flag is set, doubles it for the
    mirrored negative branch.  A non-positive total, or an empty acceptance
    region, is clamped to 0 and flagged insecure.
    """
    block = point_block(tun, sys, ch)
    stats, quantities = block.point(0)
    rate = float(asymptotic_rates(block)[0])
    return KeyRateResult(
        rate=rate,
        insecure=not rate > 0.0,
        chi=quantities.chi_dr,
        stats=stats,
        quantities=quantities,
    )

