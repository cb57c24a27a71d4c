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
:meth:`SymbolBlock.at` adds the readout profiles at given thresholds on
an N x 48 grid of a constant Gauss-Legendre rule (:func:`rate_block` runs
both at one channel).  Each row's result depends on that row alone, to
the last bit, whatever the block around it.
:func:`asymptotic_key_rate` and :func:`finitekey.finite_key_rate` are its
N=1 case; the optimizer scores many points, and many channels, per
block.

Both readout Gaussians have the variance (1 + xi)/4, so the
log-likelihood ratio d(v) of the two symbols is linear in v, and e(v),
the accepted density 1 - g and h(e) all follow from one exponential
s = exp(-|d|) per node, for every row alike.  The masses E and P are not
needed to score a row: they are formed for block error correction, for a
row's report, and for the rare rows far enough past both means to be
empty.

The same fact lets the optimizer solve for the threshold between the two
stages instead of searching it: e(v) falls as v rises, the secret
fraction at v then rises, and the rate, its integral from v_0 up, peaks
where the fraction crosses zero: post-selection keeps exactly the
readouts with a positive advantage (:func:`asymptotic_threshold`,
:func:`finitekey.pointwise_threshold`).  Block error correction's flat
charge has a rule of its own (:func:`finitekey.block_threshold`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .angular import _validate_spin, legendre_p
from .errors import DegenerateError, DomainError
from .noise import (
    P_FLOOR,
    V_VAC,
    ChannelModel,
    DecisionStats,
    decision_masses,
    _per_value,
    integration_ceiling,
    readout_scales,
)
from .optics import SystemParams, TunableParams, matched_means_array

# unused here; perfbench's tracer patches the reference profiles in this module
from .noise import erasure_error_profiles  # noqa: F401

_BOUNDS_SLOP = 1e-12
# The rate integral's Gauss-Legendre rule: the nodes and weights of
# numpy.polynomial.legendre.leggauss(48), bit for bit, written as the
# nodes x > 0 and their weights (the rule is odd in x and even in w).  The
# integrand is entire, so the rule converges geometrically: rates reach
# the rounding floor (~3e-11 relative) at 24 nodes for S=1 and 32 for S=3,
# and 48 gives 1.5x margin over the S=3 knee
# (test_rate_kernel_converged_in_order pins this).
_GL_X = np.array([
    0.03238017096286937, 0.0970046992094627, 0.1612223560688917,
    0.22476379039468905, 0.28736248735545555, 0.3487558862921607,
    0.4086864819907167, 0.4669029047509584, 0.523160974722233,
    0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
    0.7240341309238146, 0.7671590325157404, 0.8070662040294426,
    0.8435882616243935, 0.8765720202742479, 0.9058791367155696,
    0.9313866907065543, 0.9529877031604308, 0.9705915925462473,
    0.9841245837228269, 0.9935301722663508, 0.9987710072524261,
])
_GL_W = np.array([
    0.06473769681268365, 0.06446616443594982, 0.06392423858464787,
    0.06311419228625373, 0.06203942315989242, 0.0607044391658936,
    0.059114839698395344, 0.057277292100402916, 0.05519950369998403,
    0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
    0.04467456085669423, 0.04154508294346455, 0.0382413510658305,
    0.034777222564770394, 0.031167227832798097, 0.027426509708357034,
    0.023570760839324047, 0.019616160457356056, 0.015579315722943226,
    0.011477234579234614, 0.007327553901276135, 0.0031533460523098414,
])
_GL_X = np.concatenate([-_GL_X[::-1], _GL_X])
_GL_W = np.concatenate([_GL_W[::-1], _GL_W])
# a row whose threshold lies more than this many readout sigmas above both
# symbol means may accept less than P_FLOOR; any other accepts at least
# Phi(-37)/2 = 2.9e-300 > P_FLOOR, so only such rows need P to know
# whether they are empty
_FAR_SIGMAS = 37.0
_LN2 = math.log(2.0)
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


def _node_profiles(centre, half, mean_plus, mean_minus, xi, log_peak):
    """(1 - g, e, s/(1 + s), s, a) at the nodes v = centre + half x.

    Both readout Gaussians have the variance sigma^2 = (1 + xi)/4, so the
    log-likelihood ratio d = lp- - lp+ = 2 (m+ - m-)(m+ + m- - 2v)/(1 + xi)
    is linear in x.  With a = -|d| and s = exp(a), the likelihood ratio of
    the less likely symbol to the more likely one, e = s/(1 + s) where
    d <= 0 and 1/(1 + s) where d > 0, and 1 - g = exp(lp)(1 + s)/2 with lp
    the more likely symbol's: one pass, and equal to
    :func:`noise.erasure_error_profiles` at the nodes up to rounding.

    A row's largest d lies at an end node.  When no end node of the block
    has d > 0, as on every row the search scores (ordered means, nodes
    past their midpoint), a = d and the d > 0 branches are skipped.
    """
    kappa = 2.0 / (1.0 + xi)
    root = np.sqrt(kappa)
    # sqrt(kappa) (v - m+), so lp+ - log 2 = log_peak - log 2 - u^2
    u = ((centre - mean_plus) * root)[:, None] + (half * root)[:, None] * _GL_X
    gap = kappa * (mean_plus - mean_minus)
    d = (gap * (mean_plus + mean_minus - 2.0 * centre))[:, None] - (
        (2.0 * gap * half)[:, None] * _GL_X
    )
    # is the symbol of m- the more likely one at any node?
    flip = (np.maximum(d[:, 0], d[:, -1]) > 0.0).any()
    a = d
    if flip:
        a = -np.abs(d)
        # sqrt(kappa) (v - m-) at those nodes
        u = np.where(d > 0.0, u + ((mean_plus - mean_minus) * root)[:, None], u)
    s = np.exp(a)
    one_plus_s = 1.0 + s
    # before s/(1 + s): one node array fewer alive here, 10% faster at 288 rows
    one_minus_g = np.exp((log_peak - _LN2)[:, None] - u * u) * one_plus_s
    minor = s / one_plus_s
    e = np.where(d > 0.0, 1.0 / one_plus_s, minor) if flip else minor
    return one_minus_g, e, minor, s, a


@dataclass(frozen=True)
class SymbolBlock:
    """The threshold-free part of N rate points.

    Every field is an (N,) array, one entry per point: ``xi`` is its
    excess noise, ``sigma`` its readout standard deviation and
    ``log_peak`` the log of its readout density's peak
    (:func:`noise.readout_scales`), ``scale`` the factor that turns its
    integral into bits per second, and ``degenerate`` marks symbol means
    the model leaves undefined.  The block of some of the points is every
    field taken at their rows.
    """

    xi: np.ndarray
    sigma: np.ndarray
    log_peak: np.ndarray
    mean_plus: np.ndarray
    mean_minus: np.ndarray
    overlap: np.ndarray
    chi: np.ndarray
    degenerate: np.ndarray
    scale: np.ndarray

    def at(self, v_0) -> RateBlock:
        """The rate block of these points at thresholds ``v_0`` (one per point).

        Every row's readout profiles take one pass over its nodes
        (:func:`_node_profiles`).  E and P are not formed here (see
        :attr:`RateBlock.masses`) except for rows whose threshold lies
        more than _FAR_SIGMAS above both means, the only rows that can be
        empty.
        """
        v_0 = np.asarray(v_0, dtype=float)
        plus, minus = self.mean_plus, self.mean_minus
        hi = integration_ceiling(plus, minus, self.sigma)
        half = np.where(hi > v_0, 0.5 * (hi - v_0), 0.0)
        one_minus_g, e, minor, s, a = _node_profiles(
            0.5 * (hi + v_0), half, plus, minus, self.xi, self.log_peak
        )
        empty = np.zeros(v_0.shape, dtype=bool)
        far = (np.maximum(plus, minus) - v_0) / self.sigma < -_FAR_SIGMAS
        if far.any():
            _, P = decision_masses(
                v_0[far], plus[far], minus[far], self.sigma[far]
            )
            empty[far] = P < P_FLOOR
        shared = {f.name: getattr(self, f.name) for f in fields(SymbolBlock)}
        return RateBlock(
            **shared, v_0=v_0, empty=empty, half=half, one_minus_g=one_minus_g,
            e=e, minor=minor, ratio=s, log_ratio=a,
        )


@dataclass(frozen=True)
class RateBlock(SymbolBlock):
    """Shared ingredients of N rate points and their thresholds.

    ``one_minus_g`` and ``e`` are the readout profiles at the
    Gauss-Legendre nodes of each point's accepted region [v_0, ceiling],
    shape (N, 48); ``ratio`` holds s = exp(a) there, with ``log_ratio``
    a = -|d| for the log-likelihood ratio d, and ``minor`` the less likely
    symbol's share s/(1 + s), which is min(e, 1 - e).  ``empty`` marks an
    acceptance mass below the abort floor.
    """

    v_0: np.ndarray
    empty: np.ndarray
    half: np.ndarray
    one_minus_g: np.ndarray
    e: np.ndarray
    minor: np.ndarray
    ratio: np.ndarray
    log_ratio: np.ndarray

    @cached_property
    def masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Error and acceptance masses (E, P) of every row, formed on first use."""
        return decision_masses(self.v_0, self.mean_plus, self.mean_minus, self.sigma)

    @property
    def E(self) -> np.ndarray:
        return self.masses[0]

    @property
    def P(self) -> np.ndarray:
        return self.masses[1]

    def entropy(self) -> np.ndarray:
        """h(e) in bits at the nodes, (log1p s - a s/(1 + s))/ln 2 for e
        and 1 - e alike."""
        return (np.log1p(self.ratio) - self.minor * self.log_ratio) / _LN2

    def integrate(self, fraction) -> np.ndarray:
        """Bits per second from a per-bit secret fraction on the node grid.

        einsum, not a BLAS ``@``: the last bits of a BLAS product depend on
        how many rows share the call, and a row's rate must not.
        """
        weighted = np.einsum("ij,j->i", self.one_minus_g * fraction, _GL_W)
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
            xi=float(self.xi[i]),
        )
        return stats, quantities


def symbol_block(mu_0, beta_A, delta, eta, xi, sys: SystemParams) -> SymbolBlock:
    """Symbol means and chi of N working points.

    ``mu_0``, ``beta_A`` and ``delta`` are equal-length arrays of values
    already validated as :class:`TunableParams` validates them; ``eta``
    and ``xi`` hold each point's channel transmittance and excess noise,
    or one value that every point takes.  Every output row depends on its
    own point alone.  The system's symmetric_doubling flag folds in the
    mirrored negative readout branch.
    """
    mu_0 = np.asarray(mu_0, dtype=float)
    beta_A = np.asarray(beta_A, dtype=float)
    xi = np.broadcast_to(np.asarray(xi, dtype=float), mu_0.shape)
    mean_plus, mean_minus, degenerate = matched_means_array(
        mu_0, beta_A, np.asarray(delta, dtype=float), sys, np.asarray(eta, dtype=float)
    )
    overlap, chi = _overlap_chi(mu_0, beta_A, sys.S)
    sigma, log_peak = _per_value(readout_scales, xi)
    scale = (2.0 if sys.symmetric_doubling else 1.0) / (N_BASES * sys.T)
    return SymbolBlock(
        xi=xi,
        sigma=sigma,
        log_peak=log_peak,
        mean_plus=mean_plus,
        mean_minus=mean_minus,
        overlap=overlap,
        chi=chi,
        degenerate=degenerate,
        scale=np.full(mu_0.shape, scale),
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
    raw = block.integrate(1.0 - block.entropy() - block.chi[:, None])
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

