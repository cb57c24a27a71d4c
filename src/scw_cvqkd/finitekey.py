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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .noise import ChannelModel, DecisionStats
from .optics import SystemParams, TunableParams
from .security import (
    RateBlock,
    SymbolBlock,
    binary_entropy,
    binary_entropy_inverse,
    point_block,
    threshold_at_error,
)

_EC_MODES = ("pointwise", "block")


@dataclass(frozen=True)
class FiniteKeyParams:
    """Block size, security parameters and error-correction overheads."""

    n: int
    eps_s: float = 1e-10
    eps_PA: float = 1e-10
    check_EC: int = 256
    f_EC: float = 1.15
    dQ: float = 0.01
    k_sample: int = 0
    Q_est: float | None = None

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"block size must be a positive int, got {self.n!r}")
        for name in ("eps_s", "eps_PA"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise DomainError(f"{name} must be in (0, 1), got {val}")
        if not (isinstance(self.check_EC, int) and self.check_EC >= 1):
            raise DomainError(
                f"verification hash length must be a positive int, got {self.check_EC!r}"
            )
        if not self.f_EC >= 1.0:
            raise DomainError(f"f_EC must be >= 1, got {self.f_EC}")
        if not 0.0 <= self.dQ < 0.5:
            raise DomainError(f"dQ must be in [0, 1/2), got {self.dQ}")
        if not 0 <= self.k_sample < self.n:
            raise DomainError(
                f"k_sample must be in [0, n), got {self.k_sample} with n={self.n}"
            )
        if self.Q_est is not None and not 0.0 <= self.Q_est <= 0.5:
            raise DomainError(f"Q_est must be in [0, 1/2], got {self.Q_est}")

    @property
    def eps_EC(self) -> float:
        return 2.0 ** -self.check_EC

    @property
    def loss_PA(self) -> float:
        return math.log2(1.0 / self.eps_PA) - 2.0

    @property
    def eps_QKD(self) -> float:
        return self.eps_EC + self.eps_s + self.eps_PA


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


def _fixed_charge(chi, fk: FiniteKeyParams, k_sample, n):
    """The per-bit charges that do not depend on the readout: chi and the
    overheads of block size ``n`` (one, or one per point) shared by both
    error-correction charges."""
    # sqrt is correctly rounded in numpy as in math, so a per-point n gets
    # the bits of the scalar call
    root_n = np.sqrt(n) if isinstance(n, np.ndarray) else math.sqrt(n)
    return (
        chi
        + smoothing_correction(fk.eps_s) / root_n
        + (k_sample + fk.check_EC + fk.loss_PA) / n
    )


def pointwise_threshold(symbols: SymbolBlock, fk: FiniteKeyParams, v_lo, v_hi, n=None):
    """The pointwise finite rate's best thresholds in [v_lo, v_hi].

    The per-bit fraction 1 - c_n - f_EC h(min(e(v) + dQ, 1/2)), with c_n
    from :func:`_fixed_charge`, crosses zero at
    e* = h^-1((1 - c_n)/f_EC) - dQ (see
    :func:`security.threshold_at_error`); when e* <= 0 it is negative at
    every v and the threshold is v_hi.  Block mode's flat charge has no
    such rule.  The bounds and the block size ``n`` (default ``fk.n``) are
    one for all points or one per point.
    """
    n = fk.n if n is None else n
    budget = (1.0 - _fixed_charge(symbols.chi, fk, fk.k_sample, n)) / fk.f_EC
    e_star = binary_entropy_inverse(budget) - fk.dQ
    return threshold_at_error(symbols, e_star, v_lo, v_hi)


def finite_rates(
    block: RateBlock,
    fk: FiniteKeyParams,
    ec_mode: str = "pointwise",
    k_sample=None,
    n=None,
) -> np.ndarray:
    """Finite-block rates of a kernel block in bits per second; 0 where aborted.

    ``ec_mode`` is one of ``_EC_MODES``; ``k_sample`` and the block size
    ``n`` (each a scalar or one per point) default to ``fk.k_sample`` and
    ``fk.n``.
    """
    if ec_mode not in _EC_MODES:
        raise DomainError(f"ec_mode must be one of {_EC_MODES}, got {ec_mode!r}")
    if k_sample is None:
        k_sample = fk.k_sample
    n = fk.n if n is None else n
    fixed = _fixed_charge(block.chi, fk, k_sample, n)
    abort = block.empty
    if ec_mode == "block":
        Q = np.divide(block.E, block.P, out=np.zeros_like(block.P), where=~abort)
        abort = abort | (Q + fk.dQ >= 0.5)
        code_ec = _syndrome_bits(n, np.where(abort, 0.0, Q) + fk.dQ, fk.f_EC)
        fraction = (1.0 - fixed - code_ec / n)[:, None]
    else:
        charge = fk.f_EC * binary_entropy(np.minimum(block.e + fk.dQ, 0.5))
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
    asymptotic rate.  ``fk.k_sample`` overrides ``tun.k_sample`` when the
    latter is zero.
    """
    k_sample = tun.k_sample if tun.k_sample > 0 else fk.k_sample
    if k_sample >= fk.n:
        raise DomainError(f"k_sample {k_sample} must be below block size {fk.n}")
    block = point_block(tun, sys, ch)
    stats, quantities = block.point(0)
    rate = float(finite_rates(block, fk, ec_mode, k_sample)[0])
    return FiniteKeyResult(
        rate=rate, abort=not rate > 0.0, chi=quantities.chi_dr, stats=stats, n=fk.n
    )

