"""State preparation, re-modulation and coherent readout of the sideband link.

Alice's phase modulator spreads a carrier of ``mu_0`` mean photons over
2S+1 modes with rotation angle ``beta_A`` and phase ``phi_A``.  Bob
re-modulates with angle ``beta_B = delta * beta_A`` at phase ``phi_B``
(plus a fixed structural offset he pre-compensates), which recombines the
modes into an effective single rotation by the composite angle beta',

    cos(beta') = cos(beta_A) cos(beta_B) - sin(beta_A) sin(beta_B) cos(dphi),

with dphi = phi_A - phi_B.  The carrier power left after recombination
sets the interference contrast u(dphi) = 1 - 2 (1 - theta_carrier)
d^S_{00}(beta')^2.

The Gaussian center of each symbol is the transmitted first-order sideband
amplitude s sqrt(eta * mu_0) |d^S_{01}(beta_A)| scaled by the normalized
contrast u(dphi)/u(0).  The phase alphabets make dphi one of 0 and pi in
the matched basis, where cos(beta') = cos(beta_A +- beta_B), and +-pi/2 in
the other, where cos(beta') = cos(beta_A) cos(beta_B).
:func:`matched_means_array` forms the matched pair for arrays of working
points; :func:`matched_means` and :func:`mean_table` are its one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _import_one_blas_thread
from .angular import first_sideband_weight, legendre_p
from .errors import DegenerateError, DomainError, InternalError, NoRootError

_CAL_DELTA_MAX = 10.0
_CAL_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SystemParams:
    """Fixed hardware constants of the link.

    ``T`` is the duration of one transmission window in seconds,
    ``theta_carrier`` the residual carrier attenuation of the spectral
    filter, ``S`` the number of sideband pairs and ``s`` the detector
    sensitivity scale.
    ``symmetric_doubling`` folds the mirrored negative readout branch into
    the rate.
    """

    T: float = 100e-9
    theta_carrier: float = 1e-6
    S: int = 1
    s: float = 1.0
    symmetric_doubling: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise DomainError(
                f"window duration must be finite and positive, got {self.T}"
            )
        if not 0.0 <= self.theta_carrier <= 1.0:
            raise DomainError(
                f"carrier attenuation must be in [0, 1], got {self.theta_carrier}"
            )
        if not (isinstance(self.S, int) and self.S >= 1):
            raise DomainError(f"sideband-pair count must be a positive int, got {self.S}")
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise DomainError(
                f"detector sensitivity must be finite and positive, got {self.s}"
            )


@dataclass(frozen=True)
class TunableParams:
    """Per-run protocol knobs: photon budget, modulation depths, threshold."""

    mu_0: float
    beta_A: float
    delta: float
    v_0: float
    k_sample: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.mu_0) and self.mu_0 >= 0.0):
            raise DomainError(f"mu_0 must be finite and >= 0, got {self.mu_0}")
        if not 0.0 <= self.beta_A <= math.pi:
            raise DomainError(f"beta_A must be in [0, pi], got {self.beta_A}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise DomainError(f"delta must be finite and positive, got {self.delta}")
        if not (math.isfinite(self.v_0) and self.v_0 >= 0.0):
            raise DomainError(f"v_0 must be finite and >= 0, got {self.v_0}")
        if self.k_sample < 0:
            raise DomainError(f"k_sample must be >= 0, got {self.k_sample}")

    @property
    def beta_B(self) -> float:
        return self.delta * self.beta_A


def _contrast(cos_beta_prime, theta_carrier: float, S: int):
    """Interference contrast u = 1 - 2 (1 - theta_carrier) P_S(cos beta')^2."""
    w = legendre_p(S, cos_beta_prime)
    return 1.0 - 2.0 * (1.0 - theta_carrier) * w * w


def matched_contrasts(beta_A, beta_B, theta_carrier: float, S: int):
    """Contrasts (u(0), u(pi)) of the matched basis; scalar or array angles.

    The composite angle is beta_A + beta_B at dphi = 0 and |beta_A - beta_B|
    at pi, so cos(beta') needs no arccos round trip.
    """
    return (
        _contrast(np.cos(beta_A + beta_B), theta_carrier, S),
        _contrast(np.cos(beta_A - beta_B), theta_carrier, S),
    )


def matched_means_array(mu_0, beta_A, delta, sys: SystemParams, eta):
    """Gaussian centers of the matched-basis symbols at arrays of working points.

    ``mu_0``, ``beta_A`` and ``delta`` are equal-length arrays, already
    validated as :class:`TunableParams` validates them; ``eta`` is the
    channel transmittance, one for all points or one per point.  Returns
    (mean_plus, mean_minus, degenerate): the sideband amplitude and that
    amplitude times u(pi)/u(0).  Where u(0) = 0 both are 0, and
    ``degenerate`` marks the points among those whose u(pi) is not 0, where
    the means are undefined.
    """
    u0, upi = matched_contrasts(beta_A, delta * beta_A, sys.theta_carrier, sys.S)
    amp = sys.s * np.sqrt(eta * mu_0) * first_sideband_weight(sys.S, beta_A)
    lit = u0 != 0.0
    return amp * lit, amp * (upi / np.where(lit, u0, 1.0)), ~lit & (upi != 0.0)


def matched_means(
    tun: TunableParams, sys: SystemParams, eta: float
) -> tuple[float, float]:
    """(mean_plus, mean_minus) of one working point: :func:`matched_means_array`
    at N=1.  The vacuum, mu_0 = 0, reads 0; undefined means raise
    :class:`DegenerateError`."""
    if tun.mu_0 == 0.0:
        return 0.0, 0.0
    plus, minus, degenerate = matched_means_array(
        np.array([tun.mu_0]), np.array([tun.beta_A]), np.array([tun.delta]), sys, eta
    )
    if degenerate[0]:
        raise DegenerateError(
            f"symbol means undefined at beta_A={tun.beta_A}, delta={tun.delta}"
        )
    return float(plus[0]), float(minus[0])


def mean_table(tun: TunableParams, sys: SystemParams, eta: float) -> np.ndarray:
    """4x2 array of Gaussian centers over Alice's phases 0, pi/2, pi, 3pi/2
    (rows) and Bob's bases 0, pi/2 (columns).

    Cells whose phase difference is 0 or pi hold :func:`matched_means`.  The
    other four differ by +-pi/2 and hold mean_plus times u(pi/2)/u(0).
    Where u(0) = 0 they are 0 if u(pi/2) = 0 too, and otherwise undefined
    (:class:`DegenerateError`) unless mu_0 = 0.
    """
    plus, minus = matched_means(tun, sys, eta)
    beta_A, beta_B = np.array([tun.beta_A]), np.array([tun.beta_B])
    (u0,), _ = matched_contrasts(beta_A, beta_B, sys.theta_carrier, sys.S)
    (u_mid,) = _contrast(np.cos(beta_A) * np.cos(beta_B), sys.theta_carrier, sys.S)
    if u0 == 0.0 and u_mid != 0.0 and tun.mu_0 > 0.0:
        raise DegenerateError(
            f"mismatched-basis mean undefined at beta_A={tun.beta_A}, delta={tun.delta}"
        )
    mid = plus * (u_mid / u0) if u0 != 0.0 else 0.0
    return np.array([[plus, mid], [mid, plus], [minus, mid], [mid, minus]])


def _accept_root(delta: float, beta_A: float, theta_carrier: float, S: int) -> bool:
    """Check a balance root's residual; keep it if the matched contrast is positive."""
    u0, upi = matched_contrasts(beta_A, delta * beta_A, theta_carrier, S)
    if abs(u0 + upi) > _CAL_RESIDUAL_TOL:
        raise InternalError(
            f"calibration residual {abs(u0 + upi):.3e} at delta={delta}"
        )
    # reject branches where the matched-phase contrast is inverted
    return u0 > 0.0


def _calibrate_closed_form(beta_A: float, theta_carrier: float) -> float | None:
    """First S=1 balance root with positive matched contrast, or None if none.

    At S=1, d_00(beta') = cos(beta') and the balance reduces to
    2 theta - 2 (1 - theta) cos(2 beta_A) cos(2 beta_A delta), so the roots
    are 2 beta_A delta = +-arccos(c) + 2 pi m with
    c = theta / ((1 - theta) cos 2 beta_A).  They are walked in increasing
    delta up to the bracket end.
    """
    lead = (1.0 - theta_carrier) * math.cos(2.0 * beta_A)
    if lead == 0.0 or abs(theta_carrier) > abs(lead):
        return None
    a = math.acos(theta_carrier / lead)
    turn = 0.0
    while True:
        for x in (turn + a, turn + 2.0 * math.pi - a):
            delta = x / (2.0 * beta_A)
            if delta > _CAL_DELTA_MAX:
                return None
            if delta > 0.0 and _accept_root(delta, beta_A, theta_carrier, 1):
                return delta
        turn += 2.0 * math.pi


def _calibrate_by_scan(beta_A: float, theta_carrier: float, S: int) -> float | None:
    """First balance root with positive matched contrast, by scan plus brentq."""
    # scipy is imported only by this S > 1 route, not by the S = 1 rate path;
    # its own OpenBLAS gets the package's one-thread default
    brentq = _import_one_blas_thread("scipy.optimize").brentq

    def balance(d):
        # zero when the two matched-basis contrasts are symmetric about 0
        u0, upi = matched_contrasts(beta_A, d * beta_A, theta_carrier, S)
        return u0 + upi

    # the contrast oscillates faster at larger spin and angle
    n_scan = max(600, int(200 * S * beta_A))
    grid = np.linspace(1e-6, _CAL_DELTA_MAX, n_scan)
    beta_B = grid * beta_A
    u0, upi = matched_contrasts(beta_A, beta_B, theta_carrier, S)
    vals = u0 + upi
    for i in range(len(grid) - 1):
        lo, hi = vals[i], vals[i + 1]
        if lo == 0.0:
            root = float(grid[i])
        elif lo * hi < 0.0:
            root = float(brentq(balance, grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15))
        else:
            continue
        if _accept_root(root, beta_A, theta_carrier, S):
            return root
    return None


@lru_cache(maxsize=4096)
def _calibrate_delta_cached(beta_A: float, theta_carrier: float, S: int) -> float:
    if S == 1:
        root = _calibrate_closed_form(beta_A, theta_carrier)
    else:
        root = _calibrate_by_scan(beta_A, theta_carrier, S)
    if root is None:
        raise NoRootError(
            f"no calibration root with positive matched contrast for beta_A={beta_A}, "
            f"S={S} in delta bracket (0, {_CAL_DELTA_MAX}]"
        )
    return root


def calibrate_delta(beta_A: float, sys: SystemParams) -> float:
    """Modulation-depth ratio delta balancing the two matched-basis symbols.

    Solves u(0) + u(pi) = 0 for delta in (0, 10], taking the first root at
    which the matched-phase contrast u(0) is positive, so the symbol means
    come out symmetric about zero with the conventional sign.  At S=1 the
    roots have a closed form, cos(2 beta_A) cos(2 beta_A delta) =
    theta/(1 - theta); larger S scans the bracket and polishes each sign
    change with brentq.  Either way a root whose residual exceeds 1e-10
    raises :class:`InternalError`, and no qualifying root raises
    :class:`NoRootError`.
    """
    if not 0.0 < beta_A < 0.5 * math.pi:
        raise DomainError(f"calibration needs beta_A in (0, pi/2), got {beta_A}")
    return _calibrate_delta_cached(beta_A, sys.theta_carrier, sys.S)
