"""State preparation, re-modulation and coherent readout of the sideband link.

Alice's phase modulator spreads a carrier of ``mu_0`` mean photons over
2S+1 modes with rotation angle ``beta_A`` and phase ``phi_A``.  Bob
re-modulates with angle ``beta_B = delta * beta_A`` at phase ``phi_B``
(plus a fixed structural offset he pre-compensates), which recombines the
modes into an effective single rotation by the composite angle
``beta_prime``.  The carrier power left after recombination feeds one
detector arm, everything else the other; their difference, normalized by
the local-oscillator amplitude, is the quadrature readout.

Two conventions for the per-symbol Gaussian center are supported:

* ``"sideband"`` (default): the transmitted first-order sideband
  amplitude sqrt(eta * mu_0) |d^S_{01}(beta_A)| scaled by the normalized
  interference contrast u(dphi)/u(0);
* ``"detector"``: the photocurrent-difference readout
  (n1 - n2) s / (2 sqrt(n_LO)) taken literally.

The sideband convention reproduces the expected loss budget of the
deployed system; the detector one is kept for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .angular import carrier_weight, first_sideband_weight, legendre_p, wigner_d_row
from .errors import DegenerateError, DomainError, InternalError, NoRootError

_MEAN_CONVENTIONS = ("sideband", "detector")
# Alice's modulator phase alphabet.
ALICE_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
# Bob's two measurement bases as modulator phases.
BOB_PHASES = (0.0, 0.5 * math.pi)

_ARCCOS_SLOP = 1e-12
_CAL_DELTA_MAX = 10.0
_CAL_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SystemParams:
    """Fixed hardware constants plus model conventions.

    ``T`` is the duration of one transmission window in seconds, ``eta_B``
    the transmittance of Bob's module, ``theta_carrier`` the residual
    carrier attenuation of the spectral filter, ``S`` the number of
    sideband pairs, ``s`` the detector sensitivity scale and ``N`` the
    number of bases.  ``theta_1`` is Alice's constant modulator phase,
    which only :func:`alice_state` reads.
    """

    T: float = 100e-9
    eta_B: float = 10.0 ** -0.64
    theta_carrier: float = 1e-6
    S: int = 1
    s: float = 1.0
    N: int = 2
    theta_1: float = 0.0
    mean_convention: str = "sideband"
    symmetric_doubling: bool = True

    def __post_init__(self):
        if not self.T > 0:
            raise DomainError(f"window duration must be positive, got {self.T}")
        if not 0.0 < self.eta_B <= 1.0:
            raise DomainError(f"eta_B must be in (0, 1], got {self.eta_B}")
        if not 0.0 <= self.theta_carrier <= 1.0:
            raise DomainError(
                f"carrier attenuation must be in [0, 1], got {self.theta_carrier}"
            )
        if self.N != 2:
            raise DomainError(f"two measurement bases required, got N={self.N}")
        if not (isinstance(self.S, int) and self.S >= 1):
            raise DomainError(f"sideband-pair count must be a positive int, got {self.S}")
        if self.mean_convention not in _MEAN_CONVENTIONS:
            raise DomainError(
                f"mean_convention must be one of {_MEAN_CONVENTIONS}, "
                f"got {self.mean_convention!r}"
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


@dataclass(frozen=True)
class MultimodeState:
    """Product coherent state over modes k = -S..S."""

    S: int
    amplitudes: np.ndarray = field(repr=False)

    def amplitude(self, k: int) -> complex:
        if not -self.S <= k <= self.S:
            raise DomainError(f"mode index {k} outside [-{self.S}, {self.S}]")
        return complex(self.amplitudes[k + self.S])

    @property
    def mu_total(self) -> float:
        """Total mean photon number, sum of |amplitude|^2 over modes."""
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def alice_state(
    mu_0: float, beta_A: float, phi_A: float, sys: SystemParams
) -> MultimodeState:
    """Multimode coherent state leaving Alice's modulator.

    Mode k carries amplitude sqrt(mu_0) d^S_{0k}(beta_A) e^{-i(theta_1+phi_A)k};
    the total photon number equals mu_0 by row unitarity.
    """
    if not (math.isfinite(mu_0) and mu_0 >= 0.0):
        raise DomainError(f"mu_0 must be finite and >= 0, got {mu_0}")
    row = wigner_d_row(sys.S, beta_A)
    k = np.arange(-sys.S, sys.S + 1)
    phases = np.exp(-1j * (sys.theta_1 + phi_A) * k)
    return MultimodeState(S=sys.S, amplitudes=math.sqrt(mu_0) * row.values * phases)


def relative_phase(phi_A: float, phi_B: float) -> float:
    """Effective modulation phase difference seen by the recombination.

    Bob biases his modulator by the structural phase offset, so the offset
    cancels and only the basis difference survives.
    """
    return phi_A - phi_B


def beta_prime(beta_A: float, beta_B: float, delta_phi: float) -> float:
    """Composite rotation angle of the two modulation stages.

    cos(beta') = cos(beta_A) cos(beta_B) - sin(beta_A) sin(beta_B) cos(delta_phi).
    ``beta_B`` may exceed pi: calibration scans drive delta up to 10, and the
    composition formula extends to any real second angle.  The result always
    lies in [0, pi].
    """
    if not 0.0 <= beta_A <= math.pi:
        raise DomainError(f"beta_A must be in [0, pi], got {beta_A}")
    if not (math.isfinite(beta_B) and beta_B >= 0.0):
        raise DomainError(f"beta_B must be finite and >= 0, got {beta_B}")
    arg = math.cos(beta_A) * math.cos(beta_B) - math.sin(beta_A) * math.sin(
        beta_B
    ) * math.cos(delta_phi)
    if abs(arg) > 1.0 + _ARCCOS_SLOP:
        raise InternalError(f"composite-angle cosine {arg} outside [-1, 1]")
    return math.acos(min(max(arg, -1.0), 1.0))


def interference_contrast(
    beta_A: float, delta: float, theta_carrier: float, S: int, delta_phi: float
) -> float:
    """Normalized arm imbalance u = (n1 - n2)/(mu_0 eta eta_B).

    u = 1 - 2 (1 - theta_carrier) d^S_{00}(beta')^2; independent of photon
    budget and channel loss.
    """
    w = carrier_weight(S, beta_prime(beta_A, delta * beta_A, delta_phi))
    return 1.0 - 2.0 * (1.0 - theta_carrier) * w * w


def detector_photon_numbers(
    tun: TunableParams,
    sys: SystemParams,
    eta: float,
    phi_A: float,
    phi_B: float,
) -> tuple[float, float]:
    """Mean photon numbers (n1, n2) at Bob's two detector arms.

    n2 collects the recombined-carrier fraction, n1 the rest; the sum is
    mu_0 * eta * eta_B exactly.
    """
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"channel transmittance must be in (0, 1], got {eta}")
    w = carrier_weight(
        sys.S, beta_prime(tun.beta_A, tun.beta_B, relative_phase(phi_A, phi_B))
    )
    budget = tun.mu_0 * eta * sys.eta_B
    carrier_frac = (1.0 - sys.theta_carrier) * w * w
    return budget * (1.0 - carrier_frac), budget * carrier_frac


def local_oscillator_photons(tun: TunableParams, sys: SystemParams, eta: float) -> float:
    """Carrier photons arriving at Bob before his modulation stage."""
    w = carrier_weight(sys.S, tun.beta_A)
    return tun.mu_0 * eta * w * w


def quadrature_mean(
    tun: TunableParams,
    sys: SystemParams,
    eta: float,
    phi_A: float,
    phi_B: float,
) -> float:
    """Photocurrent-difference readout v = (n1 - n2) s / (2 sqrt(n_LO)).

    mu_0 = 0 is the vacuum limit and returns 0; a vanishing local
    oscillator with photons present has no defined readout.
    """
    if tun.mu_0 == 0.0:
        return 0.0
    n_lo = local_oscillator_photons(tun, sys, eta)
    # below ~1e-24 of the photon budget the readout normalization diverges
    if n_lo <= 1e-24 * tun.mu_0 * eta:
        raise DegenerateError(
            f"local oscillator empty at beta_A={tun.beta_A} with mu_0={tun.mu_0}"
        )
    n1, n2 = detector_photon_numbers(tun, sys, eta, phi_A, phi_B)
    return (n1 - n2) * sys.s / (2.0 * math.sqrt(n_lo))


def symbol_mean(
    tun: TunableParams,
    sys: SystemParams,
    eta: float,
    phi_A: float,
    phi_B: float,
) -> float:
    """Gaussian center of the quadrature distribution for one phase pair.

    Under the default "sideband" convention this is the transmitted
    first-order sideband amplitude scaled by the normalized interference
    contrast; under "detector" it is :func:`quadrature_mean` verbatim.
    """
    if sys.mean_convention == "detector":
        return quadrature_mean(tun, sys, eta, phi_A, phi_B)
    if tun.mu_0 == 0.0:
        return 0.0
    dphi = relative_phase(phi_A, phi_B)
    u = interference_contrast(tun.beta_A, tun.delta, sys.theta_carrier, sys.S, dphi)
    u0 = interference_contrast(tun.beta_A, tun.delta, sys.theta_carrier, sys.S, 0.0)
    if u0 == 0.0:
        if u == 0.0:
            return 0.0
        raise DegenerateError(
            f"zero matched-phase contrast at beta_A={tun.beta_A}, delta={tun.delta}"
        )
    amp1 = abs(wigner_d_row(sys.S, tun.beta_A)[1])
    return sys.s * math.sqrt(eta * tun.mu_0) * amp1 * (u / u0)


def matched_means(
    tun: TunableParams, sys: SystemParams, eta: float
) -> tuple[float, float]:
    """Gaussian centers (mean_plus, mean_minus) of the two matched-basis symbols."""
    return (
        symbol_mean(tun, sys, eta, 0.0, 0.0),
        symbol_mean(tun, sys, eta, math.pi, 0.0),
    )


def mean_table(tun: TunableParams, sys: SystemParams, eta: float) -> np.ndarray:
    """4x2 array of Gaussian centers, rows = Alice phases, cols = Bob bases."""
    return np.array(
        [
            [symbol_mean(tun, sys, eta, pa, pb) for pb in BOB_PHASES]
            for pa in ALICE_PHASES
        ]
    )


def matched_contrasts(beta_A, beta_B, theta_carrier: float, S: int):
    """Vectorized :func:`interference_contrast` at delta_phi = 0 and pi.

    For arrays of Alice and Bob angles returns (u(0), u(pi)).  The composite
    angle is beta_A + beta_B at delta_phi = 0 and |beta_A - beta_B| at pi, so
    cos(beta') needs no arccos round trip.
    """
    lead = 2.0 * (1.0 - theta_carrier)
    w0 = legendre_p(S, np.cos(beta_A + beta_B))
    wpi = legendre_p(S, np.cos(beta_A - beta_B))
    return 1.0 - lead * w0 * w0, 1.0 - lead * wpi * wpi


def matched_means_array(mu_0, beta_A, delta, sys: SystemParams, eta: float):
    """Vectorized :func:`matched_means` over arrays of (mu_0, beta_A, delta).

    Returns (mean_plus, mean_minus, degenerate).  ``degenerate`` marks the
    points where :func:`symbol_mean` raises :class:`DegenerateError`; their
    means are set to 0.  Inputs are assumed already validated, as by
    :class:`TunableParams`.
    """
    u0, upi = matched_contrasts(beta_A, delta * beta_A, sys.theta_carrier, sys.S)
    if sys.mean_convention == "detector":
        w = legendre_p(sys.S, np.cos(beta_A))
        n_lo = mu_0 * eta * w * w
        # as quadrature_mean: the vacuum reads 0, an empty oscillator is undefined
        live = (mu_0 > 0.0) & (n_lo > 1e-24 * mu_0 * eta)
        gain = np.divide(
            mu_0 * eta * sys.eta_B * sys.s,
            2.0 * np.sqrt(n_lo),
            out=np.zeros_like(n_lo),
            where=live,
        )
        return gain * u0, gain * upi, (mu_0 > 0.0) & ~live
    amp = sys.s * np.sqrt(eta * mu_0) * first_sideband_weight(sys.S, beta_A)
    # as symbol_mean: u(0) = 0 zeroes the pair, and is undefined unless u(pi) = 0
    lit = u0 != 0.0
    return amp * lit, amp * (upi / np.where(lit, u0, 1.0)), ~lit & (upi != 0.0)


def _accept_root(delta: float, beta_A: float, theta_carrier: float, S: int) -> bool:
    """Check a balance root's residual; keep it if the matched contrast is positive."""
    u0 = interference_contrast(beta_A, delta, theta_carrier, S, 0.0)
    upi = interference_contrast(beta_A, delta, theta_carrier, S, math.pi)
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

    def balance(d):
        # zero when the two matched-basis contrasts are symmetric about 0
        return interference_contrast(
            beta_A, d, theta_carrier, S, 0.0
        ) + interference_contrast(beta_A, d, theta_carrier, S, math.pi)

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
