"""Channel math for the UAV-assisted covert satellite downlink.

Two propagation regimes live here. The satellite-to-ground links fade
according to the squared shadowed-Rician (SR) law: a diffuse scatter
component of total power 2b plus a line-of-sight component whose power is
Nakagami-shadowed with severity m and mean omega. The UAV-to-ground links
are distance-law LoS channels with a reference gain at 1 m.

The SR squared envelope has an exact sampler and a Gamma(alpha, theta)
surrogate that matches its first two moments exactly (alpha*theta =
2b + omega, alpha*theta^2 = 4b^2 + 4b*omega + omega^2/m). At m = 1 the
law is exactly exponential with mean 2b + omega, and the sampler draws
that row as one exponential fill. The surrogate's shape/scale and the
constant mu = Gamma(alpha+1)^(-1/alpha) feed the closed-form detection
bound in :mod:`skycloak.detection`, which also holds the exact
fading-averaged detection error: an incomplete-gamma series, or a closed
form at m = 1.

All quantities are linear and SI internally: watts, meters, Hz. Unit
conversion belongs to the configuration boundary (scenario_io), never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SHADOWING_ROWS",
    "SRParams",
    "GammaApprox",
    "SatelliteLink",
    "UavPlacement",
    "UavLinkBudget",
    "gamma_from_sr",
    "sample_sr_power",
    "uav_gain",
    "covert_rate",
    "ue_rate",
]

_SPEED_OF_LIGHT = 299_792_458.0  # m/s

@dataclass(frozen=True)
class SRParams:
    """Shadowed-Rician squared-envelope parameters.

    b is the half power of the diffuse scatter component, m the Nakagami
    severity of the LoS shadowing, omega the mean LoS power. The mean of
    |h|^2 is 2b + omega.
    """

    b: float
    m: float
    omega: float

    def __post_init__(self) -> None:
        if not (self.b > 0.0):
            raise ValueError(f"b must be positive, got {self.b}")
        if not (self.m >= 1.0):
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega}")

    @property
    def mean_power(self) -> float:
        return 2.0 * self.b + self.omega


# Canonical land-mobile-satellite shadowing levels.
SHADOWING_ROWS = {
    "light": SRParams(b=0.158, m=19.4, omega=1.29),
    "average": SRParams(b=0.126, m=10.1, omega=0.835),
    "heavy": SRParams(b=0.063, m=1.0, omega=8.97e-4),
}


@dataclass(frozen=True)
class GammaApprox:
    """Gamma(alpha, theta) surrogate of the squared-SR law.

    mu = Gamma(alpha+1)^(-1/alpha) is the constant entering the DEP lower
    bound; it lies in (0, 1] for alpha >= 1.
    """

    alpha: float
    theta: float
    mu: float

    def __post_init__(self) -> None:
        if not (self.alpha >= 1.0 and self.theta > 0.0):
            raise ValueError("need alpha >= 1 and theta > 0")
        if not (0.0 < self.mu <= 1.0):
            raise ValueError(f"mu out of (0, 1]: {self.mu}")


def gamma_from_sr(p: SRParams) -> GammaApprox:
    """Two-moment Gamma surrogate of the squared-SR distribution.

    Writing X = 2b + omega, the shape and scale are

        alpha = m*X^2 / (m*X^2 - (m-1)*omega^2),   theta = X / alpha,

    algebraically identical to the usual 4mb^2 + 4mb*omega + omega^2 form but
    exact at m = 1 in floating point (alpha == 1.0, no cancellation noise).
    At m = 1 (heavy shadowing) the surrogate is the law itself (alpha =
    mu = 1, theta = 2b + omega), and the DEP bound holds with a gap of
    e^(-r/theta) * (1 + theta/r) > 0 to the exact average.
    """
    x = 2.0 * p.b + p.omega
    num = p.m * x * x
    denom = num - (p.m - 1.0) * p.omega * p.omega
    alpha = num / denom
    theta = denom / (p.m * x)
    # alpha! means Gamma(alpha+1); log form avoids overflow for large shapes.
    mu = math.exp(-math.lgamma(alpha + 1.0) / alpha)
    return GammaApprox(alpha=alpha, theta=theta, mu=mu)


def sample_sr_power(p: SRParams, rng: np.random.Generator, size):
    """Draw |h|^2 under the squared-SR law.

    Loo-type construction: h = scatter + sqrt(zeta) * e^(j*phi), where the
    complex scatter has independent N(0, b) real and imaginary parts (total
    power 2b), zeta ~ Gamma(shape m, scale omega/m) and phi is uniform.
    The scatter is circularly symmetric and independent of (zeta, phi), so
    rotating h by e^(-j*phi) leaves both |h| and the scatter's law
    unchanged: |h|^2 has exactly the law of

        (sqrt(b)*N1 + sqrt(zeta))^2 + b*N2^2,   N1, N2 ~ N(0, 1),

    and no phase is drawn. Each call draws zeta, then N1, then N2, one
    fill each, with no trigonometry, and works in place on the three
    fills, so a call holds no more than them.

    At m = 1 (heavy shadowing) zeta is exponential, so the line-of-sight
    term sqrt(zeta) * e^(j*phi) is a CN(0, omega) Gaussian and h is
    CN(0, 2b + omega): |h|^2 is exponential with mean 2b + omega (Abdi et
    al., IEEE TWC 2003). That row is drawn as one standard-exponential
    fill scaled in place by the mean power. Returns an array of ``size``
    draws.
    """
    if p.m == 1.0:
        x = rng.standard_exponential(size)
        x *= p.mean_power
        return x
    zeta = rng.gamma(shape=p.m, scale=p.omega / p.m, size=size)
    n1 = rng.standard_normal(size)
    n2 = rng.standard_normal(size)
    n1 *= math.sqrt(p.b)
    n1 += np.sqrt(zeta, out=zeta)
    np.square(n1, out=n1)
    np.square(n2, out=n2)
    n2 *= p.b
    n1 += n2
    return n1


@dataclass(frozen=True)
class SatelliteLink:
    """Satellite transmitter link budget; ell is the free-space large-scale
    power gain (c / (4 pi fc d))^2 * G, and a gain that leaves the positive
    doubles raises ValueError."""

    fc: float  # carrier frequency, Hz
    d: float   # slant distance, m
    G: float   # product antenna gain, linear
    ell: float = field(init=False)

    def __post_init__(self) -> None:
        fc, d, G = self.fc, self.d, self.G
        if not all(0.0 < v < math.inf for v in (fc, d, G)):
            raise ValueError("fc, d, G must all be positive and finite")
        try:
            lam_over = _SPEED_OF_LIGHT / (4.0 * math.pi * fc * d)
        except ZeroDivisionError:  # 4 pi fc d underflows to 0
            lam_over = math.inf
        ell = lam_over * lam_over * G
        if not 0.0 < ell < math.inf:
            raise ValueError("fc, d, G give a large-scale gain (c / (4 pi fc d))^2 "
                             f"* G outside the positive doubles, got {ell}")
        object.__setattr__(self, "ell", ell)


@dataclass(frozen=True)
class UavPlacement:
    """UAV position: ground projection q (length-2, meters) and altitude H."""

    q: np.ndarray
    H: float

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float).reshape(2)
        if not np.all(np.isfinite(q)):
            raise ValueError("q must be finite")
        object.__setattr__(self, "q", q)
        if not (self.H > 0.0):
            raise ValueError(f"altitude must be positive, got {self.H}")

    @property
    def lifted(self) -> np.ndarray:
        """3D position [x, y, H]."""
        return np.array([self.q[0], self.q[1], self.H])


# the least elevation angle, rad: the placement step's cone rows square
# H * cot(phi_min) and its step bound squares their products, so
# cot(phi_min)^4 enters the barrier solver; 2^-64 rad keeps it below 2^256
_PHI_MIN_LEAST = 2.0 ** -64


@dataclass(frozen=True)
class UavLinkBudget:
    """UAV reference gains at 1 m and the minimum service elevation angle."""

    beta0_chi: float    # toward Bob/Willie band, linear
    beta0_kappa: float  # toward the UE band, linear
    phi_min: float      # radians

    def __post_init__(self) -> None:
        if not all(0.0 < v < math.inf for v in (self.beta0_chi, self.beta0_kappa)):
            raise ValueError("reference gains must be positive and finite")
        if not (0.0 < self.phi_min < math.pi / 2.0):
            raise ValueError("phi_min must lie in (0, pi/2)")
        if self.phi_min < _PHI_MIN_LEAST:
            raise ValueError(
                f"phi_min must be at least 2^-64 rad, got {self.phi_min}")


def uav_gain(pl: UavPlacement, target, beta0: float) -> float:
    """LoS channel power gain from the UAV to a ground target."""
    t = np.asarray(target, dtype=float).reshape(2)
    d2 = float(np.sum((pl.q - t) ** 2)) + pl.H * pl.H
    return beta0 / d2


def covert_rate(Pa: float, g_ab: float, varpi: float, Pj: float,
                g_ub: float, sigma_b2: float) -> float:
    """Achievable downlink rate at Bob with residual jamming, bps/Hz."""
    if sigma_b2 <= 0.0:
        raise ValueError("sigma_b2 must be positive")
    return math.log2(1.0 + Pa * g_ab / (varpi * Pj * g_ub + sigma_b2))


def ue_rate(Pk: float, g_uk: float, sigma_kappa2: float) -> float:
    """Achievable UAV-to-UE rate, bps/Hz."""
    if sigma_kappa2 <= 0.0:
        raise ValueError("sigma_kappa2 must be positive")
    return math.log2(1.0 + Pk * g_uk / sigma_kappa2)
