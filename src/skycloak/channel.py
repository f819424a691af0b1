"""Channel math for the UAV-assisted covert satellite downlink.

Two propagation regimes live here. The satellite-to-ground links fade
according to the squared shadowed-Rician (SR) law: a diffuse scatter
component of total power 2b plus a line-of-sight component whose power is
Nakagami-shadowed with severity m and mean omega. The UAV-to-ground links
are distance-law LoS channels with a reference gain at 1 m.

The SR squared envelope admits a series CDF in lower incomplete gamma
functions and a Gamma(alpha, theta) surrogate that matches its first two
moments exactly (alpha*theta = 2b + omega, alpha*theta^2 = 4b^2 + 4b*omega
+ omega^2/m). The surrogate's shape/scale and the constant
mu = Gamma(alpha+1)^(-1/alpha) feed the closed-form detection bound in
:mod:`skycloak.detection`.

All quantities are linear and SI internally: watts, meters, Hz. Unit
conversion belongs to the configuration boundary (scenario_io), never here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "LIGHT_SHADOWING",
    "AVERAGE_SHADOWING",
    "HEAVY_SHADOWING",
    "SHADOWING_ROWS",
    "SRParams",
    "GammaApprox",
    "SatelliteLink",
    "UavPlacement",
    "UavLinkBudget",
    "SeriesConvergenceError",
    "gamma_from_sr",
    "sr_cdf",
    "sample_sr_power",
    "satellite_large_scale",
    "uav_gain",
    "covert_rate",
    "ue_rate",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

_SERIES_CAP = 500
_SERIES_MIN_TERMS = 20


class SeriesConvergenceError(RuntimeError):
    """Raised when the SR series does not settle within the term cap."""


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
LIGHT_SHADOWING = SRParams(b=0.158, m=19.4, omega=1.29)
AVERAGE_SHADOWING = SRParams(b=0.126, m=10.1, omega=0.835)
HEAVY_SHADOWING = SRParams(b=0.063, m=1.0, omega=8.97e-4)

SHADOWING_ROWS = {
    "light": LIGHT_SHADOWING,
    "average": AVERAGE_SHADOWING,
    "heavy": HEAVY_SHADOWING,
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
    A shape of exactly 1 (heavy shadowing) is accepted with a warning: the
    closed-form DEP bound is derived under alpha > 1 yet remains evaluable.
    """
    x = 2.0 * p.b + p.omega
    num = p.m * x * x
    denom = num - (p.m - 1.0) * p.omega * p.omega
    alpha = num / denom
    theta = denom / (p.m * x)
    # alpha! means Gamma(alpha+1); log form avoids overflow for large shapes.
    mu = math.exp(-math.lgamma(alpha + 1.0) / alpha)
    if alpha == 1.0:
        warnings.warn(
            "Gamma surrogate shape is exactly 1; the DEP lower bound's "
            "derivation assumes shape > 1 and the bound degrades to the "
            "exponential-tail form.",
            RuntimeWarning,
            stacklevel=2,
        )
    return GammaApprox(alpha=alpha, theta=theta, mu=mu)


def _series_sum(terms, tol: float):
    """Sum one of the SR series with the shared truncation rule.

    ``terms`` yields the series terms (arrays or floats) in order. The sum
    stops once every element's current term is <= tol times its running
    sum, with at least 20 terms taken, capped at 500.
    """
    total = 0.0
    for n, term in zip(range(_SERIES_CAP), terms):
        total = total + term
        if n >= _SERIES_MIN_TERMS - 1 and (
                term <= tol * total if isinstance(term, float)
                else np.all(term <= tol * total)):
            return total
    if np.any(term > 1e-6 * total):
        raise SeriesConvergenceError(
            f"SR series not settled after {_SERIES_CAP} terms "
            f"(worst term/sum = {float(np.max(term / np.maximum(total, 1e-300))):.3e})"
        )
    return total


def _series_constants(p: SRParams):
    """(pref, y): the squared SR law is a mixture of Gamma(n+1, 2b) laws
    with weights pref * c_n, c_0 = 1, c_{n+1} = c_n * y * (m+n)/(n+1)."""
    y = p.omega / (2.0 * p.b * p.m + p.omega)
    pref = (2.0 * p.b * p.m / (2.0 * p.b * p.m + p.omega)) ** p.m
    return pref, y


def _mixture_weights(p: SRParams):
    """Yield the mixture weights pref * c_n for n = 0, 1, 2, ..."""
    w, y = _series_constants(p)
    n = 0
    while True:
        yield w
        w *= y * (p.m + n) / (n + 1.0)
        n += 1


def _gammainc_orders(z):
    """Yield P(1, z), P(2, z), ...: the regularized lower incomplete gamma
    function at integer orders, elementwise for scalar or array z >= 0.

    P(1, z) = 1 - e^(-z) and P(k+1, z) = P(k, z) - e^(-z) z^k / k!, so each
    order costs three flops; the absolute error of order k stays within
    about k ulps of P(1, z). A float z takes numpy's exponentials once and
    goes on in Python float arithmetic, which rounds as numpy's does.
    """
    pmf = np.exp(-z)
    lower = -np.expm1(-z)
    if isinstance(z, float):
        pmf, lower = float(pmf), float(lower)
    k = 1
    while True:
        yield lower
        pmf = pmf * z / k
        lower = lower - pmf
        k += 1


def sr_cdf(x, p: SRParams, tol: float = 1e-10):
    """CDF of the squared-SR envelope at x (scalar or array).

    The series is

        F(x) = (2bm/(2bm+omega))^m * sum_n c_n * P(n+1, x/(2b)),
        c_0 = 1,  c_{n+1} = c_n * y * (m+n)/(n+1),  y = omega/(2bm+omega),

    where P is the regularized lower incomplete gamma function (the usual
    (m)_n psi^n (2b)^n / (n!)^2 coefficients with one n! absorbed into P).
    Truncation: stop when the term drops below tol times the running sum and
    at least 20 terms were taken; error out at the 500-term cap.
    """
    if not (0.0 < tol <= 1e-8):
        raise ValueError(f"tol must be in (0, 1e-8], got {tol}")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0):
        raise ValueError("x must be nonnegative")
    z = xs / (2.0 * p.b)
    terms = (w * lower for w, lower in zip(_mixture_weights(p), _gammainc_orders(z)))
    out = np.clip(_series_sum(terms, tol), 0.0, 1.0)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


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
    fills, so a call holds no more than them. Returns an array of ``size``
    draws.
    """
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
    """Satellite transmitter link budget; ell is the large-scale power gain."""

    fc: float  # carrier frequency, Hz
    d: float   # slant distance, m
    G: float   # product antenna gain, linear
    ell: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ell", satellite_large_scale(self.fc, self.d, self.G))


def satellite_large_scale(fc: float, d: float, G: float) -> float:
    """Free-space large-scale gain (c / (4 pi fc d))^2 * G; a gain that
    leaves the positive doubles raises ValueError."""
    if not all(0.0 < v < math.inf for v in (fc, d, G)):
        raise ValueError("fc, d, G must all be positive and finite")
    try:
        lam_over = SPEED_OF_LIGHT / (4.0 * math.pi * fc * d)
    except ZeroDivisionError:  # 4 pi fc d underflows to 0
        lam_over = math.inf
    ell = lam_over * lam_over * G
    if not 0.0 < ell < math.inf:
        raise ValueError(f"fc, d, G give a large-scale gain (c / (4 pi fc d))^2 * G "
                         f"outside the positive doubles, got {ell}")
    return ell


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
