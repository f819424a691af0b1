"""Warden detection analysis for a jamming-protected covert downlink.

The warden runs a radiometer: it compares the average received power in a
transmission slot against a threshold and declares "transmission" above
it. The UAV randomizes its jamming power uniformly on [0, pj_hat] each slot,
so the warden's received power under either hypothesis is uniform on an
interval of width ``jam`` (the jamming power received at its peak), shifted
by ``sig`` (the received satellite signal power) when the satellite
transmits.

The quantity of interest is the detection error probability (false alarm
plus missed detection) minimized over the threshold, averaged over the
satellite-warden fading. This module provides that per-slot minimum in
closed form, its exact fading average (an incomplete-gamma series, the
one series over the squared-SR law that the program sums, stopped on a
proven tail bound, or a closed form for the exponential law of the m = 1
row), the closed-form lower bound obtained from the fitted gamma
surrogate of the fading law, and the inverse of that bound's tightness
function used by the planner.

Both received-power supports start at the warden's noise floor, so the
per-slot minimum, and everything built on it, does not depend on the
warden's noise power: the scenario's ``sigma_w2`` is read and range-checked
but enters no formula.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .channel import GammaApprox, SRParams

__all__ = [
    "CovertBound",
    "SeriesConvergenceError",
    "min_dep",
    "avg_min_dep_quadrature",
    "avg_min_dep_lower_bound",
    "phi_inverse",
]


def min_dep(sig, jam: float):
    """Per-slot detection error probability at the warden's best threshold.

    ``sig`` is the received satellite signal power (scalar or array, taken
    elementwise) and ``jam`` the received peak jamming power (scalar). The
    two received-power supports overlap on a stretch of length jam - sig,
    where the total error is flat at ``1 - sig/jam``; a signal at least as
    strong as the jamming is detected without error. Without jamming the
    warden detects perfectly whenever the signal is present (0), and cannot
    do better than guessing when it is not (1).
    """
    if jam == 0.0:
        return np.where(sig > 0.0, 0.0, 1.0)
    # one array, the quotient's, worked in place (a scalar has none)
    xi = np.divide(sig, jam)
    buf = xi if type(xi) is np.ndarray else None
    xi = np.subtract(1.0, xi, out=buf)
    return np.maximum(0.0, xi, out=buf)


def _ratio(pa: float, ell_aw: float, pj_hat: float, g_uw: float) -> float:
    """The warden's jamming-to-signal ratio r = pj_hat*g_uw / (pa*ell_aw)
    of four finite, nonnegative powers (else ValueError): inf for pa or
    ell_aw of 0 or past the doubles, 0 below them. The exponents are split
    off first, so no product past the doubles decides r."""
    for name, v in (("pa", pa), ("ell_aw", ell_aw),
                    ("pj_hat", pj_hat), ("g_uw", g_uw)):
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    if pa == 0.0 or ell_aw == 0.0:
        return math.inf
    (a, i), (b, j), (c, k), (d, l) = map(math.frexp, (pj_hat, g_uw, pa, ell_aw))
    try:
        return math.ldexp(a * b / (c * d), i + j - k - l)
    except OverflowError:
        return math.inf


_SERIES_BUDGET = 100_000


class SeriesConvergenceError(RuntimeError):
    """The DEP series' tail bound was not met within the term budget."""


def _series_sum(p: SRParams, z: float) -> float:
    """Sum the DEP series at z = r/(2b) on Python floats until a bound on
    its tail is at most machine epsilon times the sum, within
    _SERIES_BUDGET terms (else SeriesConvergenceError).

    Term n is w_n * t_n, t_n = E[(1 - X_n/r)^+] = P(n+1, z) - (n+1)/z *
    P(n+2, z) for X_n ~ Gamma(n+1, 2b); w_0 = (2bm/(2bm+omega))^m and
    w_(n+1) = w_n * rho_n, rho_n = y(m+n)/(n+1), y = omega/(2bm+omega).
    t_n lies in [0, 1] and does not rise with n, nor does rho_n (m >= 1),
    so the tail after term N is at most t_N while rho_N >= 1 and
    term_N * rho_N/(1 - rho_N) after: a bound on exact t_n, which the
    computed ones round. P, the regularized lower incomplete gamma, runs
    from P(1, z) = 1 - e^(-z) by P(k+1, z) = P(k, z) - e^(-z) z^k/k!, on
    numpy's exponentials and then Python floats, which round as numpy's.
    """
    y = p.omega / (2.0 * p.b * p.m + p.omega)
    w = (2.0 * p.b * p.m / (2.0 * p.b * p.m + p.omega)) ** p.m
    pmf = float(np.exp(-z))
    lower = float(-np.expm1(-z))
    tiny, log_z = sys.float_info.min, math.log(z)
    total = 0.0
    for n in range(_SERIES_BUDGET):
        if pmf < tiny and n < z:
            # from logs: e^(-z) z^n/n! below the normal doubles (z past
            # ~708) would carry its lost digits into every later weight
            pmf = math.exp((n + 1) * log_z - z - math.lgamma(n + 2.0))
        else:
            pmf = pmf * z / (n + 1)
        upper = lower - pmf
        t = lower - (n + 1) / z * upper
        term = w * t
        total = total + term
        rho = y * (p.m + n) / (n + 1.0)
        tail = t if rho >= 1.0 else term * rho / (1.0 - rho)
        if tail <= sys.float_info.epsilon * total:
            return total
        w *= rho
        lower = upper
    raise SeriesConvergenceError(
        f"SR series not settled after {_SERIES_BUDGET} terms "
        f"(tail bound {tail:.3e}, sum {total:.3e})")


def avg_min_dep_quadrature(pa: float, ell_aw: float, pj_hat: float, g_uw: float,
                           params: SRParams) -> float:
    """Fading-averaged minimum detection error probability, exactly.

    The satellite-warden gain is ``ell_aw`` times a unit-mean-scale fading
    power X, so the per-slot optimum error is ``max(0, 1 - X/r)`` with
    ``r = pj_hat*g_uw / (pa*ell_aw)``. At m = 1, X is exponential with mean
    mu = 2b + omega and the average is 1 + (mu/r) * expm1(-r/mu). Otherwise
    the squared SR law is a mixture of Gamma(n+1, 2b) laws, and the average
    is their series in z = r/(2b), stopped on a proven tail bound (see
    ``_series_sum``); weights that decay too slowly for 100,000 terms
    (y = omega/(2bm+omega) near 1) raise SeriesConvergenceError. The
    recurrence's rounding leaves a relative error above machine epsilon
    where z is small against the weighted orders (6e-12 on the light row
    at r = 1.87e-4, 4.5e-10 at r = 1e-5, against a 60-digit sum) and where
    the weight sits near a large z (2e-14 at z = 800, 1e-13 at z = 10^4,
    y = 0.999, against the m = 1 closed form).

    The limits are exact: pa or ell_aw of 0, or r or z past the doubles,
    gives 1.0 (the warden can only guess); r underflowing to 0, or z below
    100,000 / DBL_MAX (about 5.6e-304, where the average is below z),
    gives 0.0. The value fills the ``quadrature`` column of
    ``dep_sweep.csv``.
    """
    r = _ratio(pa, ell_aw, pj_hat, g_uw)
    if r == 0.0:
        return 0.0  # unjammed, or a signal that dwarfs the jamming
    if params.m == 1.0:
        # E[(1 - X/r)^+] for X ~ Exp(mean mu); r = inf gives 1.0
        mu = params.mean_power
        return min(1.0, max(0.0, 1.0 + mu / r * math.expm1(-r / mu)))
    z = r / (2.0 * params.b)
    if z * sys.float_info.max < _SERIES_BUDGET:
        return 0.0  # the average is below z; (n+1)/z would overflow
    if z == math.inf:
        return 1.0  # the jamming dwarfs the signal: a guess
    return min(1.0, max(0.0, _series_sum(params, z)))


class CovertBound(NamedTuple):
    """Closed-form lower bound on the fading-averaged minimum error.

    ``value_lb`` is the bound itself (can be negative, in which case it is
    vacuous but still valid).
    """

    value_lb: float


def avg_min_dep_lower_bound(pa: float, ell_aw: float, pj_hat: float, g_uw: float,
                            gamma: GammaApprox) -> CovertBound:
    """Closed-form lower bound on the fading-averaged minimum error.

    Uses the gamma surrogate of the fading law: with the ratio
    ``r = pj_hat*g_uw / (pa*ell_aw)`` of :func:`avg_min_dep_quadrature`,

        bound = 1 - phi(theta/r) = 1 - alpha * exp(-mu*r/theta) - alpha*theta/r.

    The first correction dominates the CDF of the surrogate at r and the
    second its partial mean, so the bound never exceeds the exact value.
    Its limits: 1.0 where r is inf (pa or ell_aw of 0, or r past the
    doubles), -inf where r is 0 (no jamming, or r below the doubles).
    """
    r = _ratio(pa, ell_aw, pj_hat, g_uw)
    return CovertBound(value_lb=1.0 - _phi(gamma.theta / r if r else math.inf, gamma))


def _phi(x: float, gamma: GammaApprox) -> float:
    """Bound-gap function phi(x) = alpha * (exp(-mu/x) + x) for a float
    x in [0, inf], with phi(0) = 0 its limit (else ValueError).

    This is the amount by which the closed-form bound falls short of one
    when expressed in the scaled variable x = theta/r; it is strictly
    increasing, so requiring a detection error of at least 1 - eps is the
    scalar constraint phi(x) <= eps.
    """
    if not x >= 0.0:
        raise ValueError(f"phi is defined on [0, inf], got {x}")
    if x == 0.0:
        return 0.0
    # np.exp, not math.exp: the two differ in the last bit on some
    # inputs, and every cap and slack keeps numpy's bits
    return float(gamma.alpha * (np.exp(-gamma.mu / x) + x))


def phi_inverse(eps: float, gamma: GammaApprox) -> float:
    """Inverse of ``_phi`` on its increasing branch, to the last double.

    Returns the largest double x with ``phi(x) <= eps``, so the cap it
    sets is never on the wrong side of the bound. Requires
    0 < eps < alpha so the solution is unique and bounded away from the
    linear regime, and eps at least alpha times the least double, since
    phi(x) > alpha * x.

    Since phi(x) > alpha*x the root lies below eps/alpha; Newton steps
    from there land within a few doubles of it, and steps of one double,
    down while phi(x) > eps and then up while the next double's phi is
    still at most eps, settle it, every verdict coming from ``_phi``
    itself. The steps end because phi does not fall on doubles, phi(0) = 0
    <= eps and phi(eps/alpha) > eps.
    """
    if not 0.0 < eps < gamma.alpha:
        raise ValueError(f"eps must lie in (0, alpha)=(0, {gamma.alpha}), got {eps}")
    a, mu = gamma.alpha, gamma.mu
    if a * math.ulp(0.0) > eps:  # phi(x) >= phi(ulp(0)) = alpha * ulp(0)
        raise ValueError(f"eps must be at least alpha times the least double, "
                         f"{a * math.ulp(0.0)}, got {eps}")
    x = eps / a
    # phi is convex below mu/2, where Newton from above stays above the
    # root; past mu/2 a step may overshoot, and halving at most keeps x > 0.
    # Where e underflows to 0, x * x may too (eps near the least double);
    # the slope term mu * e / x^2 is then nothing next to 1
    for _ in range(50):
        e = math.exp(-mu / x)
        de = mu * e / (x * x) if e else 0.0
        xn = max(x - (a * (e + x) - eps) / (a * (de + 1.0)), 0.5 * x)
        if xn == x:
            break
        x = xn
    while _phi(x, gamma) > eps:
        x = math.nextafter(x, 0.0)
    while _phi(up := math.nextafter(x, math.inf), gamma) <= eps:
        x = up
    return x
