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
one series over the squared-SR law that the program sums, or a closed
form for the exponential law of the m = 1 row), the closed-form lower
bound obtained from the fitted gamma surrogate of the
fading law, and the inverse of that bound's tightness function used by the
planner.

Both received-power supports start at the warden's noise floor, so the
per-slot minimum, and everything built on it, does not depend on the
warden's noise power: the scenario's ``sigma_w2`` is read and range-checked
but enters no formula.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import GammaApprox, SRParams

__all__ = [
    "CovertBound",
    "SeriesConvergenceError",
    "min_dep",
    "avg_min_dep_quadrature",
    "avg_min_dep_lower_bound",
    "phi",
    "phi_inverse",
    "covert_constraint_satisfied",
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


_SERIES_CAP = 500
_SERIES_MIN_TERMS = 20


class SeriesConvergenceError(RuntimeError):
    """Raised when the DEP series does not settle within the term cap."""


def _series_sum(terms):
    """Sum the DEP series' float terms, in order: stop once a term is at
    most machine epsilon times the running sum, with at least 20 terms
    taken; past 500 terms, a last term above 1e-6 of the sum raises."""
    total = 0.0
    for n, term in zip(range(_SERIES_CAP), terms):
        total = total + term
        if n >= _SERIES_MIN_TERMS - 1 and term <= sys.float_info.epsilon * total:
            return total
    if term > 1e-6 * total:
        raise SeriesConvergenceError(
            f"SR series not settled after {_SERIES_CAP} terms "
            f"(term/sum = {term / max(total, 1e-300):.3e})")
    return total


def _mixture_weights(p: SRParams):
    """Yield pref * c_n for n = 0, 1, 2, ...: the squared SR law is the
    mixture of Gamma(n+1, 2b) laws with these weights, where
    pref = (2bm/(2bm+omega))^m, c_0 = 1, c_{n+1} = c_n * y * (m+n)/(n+1)
    and y = omega/(2bm+omega)."""
    y = p.omega / (2.0 * p.b * p.m + p.omega)
    w = (2.0 * p.b * p.m / (2.0 * p.b * p.m + p.omega)) ** p.m
    n = 0
    while True:
        yield w
        w *= y * (p.m + n) / (n + 1.0)
        n += 1


def _gammainc_orders(z: float):
    """Yield P(1, z), P(2, z), ...: the regularized lower incomplete gamma
    function at integer orders, for a float z >= 0.

    P(1, z) = 1 - e^(-z) and P(k+1, z) = P(k, z) - e^(-z) z^k / k!, so each
    order costs three flops; the absolute error of order k stays within
    about k ulps of P(1, z). The exponentials are numpy's, taken once, and
    the rest is Python float arithmetic, which rounds as numpy's does.
    """
    pmf = float(np.exp(-z))
    lower = float(-np.expm1(-z))
    k = 1
    while True:
        yield lower
        pmf = pmf * z / k
        lower = lower - pmf
        k += 1


def avg_min_dep_quadrature(pa: float, ell_aw: float, pj_hat: float, g_uw: float,
                           params: SRParams) -> float:
    """Fading-averaged minimum detection error probability, exactly.

    The satellite-warden gain is ``ell_aw`` times a unit-mean-scale fading
    power X, so the per-slot optimum error is ``max(0, 1 - X/r)`` with
    ``r = pj_hat*g_uw / (pa*ell_aw)``. The squared SR law is a mixture of
    Gamma(n+1, 2b) laws with weights pref*c_n (see ``_mixture_weights``),
    and for each of them E[(1 - X/r)^+] = P(n+1, z) - (n+1)/z * P(n+2, z)
    with z = r/(2b), so the average is the series

        pref * sum_n c_n * [P(n+1, z) - (n+1)/z * P(n+2, z)],

    summed to machine precision on Python floats. A series that has not
    settled after 500 terms raises SeriesConvergenceError. At m = 1 the
    fading is exponential with mean mu = 2b + omega, and the average is
    the closed form 1 + (mu/r) * expm1(-r/mu), with no series. The
    value fills the ``quadrature`` column of ``dep_sweep.csv``.
    """
    for name, v in (("pa", pa), ("ell_aw", ell_aw),
                    ("pj_hat", pj_hat), ("g_uw", g_uw)):
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    if pa * ell_aw == 0.0:
        return 1.0  # no incident signal power: the warden can only guess
    jam = pj_hat * g_uw
    if jam == 0.0:
        return 0.0  # unjammed: detected with probability one
    r = float(jam / (pa * ell_aw))
    if params.m == 1.0:
        # E[(1 - X/r)^+] = 1 - (mu/r) * (1 - e^(-r/mu)) for X ~ Exp(mean mu)
        mu = params.mean_power
        return min(1.0, max(0.0, 1.0 + mu / r * math.expm1(-r / mu)))
    z = r / (2.0 * params.b)

    def terms():
        orders = _gammainc_orders(z)
        lower = next(orders)
        for k, (w, upper) in enumerate(zip(_mixture_weights(params), orders), 1):
            yield w * (lower - k / z * upper)
            lower = upper

    val = float(_series_sum(terms()))
    return min(1.0, max(0.0, val))


@dataclass(frozen=True)
class CovertBound:
    """Closed-form lower bound on the fading-averaged minimum error.

    ``value_lb`` is the bound itself (can be negative, in which case it is
    vacuous but still valid).
    """

    value_lb: float


def avg_min_dep_lower_bound(pa: float, ell_aw: float, pj_hat: float, g_uw: float,
                            gamma: GammaApprox) -> CovertBound:
    """Closed-form lower bound on the fading-averaged minimum error.

    Uses the gamma surrogate of the fading law: with ratio
    ``r = pj_hat*g_uw / (pa*ell_aw)``,

        bound = 1 - alpha * exp(-mu*r/theta) - alpha*theta/r.

    The first correction dominates the CDF of the surrogate at r and the
    second its partial mean, so the bound never exceeds the exact value
    from :func:`avg_min_dep_quadrature`.
    """
    for name, v in (("pa", pa), ("ell_aw", ell_aw),
                    ("pj_hat", pj_hat), ("g_uw", g_uw)):
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"{name} must be finite and positive, got {v}")
    r = pj_hat * g_uw / (pa * ell_aw)
    value = 1.0 - gamma.alpha * np.exp(-gamma.mu * r / gamma.theta) \
        - gamma.alpha * gamma.theta / r
    return CovertBound(value_lb=float(value))


def phi(x: float, gamma: GammaApprox) -> float:
    """Bound-gap function phi(x) = alpha * (exp(-mu/x) + x) for a float
    x > 0.

    This is the amount by which the closed-form bound falls short of one
    when expressed in the scaled variable x = theta/r; it is strictly
    increasing, so requiring a detection error of at least 1 - eps is the
    scalar constraint phi(x) <= eps.
    """
    if x <= 0.0:
        raise ValueError("phi is defined for positive arguments only")
    # np.exp, not math.exp: the two differ in the last bit on some
    # inputs, and every cap and slack keeps numpy's bits
    return float(gamma.alpha * (np.exp(-gamma.mu / x) + x))


def phi_inverse(eps: float, gamma: GammaApprox) -> float:
    """Inverse of ``phi`` on its increasing branch, to the last double.

    Returns the largest double x with ``phi(x) <= eps``, so the cap it
    sets is never on the wrong side of the bound. Requires
    0 < eps < alpha so the solution is unique and bounded away from the
    linear regime, and eps at least alpha times the least double, since
    phi(x) > alpha * x.

    Since phi(x) > alpha*x the root lies below eps/alpha; Newton steps
    from there land within a few doubles of it, a bracket of doubling
    width around that estimate and a bisection down to adjacent doubles
    then settle it, every verdict coming from ``phi`` itself.
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
    # grow a bracket lo < hi with phi(lo) <= eps < phi(hi) from x
    d = math.ulp(x)
    if phi(x, gamma) <= eps:
        lo, hi = x, x + d
        while phi(hi, gamma) <= eps:
            lo, d = hi, 2.0 * d
            hi = lo + d
    else:
        lo, hi = max(x - d, 0.5 * x), x
        while phi(lo, gamma) > eps:
            hi, d = lo, 2.0 * d
            lo = max(hi - d, 0.5 * hi)
    # invariant phi(lo) <= eps < phi(hi); stop when no double lies between
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if phi(mid, gamma) <= eps:
            lo = mid
        else:
            hi = mid


def covert_constraint_satisfied(pa: float, pj_hat: float, g_uw: float,
                                ell_aw: float, eps: float,
                                gamma: GammaApprox):
    """Check the covertness requirement via the closed-form bound.

    The requirement is that the fading-averaged minimum detection error be
    at least ``1 - eps``; through the bound this is ``phi(x0) <= eps`` with
    ``x0 = theta*pa*ell_aw / (pj_hat*g_uw)``. Returns ``(ok, slack)`` where
    ``slack = eps - phi(x0)`` (nonnegative iff satisfied). A silent
    satellite (``pa == 0``) satisfies the constraint with full slack; an
    unjammed warden (``pj_hat*g_uw == 0``) violates it with infinite
    deficit.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if pa == 0.0:
        return True, eps
    if pj_hat * g_uw == 0.0:
        return False, -np.inf
    x0 = gamma.theta * pa * ell_aw / (pj_hat * g_uw)
    slack = eps - phi(x0, gamma)
    return bool(slack >= 0.0), float(slack)
