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
closed form, an exact incomplete-gamma series for its fading average, the
closed-form lower bound obtained from the fitted gamma surrogate of the
fading law, and the inverse of that bound's tightness function used by the
planner.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import (GammaApprox, SRParams, _gammainc_orders,
                      _mixture_weights, _series_sum)

__all__ = [
    "CovertBound",
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
    return np.maximum(0.0, 1.0 - sig / jam)


def avg_min_dep_quadrature(pa: float, ell_aw: float, pj_hat: float, g_uw: float,
                           params: SRParams) -> float:
    """Fading-averaged minimum detection error probability, exactly.

    The satellite-warden gain is ``ell_aw`` times a unit-mean-scale fading
    power X, so the per-slot optimum error is ``max(0, 1 - X/r)`` with
    ``r = pj_hat*g_uw / (pa*ell_aw)``. The squared SR law is a mixture of
    Gamma(n+1, 2b) laws with weights pref*c_n (see :func:`sr_cdf`), and for
    each of them E[(1 - X/r)^+] = P(n+1, z) - (n+1)/z * P(n+2, z) with
    z = r/(2b), so the average is the series

        pref * sum_n c_n * [P(n+1, z) - (n+1)/z * P(n+2, z)],

    summed to machine precision on Python floats. Its value fills the
    ``quadrature`` column of ``dep_sweep.csv``.
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
    z = float(jam / (pa * ell_aw) / (2.0 * params.b))

    def terms():
        orders = _gammainc_orders(z)
        lower = next(orders)
        for k, (w, upper) in enumerate(zip(_mixture_weights(params), orders), 1):
            yield w * (lower - k / z * upper)
            lower = upper

    val = float(_series_sum(terms(), sys.float_info.epsilon))
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


def phi(x, gamma: GammaApprox):
    """Bound-gap function phi(x) = alpha * (exp(-mu/x) + x) for x > 0.

    This is the amount by which the closed-form bound falls short of one
    when expressed in the scaled variable x = theta/r; it is strictly
    increasing, so requiring a detection error of at least 1 - eps is the
    scalar constraint phi(x) <= eps. Accepts scalar or array input.
    """
    if isinstance(x, float):
        bad = x <= 0.0
    else:
        x = np.asarray(x, dtype=float)
        bad = (x <= 0.0).any()
    if bad:
        raise ValueError("phi is defined for positive arguments only")
    # np.exp, not math.exp, for a float too: the two differ in the last
    # bit on some inputs, and a float must get the bits a 0-d array gets
    out = gamma.alpha * (np.exp(-gamma.mu / x) + x)
    return float(out) if out.ndim == 0 else out


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
