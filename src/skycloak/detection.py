"""Warden detection analysis for a jamming-protected covert downlink.

The warden runs a radiometer: it compares the average received power in a
transmission slot against a threshold tau and declares "transmission" above
it. The UAV randomizes its jamming power uniformly on [0, pj_hat] each slot,
so the warden's received power under either hypothesis is uniform on an
interval, and both error probabilities are piecewise linear in tau.

The quantity of interest is the detection error probability (false alarm
plus missed detection) minimized over tau, averaged over the satellite-
warden fading. This module provides the exact piecewise expressions, an
exact incomplete-gamma series for the fading average, the closed-form lower
bound obtained from the fitted gamma surrogate of the fading law, and the
inverse of that bound's tightness function used by the planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import (GammaApprox, SRParams, _gammainc_orders,
                      _mixture_weights, _series_sum)

__all__ = [
    "DetectionModel",
    "CovertBound",
    "fa_probability",
    "md_probability",
    "dep",
    "min_dep",
    "avg_min_dep_quadrature",
    "avg_min_dep_lower_bound",
    "phi",
    "phi_inverse",
    "covert_constraint_satisfied",
]


@dataclass(frozen=True)
class DetectionModel:
    """One slot of the warden's test for fixed channel realizations.

    Parameters
    ----------
    pa : float
        Satellite transmit power (W).
    g_aw : float
        Effective satellite-to-warden channel gain (large-scale loss times
        the fading power realization), so ``pa * g_aw`` is the received
        signal power at the warden.
    pj_hat : float
        Peak UAV jamming power (W); the actual power is uniform on
        ``[0, pj_hat]``.
    g_uw : float
        UAV-to-warden channel gain.
    sigma_w2 : float
        Warden noise power (W).

    The received-power breakpoints are exposed as ``rho1 <= rho2`` (support
    of the statistic without the satellite signal) and ``rho3 <= rho4``
    (support with it).
    """

    pa: float
    g_aw: float
    pj_hat: float
    g_uw: float
    sigma_w2: float
    rho1: float = field(init=False)
    rho2: float = field(init=False)
    rho3: float = field(init=False)
    rho4: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("pa", "g_aw", "pj_hat", "g_uw", "sigma_w2"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if self.sigma_w2 <= 0.0:
            raise ValueError("sigma_w2 must be positive")
        jam = self.pj_hat * self.g_uw
        sig = self.pa * self.g_aw
        object.__setattr__(self, "rho1", self.sigma_w2)
        object.__setattr__(self, "rho2", self.sigma_w2 + jam)
        object.__setattr__(self, "rho3", self.sigma_w2 + sig)
        object.__setattr__(self, "rho4", self.sigma_w2 + jam + sig)


def _as_tau(tau):
    arr = np.asarray(tau, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("threshold tau must be nonnegative")
    return arr


def fa_probability(model: DetectionModel, tau):
    """False alarm probability of the threshold test at tau.

    Without the satellite signal the warden sees power uniform on
    ``[rho1, rho2]``, so the exceedance probability is 1 below the support,
    linear across it, and 0 above. Accepts scalar or array tau.
    """
    arr = _as_tau(tau)
    width = model.rho2 - model.rho1
    if width > 0.0:
        mid = (model.rho2 - arr) / width
        out = np.where(arr < model.rho1, 1.0,
                       np.where(arr < model.rho2, mid, 0.0))
    else:
        out = np.where(arr < model.rho1, 1.0, 0.0)
    return float(out) if out.ndim == 0 else out


def md_probability(model: DetectionModel, tau):
    """Missed detection probability of the threshold test at tau.

    With the satellite signal present the received power is uniform on
    ``[rho3, rho4]``; the test misses when the power falls below tau.
    """
    arr = _as_tau(tau)
    width = model.rho4 - model.rho3
    if width > 0.0:
        mid = (arr - model.rho3) / width
        out = np.where(arr < model.rho3, 0.0,
                       np.where(arr < model.rho4, mid, 1.0))
    else:
        out = np.where(arr < model.rho3, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def dep(model: DetectionModel, tau):
    """Detection error probability fa + md at threshold tau."""
    arr = _as_tau(tau)
    out = np.asarray(fa_probability(model, arr)) + np.asarray(md_probability(model, arr))
    return float(out) if out.ndim == 0 else out


def min_dep(model: DetectionModel):
    """Minimize the detection error probability over the threshold.

    Returns ``(xi_star, tau_star)``. When the jamming support is wider than
    the signal shift (``pa*g_aw < pj_hat*g_uw``), the error probability is
    flat at ``1 - pa*g_aw/(pj_hat*g_uw)`` on ``[rho3, rho2]`` and tau_star
    is reported as rho2; otherwise the minimum is 0, also attained at rho2.
    Without jamming the warden detects perfectly whenever the signal is
    present (xi_star 0), and cannot do better than guessing when it is not
    (xi_star 1).
    """
    jam = model.pj_hat * model.g_uw
    sig = model.pa * model.g_aw
    tau_star = model.rho2
    if jam == 0.0:
        xi_star = 0.0 if sig > 0.0 else 1.0
    else:
        xi_star = max(0.0, 1.0 - sig / jam)
    return xi_star, tau_star


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

    summed to machine precision. Its value fills the ``quadrature`` column
    of ``dep_sweep.csv``.
    """
    for name, v in (("pa", pa), ("ell_aw", ell_aw),
                    ("pj_hat", pj_hat), ("g_uw", g_uw)):
        if not np.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    if pa * ell_aw == 0.0:
        return 1.0  # no incident signal power: the warden can only guess
    jam = pj_hat * g_uw
    if jam == 0.0:
        return 0.0  # unjammed: detected with probability one
    z = jam / (pa * ell_aw) / (2.0 * params.b)

    def terms():
        orders = _gammainc_orders(z)
        lower = next(orders)
        for k, (w, upper) in enumerate(zip(_mixture_weights(params), orders), 1):
            yield w * (lower - k / z * upper)
            lower = upper

    val = float(_series_sum(terms(), np.finfo(float).eps))
    return min(1.0, max(0.0, val))


@dataclass(frozen=True)
class CovertBound:
    """Closed-form lower bound on the fading-averaged minimum error.

    ``value_lb`` is the bound itself (can be negative, in which case it is
    vacuous but still valid), ``ratio`` the jamming-to-signal power ratio it
    was evaluated at, and ``gamma`` the surrogate fading fit used.
    """

    value_lb: float
    ratio: float
    gamma: GammaApprox


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
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"{name} must be finite and positive, got {v}")
    r = pj_hat * g_uw / (pa * ell_aw)
    value = 1.0 - gamma.alpha * np.exp(-gamma.mu * r / gamma.theta) \
        - gamma.alpha * gamma.theta / r
    return CovertBound(value_lb=float(value), ratio=float(r), gamma=gamma)


def phi(x, gamma: GammaApprox):
    """Bound-gap function phi(x) = alpha * (exp(-mu/x) + x) for x > 0.

    This is the amount by which the closed-form bound falls short of one
    when expressed in the scaled variable x = theta/r; it is strictly
    increasing, so requiring a detection error of at least 1 - eps is the
    scalar constraint phi(x) <= eps. Accepts scalar or array input.
    """
    arr = np.asarray(x, dtype=float)
    if (arr <= 0.0).any():
        raise ValueError("phi is defined for positive arguments only")
    out = gamma.alpha * (np.exp(-gamma.mu / arr) + arr)
    return float(out) if out.ndim == 0 else out


def phi_inverse(eps: float, gamma: GammaApprox) -> float:
    """Inverse of ``phi`` on its increasing branch, to the last double.

    Returns the largest double x with ``phi(x) <= eps``, so the cap it
    sets is never on the wrong side of the bound. Requires
    0 < eps < alpha so the solution is unique and bounded away from the
    linear regime.
    """
    if not 0.0 < eps < gamma.alpha:
        raise ValueError(f"eps must lie in (0, alpha)=(0, {gamma.alpha}), got {eps}")
    hi = 1.0  # phi(1) = alpha*(exp(-mu) + 1) > alpha > eps always
    lo = 0.5
    while phi(lo, gamma) > eps:
        hi = lo
        lo *= 0.5
        if lo < 1e-300:
            raise RuntimeError("phi inverse bracket collapsed")
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
