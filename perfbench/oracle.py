"""Grid oracle for Bob's optimal rate, independent of the planner.

With the UAV at a fixed 3-D position the optimal power split is explicit:
every UE gets exactly its rate floor, the jamming peak takes what the UAV
budget leaves (for residual jamming, no more than what lifts the
satellite power to its cap), and the satellite power sits at its
covertness cap ``ups * Pj``, clamped at ``Pa_max``. Bob's rate is then a
closed-form function of the position alone (the reduced objective), and
this module maximizes it by exhaustive search: a coarse 3-D grid over the
box every elevation cone allows, then repeated local zooms around the best
few cells. It uses only scenario fields, link gains and ``phi_inverse``;
no solver, LP or planner code.
"""

from __future__ import annotations

import math

import numpy as np

COARSE = (40, 40, 24)
SEEDS = 6
ZOOM_POINTS = 7
ZOOM_LEVELS = 14


def rate_field(s, phi_inv: float, X: np.ndarray) -> np.ndarray:
    """Bob's rate at each row of X (N x 3 positions [x, y, H]); -inf where
    the position breaks a cone, the altitude band or the UAV budget."""
    q, H = X[:, :2], X[:, 2]
    H2 = H * H
    reach = H / math.tan(s.budget.phi_min)
    nodes = s.ground_nodes
    dist = np.sqrt(((q[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2))
    ok = (H >= s.H_min) & (H <= s.H_max) & (dist.max(axis=1) <= reach)
    if s.K:
        d2 = ((q[:, None, :] - s.ues[None, :, :]) ** 2).sum(axis=2) + H2[:, None]
        floors = s.xi_coeff * d2.sum(axis=1)
    else:
        floors = np.zeros(len(X))
    spare = s.P_tot - floors
    ok &= spare >= 0.0
    g_uw = s.budget.beta0_chi / (((q - s.willie) ** 2).sum(axis=1) + H2)
    g_ub = s.budget.beta0_chi / (((q - s.bob) ** 2).sum(axis=1) + H2)
    ups = phi_inv * g_uw / (s.gamma.theta * s.sat.ell)
    pj = np.maximum(spare, 0.0)
    if s.varpi > 0.0:
        pj = np.minimum(pj, s.Pa_max / ups)
    pa = np.minimum(ups * pj, s.Pa_max)
    sinr = pa * s.sat.ell * s.sr.mean_power / (s.varpi * pj * g_ub + s.sigma_b2)
    return np.where(ok, np.log2(1.0 + sinr), -np.inf)


def oracle_rate(s, phi_inv: float):
    """Best reduced-objective rate found, and its position; (None, None)
    when no grid point is feasible."""
    reach = s.H_max / math.tan(s.budget.phi_min)
    nodes = s.ground_nodes
    lo = nodes.max(axis=0) - reach
    hi = nodes.min(axis=0) + reach
    if np.any(lo > hi):
        return None, None
    axes = [np.linspace(lo[0], hi[0], COARSE[0]),
            np.linspace(lo[1], hi[1], COARSE[1]),
            np.linspace(s.H_min, s.H_max, COARSE[2])]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = rate_field(s, phi_inv, grid)
    order = np.argsort(-vals)
    spacing = np.array([(hi[0] - lo[0]) / (COARSE[0] - 1),
                        (hi[1] - lo[1]) / (COARSE[1] - 1),
                        (s.H_max - s.H_min) / (COARSE[2] - 1)])
    seeds = []
    for i in order:
        if not np.isfinite(vals[i]) or len(seeds) == SEEDS:
            break
        if all(np.max(np.abs(grid[i] - p) / np.maximum(spacing, 1e-300)) > 2.5
               for p in seeds):
            seeds.append(grid[i])
    if not seeds:
        return None, None

    offs = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    stencil = np.stack(np.meshgrid(offs, offs, offs, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    best = np.array(seeds)
    best_val = rate_field(s, phi_inv, best)
    half = spacing.copy()
    for _ in range(ZOOM_LEVELS):
        pts = best[:, None, :] + stencil[None, :, :] * half[None, None, :]
        v = rate_field(s, phi_inv, pts.reshape(-1, 3)).reshape(len(best), -1)
        j = np.argmax(v, axis=1)
        take = v[np.arange(len(best)), j] > best_val
        best[take] = pts[take, j[take]]
        best_val[take] = v[take, j[take]]
        half = half * (2.0 / (ZOOM_POINTS - 1))
    k = int(np.argmax(best_val))
    return float(best_val[k]), best[k]
