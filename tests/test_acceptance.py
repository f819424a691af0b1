"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE n PASS|FAIL`` line so the whole gate can
be read off a verbose run at a glance. The numbered checks cover: the
gamma surrogate fits, dominance and tightness of the closed-form
detection-error bound, threshold optimality, the power step against a grid
oracle, the ratio solver against a closed form and a placement grid, BCD
behavior with Monte Carlo covertness validation, the jamming-cancellation
contrast, and sampler goodness of fit.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (default_scenario_dict, ks_statistic, radiometer_errors,
                      sr_cdf)
from skycloak import planner
from skycloak.channel import (SHADOWING_ROWS, UavPlacement, gamma_from_sr,
                              sample_sr_power, uav_gain)
from skycloak.detection import (avg_min_dep_lower_bound,
                                avg_min_dep_quadrature, min_dep, phi_inverse)
from skycloak.planner import (constraint_residuals,
                              perfect_cancellation_optimize,
                              power_subproblem, validate_solution)
from skycloak.scenario_io import load_scenario

ROWS = ("light", "average", "heavy")


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_acceptance_1_gamma_surrogate_reference_rows():
    ref = {"light": (2.577, 0.623), "average": (2.135, 0.509),
           "heavy": (1.0, 0.127)}
    worst = 0.0
    for row in ROWS:
        g = gamma_from_sr(SHADOWING_ROWS[row])
        a_ref, t_ref = ref[row]
        worst = max(worst, abs(g.alpha - a_ref), abs(g.theta - t_ref))
    ok = worst <= 1e-3
    assert report(1, ok, f"max |fit - reference| = {worst:.2e} (<= 1e-3)")


def test_acceptance_2_bound_dominated_by_quadrature_and_mc():
    trials = 10_000
    ok = True
    worst_q, worst_mc = -math.inf, -math.inf
    for irow, row in enumerate(ROWS):
        sr = SHADOWING_ROWS[row]
        gam = gamma_from_sr(sr)
        for ir, rho in enumerate(np.logspace(math.log10(0.8),
                                             math.log10(12.0), 20)):
            r = gam.theta * rho
            bound = avg_min_dep_lower_bound(1.0, 1.0, r, 1.0, gam).value_lb
            quad = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, sr)
            rng = np.random.default_rng([29, irow, ir])
            xi = np.maximum(0.0, 1.0 - sample_sr_power(sr, rng, trials) / r)
            mc, se = float(xi.mean()), float(xi.std(ddof=1) / trials ** 0.5)
            worst_q = max(worst_q, bound - quad)
            worst_mc = max(worst_mc, bound - (mc + 2.0 * se))
            ok &= bound <= quad and bound <= mc + 2.0 * se
    assert report(2, ok, f"max bound-quadrature = {worst_q:.2e}, "
                         f"max bound-(mc+2se) = {worst_mc:.2e} (<= 0)")


def test_acceptance_3_bound_tight_at_operating_point():
    sr = SHADOWING_ROWS["light"]
    gam = gamma_from_sr(sr)
    worst = 0.0
    for ie, eps in enumerate((0.005, 0.01, 0.02, 0.05, 0.1)):
        r = gam.theta / phi_inverse(eps, gam)
        bound = avg_min_dep_lower_bound(1.0, 1.0, r, 1.0, gam).value_lb
        rng = np.random.default_rng([23, 99, ie])
        xi = np.maximum(0.0, 1.0 - sample_sr_power(sr, rng, 10_000) / r)
        worst = max(worst, abs(float(xi.mean()) - bound))
    ok = worst <= 0.05
    assert report(3, ok, f"max |mc - bound| = {worst:.4f} (<= 0.05)")


def test_acceptance_4_threshold_optimality_against_grid():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(1000):
        pa, g_aw, pj_hat, g_uw, sigma_w2 = (
            rng.uniform(0.1, 3.0), rng.uniform(0.1, 2.0),
            rng.uniform(0.1, 3.0), rng.uniform(0.1, 2.0),
            rng.uniform(0.2, 2.0))
        sig, jam = pa * g_aw, pj_hat * g_uw
        taus = np.linspace(0.0, 1.2 * (sigma_w2 + jam + sig), 10_000)
        fa, md = radiometer_errors(taus, sig, jam, sigma_w2)
        worst = max(worst, abs(min_dep(sig, jam) - float(np.min(fa + md))))
    ok = worst <= 1e-9
    assert report(4, ok, f"max |analytic - grid min| = {worst:.2e} (<= 1e-9)")


def test_acceptance_5_power_lp_against_grid():
    rng = np.random.default_rng(17)
    worst = 0.0
    checked = 0
    while checked < 20:
        K = int(rng.integers(1, 3))
        ues = rng.uniform(-250.0, 250.0, size=(K, 2))
        d = default_scenario_dict(0.1, 0)
        d["ue_placement"] = {"explicit": {"value": ues.tolist(), "unit": "m"}}
        s = load_scenario(d).scenario
        q = rng.uniform(-80.0, 80.0, size=2)
        need = float(np.max(np.linalg.norm(s.ground_nodes - q, axis=1)))
        H = need * math.tan(s.budget.phi_min) * rng.uniform(1.05, 1.3)
        if not s.H_min <= H <= s.H_max:
            continue
        pl = UavPlacement(q=q, H=H)
        lp_sinr = 2.0 ** planner._bob_rate(s, pl, power_subproblem(s, pl)) - 1.0

        d2 = np.sum((s.ues - q[None, :]) ** 2, axis=1) + H * H
        prem = s.P_tot - float(np.sum(s.xi_coeff * d2))
        g_uw = uav_gain(pl, s.willie, s.budget.beta0_chi)
        g_ub = uav_gain(pl, s.bob, s.budget.beta0_chi)
        g_ab = s.sat.ell * s.sr.mean_power
        ups = phi_inverse(s.eps, s.gamma) * g_uw / (s.gamma.theta * s.sat.ell)
        PJ, PA = np.meshgrid(np.linspace(0.0, prem, 200),
                             np.linspace(0.0, s.Pa_max, 200), indexing="ij")
        sinr = PA * g_ab / (s.varpi * PJ * g_ub + s.sigma_b2)
        sinr[PA > ups * PJ + 1e-18] = -1.0
        worst = max(worst, abs(lp_sinr - sinr.max()) / sinr.max())
        checked += 1
    ok = worst <= 0.01
    assert report(5, ok, f"max relative objective gap = {worst:.2e} over "
                         f"{checked} instances (<= 1e-2)")


def test_acceptance_6_ratio_solver(perfect_scenario, pc_solution):
    # closed-form instance: no served users, Bob and warden co-located,
    # budget low enough that the satellite cap stays slack
    base = default_scenario_dict(0.0, 0)
    base["bob"] = {"value": [50.0, -20.0], "unit": "m"}
    base["willie"] = {"value": [50.0, -20.0], "unit": "m"}
    base["ue_placement"]["uniform_square"]["count"] = 0
    s0 = dataclasses.replace(load_scenario(base).scenario,
                             P_tot=0.3, H_min=400.0)
    sol0 = perfect_cancellation_optimize(s0)
    lam_ref = (s0.P_tot * phi_inverse(s0.eps, s0.gamma) * s0.budget.beta0_chi
               / (s0.H_min ** 2 * s0.gamma.theta * s0.sat.ell))
    rel_closed = abs(sol0.powers.Pa - lam_ref) / lam_ref
    ok_closed = lam_ref < s0.Pa_max and rel_closed <= 1e-6

    # default no-residual-jamming scenario against a 40 x 40 x 20 grid
    s = perfect_scenario
    tanphi = math.tan(s.budget.phi_min)
    ups0 = phi_inverse(s.eps, s.gamma) * s.budget.beta0_chi \
        / (s.gamma.theta * s.sat.ell)
    xs = np.linspace(-300.0, 300.0, 40)
    grid_q = np.stack(np.meshgrid(xs, xs, indexing="ij"),
                      axis=-1).reshape(-1, 2)
    best = 0.0
    for H in np.linspace(s.H_min, s.H_max, 20):
        reach = np.max(np.linalg.norm(
            s.ground_nodes[None, :, :] - grid_q[:, None, :], axis=2), axis=1)
        feas = reach * tanphi <= H
        if not np.any(feas):
            continue
        q = grid_q[feas]
        d2_ue = np.sum((s.ues[None, :, :] - q[:, None, :]) ** 2,
                       axis=2) + H * H
        prem = s.P_tot - np.sum(s.xi_coeff * d2_ue, axis=1)
        d2_w = np.sum((q - s.willie[None, :]) ** 2, axis=1) + H * H
        pa = np.minimum(ups0 * np.maximum(prem, 0.0) / d2_w, s.Pa_max)
        best = max(best, float(pa.max()))
    rel_grid = abs(pc_solution.powers.Pa - best) / best
    ok_grid = rel_grid <= 0.02
    assert report(6, ok_closed and ok_grid,
                  f"closed-form rel err = {rel_closed:.2e} (<= 1e-6), "
                  f"grid rel err = {rel_grid:.2e} (<= 2e-2)")


def test_acceptance_7_bcd_with_mc_validation(default_scenario, bcd_solution):
    s, sol = default_scenario, bcd_solution
    tr = np.asarray(sol.trace)
    monotone = bool(np.all(np.diff(tr) >= -1e-12))
    iters = len(tr) - 1
    res = max(constraint_residuals(s, sol.placement, sol.powers).values())
    rep = validate_solution(s, sol, trials=10_000,
                            rng=np.random.default_rng([2, 12]))
    covert = rep.xi_mc >= 1.0 - s.eps - 2.0 * rep.xi_stderr
    ok = monotone and iters <= 50 and res <= 1e-8 and covert
    assert report(7, ok,
                  f"trace monotone = {monotone}, iters = {iters} (<= 50), "
                  f"max residual = {res:.2e} (<= 1e-8), "
                  f"xi_mc = {rep.xi_mc:.5f} >= "
                  f"{1.0 - s.eps - 2.0 * rep.xi_stderr:.5f} = {covert}")


def test_acceptance_8_cancellation_contrast(bcd_solution, pc_solution,
                                            default_scenario):
    ratio = pc_solution.Rb / bcd_solution.Rb
    bob = default_scenario.bob

    def dist3d(sol):
        return math.hypot(float(np.linalg.norm(sol.placement.q - bob)),
                          sol.placement.H)

    d_residual, d_cancelled = dist3d(bcd_solution), dist3d(pc_solution)
    ok = ratio >= 10.0 and d_residual > d_cancelled
    assert report(8, ok,
                  f"rate ratio = {ratio:.1f} (>= 10), distance to listener "
                  f"{d_residual:.1f} m with residual jamming > "
                  f"{d_cancelled:.1f} m without")


def test_acceptance_9_sampler_goodness_of_fit():
    n = 100_000
    crit = 1.628 / math.sqrt(n)
    worst = 0.0
    for idx, row in enumerate(ROWS):
        sr = SHADOWING_ROWS[row]
        draws = sample_sr_power(sr, np.random.default_rng([5, idx]), n)
        worst = max(worst, ks_statistic(draws, lambda x: sr_cdf(x, sr)))
    ok = worst < crit
    assert report(9, ok, f"max KS = {worst:.5f} (< {crit:.5f} at n = {n})")
