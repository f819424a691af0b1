"""Placement/power optimizers, residual audit, Monte Carlo validation."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import default_scenario_dict
from skycloak import planner, solvers
from skycloak.channel import (HEAVY_SHADOWING, UavPlacement, gamma_from_sr,
                              uav_gain)
from skycloak.cli import _run_planner
from skycloak.detection import covert_constraint_satisfied, phi, phi_inverse
from skycloak.planner import (PowerAllocation, Solution, bcd_optimize,
                              bob_rate, constraint_residuals,
                              perfect_cancellation_optimize,
                              placement_subproblem, power_subproblem,
                              validate_solution)
from skycloak.scenario_io import load_scenario
from skycloak.solvers import _barrier_maximize, dinkelbach


def scenario_with(varpi=0.1, seed=0, *, bob=None, willie=None, ues=None):
    d = default_scenario_dict(varpi, seed)
    if bob is not None:
        d["bob"] = {"value": list(bob), "unit": "m"}
    if willie is not None:
        d["willie"] = {"value": list(willie), "unit": "m"}
    if ues is not None:
        d["ue_placement"] = {"explicit": {"value": [list(u) for u in ues],
                                          "unit": "m"}}
    return load_scenario(d).scenario


def sr_variance(p):
    m2 = (8.0 * p.b ** 2 + 8.0 * p.b * p.omega
          + (p.m + 1.0) / p.m * p.omega ** 2)
    return m2 - p.mean_power ** 2


# ---------------------------------------------------------------------------
# placement step


def toy_single_ue():
    """UE on Bob, warden 200 m east; covertness ball and Bob's elevation
    cone pin the optimum to a unique point on the x axis."""
    s = scenario_with(bob=(0.0, 0.0), willie=(200.0, 0.0), ues=[(0.0, 0.0)])
    r_ue, r_cov = 300.0, 160.0
    pk = s.xi_coeff * r_ue ** 2
    pj = 0.9
    pa = (pj * s.budget.beta0_chi * phi_inverse(s.eps, s.gamma)
          / (s.gamma.theta * s.sat.ell * r_cov ** 2))
    powers = PowerAllocation(Pk=np.array([pk]), Pj_hat=pj, Pa=pa)
    return s, powers, r_ue, r_cov


def test_placement_single_ue_matches_grid_oracle():
    s, powers, r_ue, r_cov = toy_single_ue()
    q0 = UavPlacement(q=np.array([103.5, 0.0]), H=126.0)
    pl = placement_subproblem(s, powers, q0, sca_max=60)
    got = pl.lifted
    assert abs(got[1]) < 1e-4  # the problem is mirror-symmetric in y

    # the y = 0 slice carries the optimum (on the binding circle the
    # objective depends on H alone), so a zoomed 2D grid is an exact oracle
    c = 1.0 / math.tan(s.budget.phi_min)
    lo = np.array([40.0, 50.0])
    hi = np.array([360.0, 200.0])
    best = None
    for _ in range(6):
        xs = np.linspace(lo[0], hi[0], 201)
        hs = np.linspace(lo[1], hi[1], 201)
        X, H = np.meshgrid(xs, hs, indexing="ij")
        feas = (np.abs(X) <= H * c) & (np.abs(X - 200.0) <= H * c)
        feas &= X ** 2 + H ** 2 <= r_ue ** 2
        feas &= (X - 200.0) ** 2 + H ** 2 <= r_cov ** 2
        feas &= (H >= 50.0) & (H <= 500.0)
        obj = X ** 2 + H ** 2
        obj[~feas] = -np.inf
        i = np.unravel_index(np.argmax(obj), obj.shape)
        best = np.array([X[i], H[i]])
        span = (hi - lo) / 200.0
        lo, hi = best - 4.0 * span, best + 4.0 * span
    assert np.hypot(got[0] - best[0], got[2] - best[1]) < 1e-2

    # same point in closed form: Bob's cone and the covertness sphere bind
    a2 = 1.0 + c * c
    h_star = (400.0 * c + math.sqrt((400.0 * c) ** 2
                                    - 4.0 * a2 * (200.0 ** 2 - r_cov ** 2))) \
        / (2.0 * a2)
    assert got[2] == pytest.approx(h_star, abs=1e-4)
    assert got[0] == pytest.approx(c * h_star, abs=1e-4)


def test_placement_never_hurts_and_stays_feasible():
    s, powers, _, _ = toy_single_ue()
    rng = np.random.default_rng(31)
    for _ in range(5):
        q0 = UavPlacement(q=np.array([rng.uniform(102.5, 104.5), 0.0]),
                          H=rng.uniform(125.0, 127.0))
        d0 = float(np.sum((q0.lifted) ** 2))
        pl = placement_subproblem(s, powers, q0)
        d1 = float(np.sum((pl.lifted) ** 2))
        assert d1 >= d0 - 1e-9
        res = constraint_residuals(s, pl, powers)
        for key in ("altitude", "elevation"):
            assert res[key] <= 1e-7, (key, res[key])


# ---------------------------------------------------------------------------
# power step


def grid_sinr(s, pl):
    """Best SINR at Bob over a 200 x 200 (Pj_hat, Pa) grid with the UE
    powers at their floors and the covertness cap enforced."""
    d2 = np.sum((s.ues - pl.q[None, :]) ** 2, axis=1) + pl.H ** 2
    prem = s.P_tot - float(np.sum(s.xi_coeff * d2))
    assert prem > 0.0
    g_uw = uav_gain(pl, s.willie, s.budget.beta0_chi)
    g_ub = uav_gain(pl, s.bob, s.budget.beta0_chi)
    g_ab = s.sat.ell * s.sr.mean_power
    ups = phi_inverse(s.eps, s.gamma) * g_uw / (s.gamma.theta * s.sat.ell)
    PJ, PA = np.meshgrid(np.linspace(0.0, prem, 200),
                         np.linspace(0.0, s.Pa_max, 200), indexing="ij")
    sinr = PA * g_ab / (s.varpi * PJ * g_ub + s.sigma_b2)
    sinr[PA > ups * PJ + 1e-18] = -1.0
    return float(sinr.max())


def test_power_subproblem_matches_grid():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        K = int(rng.integers(1, 3))
        ues = rng.uniform(-250.0, 250.0, size=(K, 2))
        s = scenario_with(ues=ues)
        q = rng.uniform(-80.0, 80.0, size=2)
        need = float(np.max(np.linalg.norm(s.ground_nodes - q, axis=1)))
        H = need * math.tan(s.budget.phi_min) * rng.uniform(1.05, 1.3)
        if not s.H_min <= H <= s.H_max:
            continue
        pl = UavPlacement(q=q, H=H)
        pw = power_subproblem(s, pl)
        sinr = 2.0 ** bob_rate(s, pl, pw) - 1.0
        best = grid_sinr(s, pl)
        assert abs(sinr - best) / best <= 0.01
        checked += 1


def test_power_subproblem_satellite_cap_binds(default_scenario, bcd_solution):
    # halve Pa_max below the covertness cap at full jamming: the jamming
    # stops at Pa_max/ups and the unspent budget still goes to the UEs
    pl = bcd_solution.placement
    pa_free = power_subproblem(default_scenario, pl).Pa
    s = dataclasses.replace(default_scenario, Pa_max=0.5 * pa_free)
    assert s.K >= 2
    pw = power_subproblem(s, pl)
    g_uw = uav_gain(pl, s.willie, s.budget.beta0_chi)
    ups = phi_inverse(s.eps, s.gamma) * g_uw / (s.gamma.theta * s.sat.ell)
    assert pw.Pa == pytest.approx(s.Pa_max, rel=1e-12)
    assert pw.Pj_hat == pytest.approx(s.Pa_max / ups, rel=1e-12)
    assert pw.total == pytest.approx(s.P_tot, rel=1e-12)
    assert max(constraint_residuals(s, pl, pw).values()) <= 1e-9
    sinr = 2.0 ** bob_rate(s, pl, pw) - 1.0
    best = grid_sinr(s, pl)
    assert abs(sinr - best) / best <= 0.01


def test_power_subproblem_structure(default_scenario, bcd_solution):
    s = default_scenario
    pl = bcd_solution.placement
    pw = power_subproblem(s, pl)
    # full-budget use: all power not serving UEs goes to jamming
    assert pw.total == pytest.approx(s.P_tot, abs=1e-9)
    # UE rate floors bind exactly
    for pk, u in zip(pw.Pk, s.ues):
        g = uav_gain(pl, u, s.budget.beta0_kappa)
        rate = math.log2(1.0 + pk * g / s.sigma_kappa2)
        assert rate == pytest.approx(s.R_tg, abs=1e-9)
    # covertness cap binds when Pa sits below its hard cap
    g_uw = uav_gain(pl, s.willie, s.budget.beta0_chi)
    ups = phi_inverse(s.eps, s.gamma) * g_uw / (s.gamma.theta * s.sat.ell)
    assert pw.Pa < s.Pa_max
    assert pw.Pa == pytest.approx(ups * pw.Pj_hat, rel=1e-8)
    # every residual within rounding noise
    res = constraint_residuals(s, pl, pw)
    assert max(res.values()) <= 1e-9


def test_power_subproblem_jamming_monotone_in_ue_target(default_scenario,
                                                        bcd_solution):
    # raising the UE rate floor eats the jamming budget (fixed placement)
    pl = bcd_solution.placement
    pj = []
    for r_tg in (4.0, 5.0, 6.0, 7.0):
        s = dataclasses.replace(default_scenario, R_tg=r_tg)
        pj.append(power_subproblem(s, pl).Pj_hat)
    assert all(b <= a + 1e-12 for a, b in zip(pj, pj[1:]))


def test_power_subproblem_infeasible_floors():
    s = scenario_with(ues=[(250.0, 250.0), (-250.0, -250.0)])
    s = dataclasses.replace(s, P_tot=1e-4)
    pl = UavPlacement(q=np.zeros(2), H=450.0)
    from skycloak.planner import PlannerInfeasible
    with pytest.raises(PlannerInfeasible):
        power_subproblem(s, pl)


# ---------------------------------------------------------------------------
# full planner


def test_bcd_on_default(default_scenario, bcd_solution):
    s, sol = default_scenario, bcd_solution
    tr = np.asarray(sol.trace)
    assert len(tr) - 1 <= s.i_max
    assert np.all(np.diff(tr) >= -1e-12)
    assert sol.Rb == pytest.approx(tr[-1], rel=1e-12)
    assert max(constraint_residuals(s, sol.placement, sol.powers).values()) \
        <= 1e-8


def test_bcd_golden_plan_on_default(bcd_solution):
    # the stock plan pinned: a solver change that moves it by more than
    # rounding shows here
    sol = bcd_solution
    assert sol.status == "converged"
    assert len(sol.trace) - 1 == 2
    assert sol.Rb == pytest.approx(0.17726849775220005, rel=1e-12)
    assert_allclose(sol.placement.q, [-50.81067063430106, -189.05393986028162],
                    rtol=0.0, atol=1e-9)
    assert sol.placement.H == pytest.approx(364.27708977356724, rel=0.0,
                                            abs=1e-9)


def test_bcd_is_a_fixed_point(default_scenario, bcd_solution):
    s, sol = default_scenario, bcd_solution
    # the exact power step reproduces the converged rate
    pw = power_subproblem(s, sol.placement)
    assert bob_rate(s, sol.placement, pw) == pytest.approx(sol.Rb, abs=1e-9)
    # the placement step finds no further room worth more than the stop gap
    pl = placement_subproblem(s, sol.powers, sol.placement)
    assert bob_rate(s, pl, sol.powers) <= sol.Rb + 1e-5


def test_bcd_single_sca_variant(default_scenario):
    sol = bcd_optimize(default_scenario, single_sca_iterate=True)
    assert sol.status == "converged"
    tr = np.asarray(sol.trace)
    assert np.all(np.diff(tr) >= -1e-12)
    # one linearization per round converges to the same answer here
    full = bcd_optimize(default_scenario)
    assert sol.Rb == pytest.approx(full.Rb, rel=1e-3)


def test_bcd_infeasible_reports():
    d = default_scenario_dict(0.1, 12)
    d["uav"]["phi_min"] = {"value": 89.0, "unit": "deg"}
    s = load_scenario(d).scenario
    sol = bcd_optimize(s)
    assert sol.status == "infeasible"
    assert sol.placement is None and sol.powers is None
    assert "elevation" in sol.message
    assert math.isnan(sol.Rb)

    s2 = dataclasses.replace(load_scenario(default_scenario_dict(0.1, 12)).scenario,
                             P_tot=1e-5)
    sol2 = bcd_optimize(s2)
    assert sol2.status == "infeasible"


def test_perfect_cancellation_requires_zero_varpi(default_scenario):
    with pytest.raises(ValueError):
        perfect_cancellation_optimize(default_scenario)


def test_perfect_cancellation_k0_closed_form():
    # no UEs, Bob and the warden co-located: the ratio optimum hovers at
    # minimum altitude right above them, lam* = P_tot*PhiInv*beta0/(theta*
    # ell*H_min^2)
    base = scenario_with(varpi=0.0, bob=(50.0, -20.0), willie=(50.0, -20.0))
    s = dataclasses.replace(base, ues=np.zeros((0, 2)), P_tot=0.3,
                            H_min=400.0)
    sol = perfect_cancellation_optimize(s)
    assert sol.status == "converged"
    lam_star = (s.P_tot * phi_inverse(s.eps, s.gamma) * s.budget.beta0_chi
                / (s.H_min ** 2 * s.gamma.theta * s.sat.ell))
    assert lam_star < s.Pa_max  # uncapped instance: the test is sharp
    assert sol.powers.Pa == pytest.approx(lam_star, rel=1e-6)
    assert_allclose(sol.placement.q, [50.0, -20.0], atol=1e-3)
    assert sol.placement.H == pytest.approx(400.0, abs=1e-3)
    assert sol.powers.Pj_hat == pytest.approx(s.P_tot, rel=1e-12)


def test_perfect_cancellation_on_default(perfect_scenario, pc_solution):
    s, sol = perfect_scenario, pc_solution
    tr = np.asarray(sol.trace)
    assert np.all(np.diff(tr) >= -1e-12)
    # every UE gets its floor, the rest jams, Pa at its cap
    assert sol.powers.total == pytest.approx(s.P_tot, abs=1e-9)
    assert max(constraint_residuals(s, sol.placement, sol.powers).values()) \
        <= 1e-8
    d2 = np.sum((s.ues - sol.placement.q[None, :]) ** 2, axis=1) \
        + sol.placement.H ** 2
    assert_allclose(sol.powers.Pk, s.xi_coeff * d2, rtol=1e-9)


def test_perfect_cancellation_stops_at_the_satellite_cap(perfect_scenario,
                                                        pc_solution):
    # the ratio passes Pa_max in round 1; later rounds would only move
    # the placement within a tie for the capped rate
    s, sol = perfect_scenario, pc_solution
    assert len(sol.trace) == 1
    assert sol.powers.Pa == s.Pa_max
    assert sol.Rb == 7.8492332732661625
    assert constraint_residuals(s, sol.placement, sol.powers)["covert"] <= 0.0


def near_singular_scenario():
    """Heavy shadowing with a loose eps: uncapped, the Dinkelbach rounds
    end on the edge of two elevation cones, where the barrier Hessian
    reaches a condition number near 1e17."""
    d = default_scenario_dict(varpi=0.0, seed=0)
    d.update(shadowing="heavy", eps=0.28029555638734793,
             R_tg=2.95130252870034)
    d["P_tot"]["value"] = 10.523475196509525
    d["bob"]["value"] = [270.86438243745556, 218.37866677458692]
    d["willie"]["value"] = [263.27530546134824, -339.2329821955998]
    d["ue_placement"] = {"explicit": {"unit": "m", "value": [
        [52.911256580004306, -175.36300961228892],
        [201.9839294102668, -241.87763881008368],
        [-123.03285307011657, -296.8351493054498]]}}
    with pytest.warns(RuntimeWarning, match="shape is exactly 1"):
        return load_scenario(d).scenario


def assert_capped_near_singular_plan(s, sol):
    assert sol.status == "converged"
    assert sol.powers.Pa == s.Pa_max
    assert sol.Rb == pytest.approx(4.2586, abs=1e-4)
    assert max(constraint_residuals(s, sol.placement, sol.powers).values()) \
        <= 1e-8


def test_perfect_cancellation_near_singular_newton_system():
    s = near_singular_scenario()
    assert_capped_near_singular_plan(s, perfect_cancellation_optimize(s))


def test_perfect_cancellation_near_singular_rounds_past_the_cap(monkeypatch):
    # without the stop at Pa_max the rounds go on to the near-singular
    # Newton systems; the plan must still converge to the same rate
    def uncapped(*args, **kwargs):
        return dinkelbach(*args, **dict(kwargs, lam_max=math.inf))

    monkeypatch.setattr(planner, "dinkelbach", uncapped)
    s = near_singular_scenario()
    sol = perfect_cancellation_optimize(s)
    assert len(sol.trace) == 7
    assert_capped_near_singular_plan(s, sol)


def newton_steps_of(monkeypatch, plan, s):
    """Total Newton steps of every barrier solve that ``plan(s)`` makes."""
    steps = []

    def counted(*args, **kwargs):
        x, info = _barrier_maximize(*args, **kwargs)
        steps.append(info["newton_steps"])
        return x, info

    monkeypatch.setattr(solvers, "_barrier_maximize", counted)
    monkeypatch.setattr(planner, "_barrier_maximize", counted)
    plan(s)
    return sum(steps)


def test_newton_step_budget_on_the_stock_scenarios(monkeypatch, default_scenario,
                                                   perfect_scenario):
    # counts stable across machines; a change must not raise them
    assert newton_steps_of(monkeypatch, bcd_optimize, default_scenario) <= 540
    assert newton_steps_of(monkeypatch, perfect_cancellation_optimize,
                           perfect_scenario) <= 400


def smoke_corpus(n=12, seed=2024):
    """Seeded scenarios around the stock one: K = 0..n-1 UEs, varpi
    alternating 0 and 0.1, shadowing, eps, P_tot, R_tg, node positions
    and square side drawn at random."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        d = default_scenario_dict(varpi=(0.0, 0.1)[k % 2], seed=k)
        d["shadowing"] = ("light", "average", "heavy")[k % 3]
        d["eps"] = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.4))))
        d["P_tot"]["value"] = float(np.exp(rng.uniform(np.log(0.1),
                                                       np.log(31.6))))
        d["R_tg"] = float(rng.uniform(1.0, 8.0))
        d["bob"]["value"] = rng.uniform(-400.0, 400.0, 2).tolist()
        d["willie"]["value"] = rng.uniform(-400.0, 400.0, 2).tolist()
        side = float(rng.uniform(100.0, 1200.0))
        d["ue_placement"] = {"uniform_square": {
            "side": {"value": side, "unit": "m"}, "count": k}}
        yield d


@pytest.mark.filterwarnings("ignore:Gamma surrogate shape")
def test_smoke_corpus_plans_cleanly():
    statuses = []
    for d in smoke_corpus():
        s = load_scenario(d).scenario
        sol, _ = _run_planner(s)
        statuses.append(sol.status)
        if sol.placement is None:
            assert sol.status == "infeasible"
            continue
        res = constraint_residuals(s, sol.placement, sol.powers)
        assert max(res.values()) <= 1e-8, (d, res)
        assert res["covert"] <= 1e-15, (d, res)
    assert statuses.count("infeasible") < len(statuses)


def test_covert_residual_sign_agrees_with_constraint_map(default_scenario):
    s = default_scenario
    rng = np.random.default_rng(53)
    x_boundary = phi_inverse(s.eps, s.gamma)
    for _ in range(1000):
        pa = rng.uniform(0.01, 10.0)
        pj = rng.uniform(0.001, 2.0)
        g_uw = 10.0 ** rng.uniform(-11.0, -8.0)
        ok, slack = covert_constraint_satisfied(pa, pj, g_uw, s.sat.ell,
                                                s.eps, s.gamma)
        x0 = s.gamma.theta * pa * s.sat.ell / (pj * g_uw)
        if abs(x0 - x_boundary) < 1e-12:
            continue
        # phi is strictly increasing, so the bound test must agree with
        # the threshold test on the ratio
        assert ok == (x0 < x_boundary)
        assert (slack > 0.0) == ok


# ---------------------------------------------------------------------------
# Monte Carlo validation


def test_validate_silent_satellite(default_scenario, bcd_solution):
    pw = bcd_solution.powers
    silent = Solution(
        placement=bcd_solution.placement,
        powers=PowerAllocation(Pk=pw.Pk, Pj_hat=pw.Pj_hat, Pa=0.0),
        Rb=0.0, trace=[0.0], status="converged")
    rep = validate_solution(default_scenario, silent, trials=2000,
                            rng=np.random.default_rng(1))
    assert rep.xi_mc == 1.0
    assert rep.xi_stderr == 0.0
    assert rep.covert_pass
    assert rep.rate_mc == 0.0


def test_validate_covertness_on_default(default_scenario, bcd_solution):
    rep = validate_solution(default_scenario, bcd_solution, trials=10_000,
                            rng=np.random.default_rng([2, 12]))
    assert rep.trials == 10_000
    assert rep.covert_pass
    assert rep.xi_mc >= 1.0 - default_scenario.eps - 2.0 * rep.xi_stderr
    # with jamming drawn below its peak, the realized rate beats the
    # worst-case deterministic value
    assert rep.rate_mc >= rep.rb_deterministic
    assert rep.to_dict()["covert_pass"] is True


def test_validate_rate_band_perfect_cancellation(perfect_scenario,
                                                 pc_solution):
    # with the jamming cancelled, the only randomness is the satellite
    # fading; concavity pulls the MC mean below the rate at mean fading by
    # roughly var * c^2 / (2 (1 + c E[X])^2 ln 2)
    s = perfect_scenario
    rep = validate_solution(s, pc_solution, trials=40_000,
                            rng=np.random.default_rng(9))
    c = pc_solution.powers.Pa * s.sat.ell / s.sigma_b2
    ex = s.sr.mean_power
    jensen = sr_variance(s.sr) * c ** 2 / (2.0 * (1.0 + c * ex) ** 2
                                           * math.log(2.0))
    gap = rep.rb_deterministic - rep.rate_mc
    assert abs(gap - jensen) <= 0.3 * jensen + 3.0 * rep.rate_stderr
    assert rep.covert_pass


def test_validate_rejects_infeasible(default_scenario):
    bad = Solution(placement=None, powers=None, Rb=math.nan, trace=[],
                   status="infeasible")
    with pytest.raises(ValueError):
        validate_solution(default_scenario, bad)


@pytest.mark.parametrize("trials", [0, 1])
def test_validate_needs_two_trials(default_scenario, bcd_solution, trials):
    # one draw has no standard error, so no covertness verdict
    with pytest.raises(ValueError, match="at least 2 trials"):
        validate_solution(default_scenario, bcd_solution, trials=trials)


# ---------------------------------------------------------------------------
# scenario plumbing used by the planner


def test_scenario_gamma_follows_sr(default_scenario):
    # the surrogate is derived from sr, never carried over from a copy
    with pytest.warns(RuntimeWarning, match="shape is exactly 1"):
        heavy = dataclasses.replace(default_scenario, sr=HEAVY_SHADOWING)
    assert heavy.gamma == gamma_from_sr(HEAVY_SHADOWING)
    assert heavy.gamma != default_scenario.gamma
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(default_scenario, gamma=heavy.gamma)


def test_residuals_flag_violations(default_scenario, bcd_solution):
    s, sol = default_scenario, bcd_solution
    res = constraint_residuals(s, sol.placement, sol.powers)
    assert set(res) == {"covert", "ue_rate", "total_power", "pa_range",
                        "altitude", "elevation", "nonneg"}
    # pushing Pa up by 10x must blow the covertness residual positive
    loud = PowerAllocation(Pk=sol.powers.Pk, Pj_hat=sol.powers.Pj_hat,
                           Pa=10.0 * sol.powers.Pa)
    assert constraint_residuals(s, sol.placement, loud)["covert"] > 0.0
    # sinking the UAV below the band flags altitude and elevation
    low = UavPlacement(q=sol.placement.q, H=10.0)
    res_low = constraint_residuals(s, low, sol.powers)
    assert res_low["altitude"] > 0.0
    assert res_low["elevation"] > 0.0
