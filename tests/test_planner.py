"""Placement/power optimizers, residual audit, Monte Carlo validation."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (WARM_CASES, benchmark_corpus, cold_barrier,
                      default_scenario_dict, plan_with_barrier)
from skycloak import planner, solvers
from skycloak.channel import (SHADOWING_ROWS, UavPlacement, gamma_from_sr,
                              sample_sr_power, uav_gain)
from skycloak.detection import CovertBound, phi_inverse
from skycloak.planner import (PowerAllocation, Solution, ValidationReport,
                              bcd_optimize, constraint_residuals,
                              optimize, perfect_cancellation_optimize,
                              placement_subproblem, power_subproblem,
                              validate_solution)
from skycloak.scenario_io import LoadedScenario, load_scenario
from skycloak.solvers import DinkelbachResult, _barrier_maximize, dinkelbach


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
    pl = placement_subproblem(s, powers, q0)
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


def floors_and_ups(s, pl):
    """UE rate floors xi*d_k^2 (W) and the covertness cap ups = Pa/Pj_hat
    at ``pl``."""
    d2 = np.array([float(np.sum((pl.q - u) ** 2)) + pl.H ** 2 for u in s.ues])
    return s.xi_coeff * d2, uav_gain(pl, s.willie, s.kappa)


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
    sinr = 2.0 ** planner._bob_rate(s, pl, pw) - 1.0
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


def test_power_subproblem_at_varpi_0_jams_the_whole_remainder(perfect_scenario,
                                                             pc_solution):
    # jamming costs Bob nothing at varpi = 0, so even past the satellite
    # cap every UE stays at its floor and the rest jams
    s, pl = perfect_scenario, pc_solution.placement
    floors, ups = floors_and_ups(s, pl)
    prem = s.P_tot - floors.sum()
    assert s.Pa_max / ups < prem  # the satellite cap binds here
    pw = power_subproblem(s, pl)
    assert np.array_equal(pw.Pk, floors)
    assert pw.Pj_hat == prem
    assert pw.Pa == s.Pa_max


def test_bcd_start_split_leaves_jamming_uncapped(default_scenario):
    # BCD's start placement with Pa_max halved below the covertness cap at
    # full jamming: the start split still jams the whole remainder and
    # stops Pa at Pa_max, while the power step stops the jamming at
    # Pa_max/ups and credits the unspent budget to UE 0
    pl = planner._initial_placement(default_scenario)
    floors, ups = floors_and_ups(default_scenario, pl)
    prem = default_scenario.P_tot - floors.sum()
    s = dataclasses.replace(default_scenario, Pa_max=0.5 * ups * prem)
    assert s.K >= 2 and s.Pa_max / ups < prem

    start = planner._split_power(s, pl, cap_jamming=False)
    assert np.array_equal(start.Pk, floors)
    assert start.Pj_hat == prem
    assert start.Pa == s.Pa_max

    pw = power_subproblem(s, pl)
    assert pw.Pj_hat == s.Pa_max / ups
    assert pw.Pa == pytest.approx(s.Pa_max, rel=1e-12)
    assert np.array_equal(pw.Pk[1:], floors[1:])
    assert pw.Pk[0] == pytest.approx(floors[0] + prem - s.Pa_max / ups,
                                     rel=1e-12)
    assert pw.total == pytest.approx(s.P_tot, rel=1e-12)


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
    assert sol.Rb == pytest.approx(0.17726849774032172, rel=1e-12)
    assert_allclose(sol.placement.q, [-50.81067060126445, -189.0539398300625],
                    rtol=0.0, atol=1e-9)
    assert sol.placement.H == pytest.approx(364.2770897945528, rel=0.0,
                                            abs=1e-9)


def test_bcd_is_a_fixed_point(default_scenario, bcd_solution):
    s, sol = default_scenario, bcd_solution
    # the exact power step reproduces the converged rate
    pw = power_subproblem(s, sol.placement)
    assert planner._bob_rate(s, sol.placement, pw) == pytest.approx(sol.Rb, abs=1e-9)
    # the placement step finds no further room worth more than the stop gap
    pl = placement_subproblem(s, sol.powers, sol.placement)
    assert planner._bob_rate(s, pl, sol.powers) <= sol.Rb + 1e-5


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
    assert sol2.message == \
        "infeasible: ue-rate power floors (exceed the budget everywhere)"


def test_perfect_cancellation_infeasible_reports():
    d = default_scenario_dict(0.0, 12)
    d["uav"]["phi_min"] = {"value": 89.0, "unit": "deg"}
    s = load_scenario(d).scenario
    sol = perfect_cancellation_optimize(s)
    assert sol.status == "infeasible"
    assert sol.placement is None and sol.powers is None
    assert sol.message == str(planner.PlannerInfeasible(*planner._CONES))
    assert math.isnan(sol.Rb) and sol.trace == []

    s2 = dataclasses.replace(load_scenario(default_scenario_dict(0.0, 12)).scenario,
                             P_tot=1e-5)
    sol2 = perfect_cancellation_optimize(s2)
    assert sol2.status == "infeasible"
    assert sol2.message == \
        "infeasible: ue-rate power floors (exceed the budget everywhere)"


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
    # the trace starts at the start point's rate, below the cap; the
    # ratio passes Pa_max in round 1, and later rounds would only move
    # the placement within a tie for the capped rate
    s, sol = perfect_scenario, pc_solution
    assert len(sol.trace) == 2 and sol.trace[0] < sol.Rb
    assert sol.trace[1] == sol.Rb
    assert sol.powers.Pa == s.Pa_max
    assert sol.Rb == 7.8492332732661625
    assert constraint_residuals(s, sol.placement, sol.powers)["covert"] <= 0.0


# each relaxing step grows the feasible set, so the planned rate may not
# fall; lower R_tg and H_min relax the UE floors and the altitude band
RELAXING_STEPS = {
    "P_tot": (1.05, 1.1, 1.2, 1.4),
    "Pa_max": (1.1, 1.25, 1.5, 2.0),
    "eps": (1.1, 1.25, 1.5, 2.0),
    "H_max": (1.02, 1.05, 1.1, 1.2),
    "R_tg": (0.95, 0.9, 0.8, 0.6),
    "H_min": (0.95, 0.9, 0.8, 0.6),
}


# plan-cancel corpus scenarios below the satellite cap (3, 35, 40, 80, and
# 85 with no UE) and capped (9)
@pytest.mark.parametrize("base", [3, 9, 35, 40, 80, 85])
def test_perfect_cancellation_rate_never_falls_when_a_constraint_relaxes(base):
    s = load_scenario(benchmark_corpus(base + 1, (0.0,))[base]).scenario
    start = perfect_cancellation_optimize(s)
    assert start.status == "converged"
    for name, factors in RELAXING_STEPS.items():
        prev = start
        for f in factors:
            value = getattr(s, name) * f
            if name == "eps":
                value = min(value, 0.49)
            sol = perfect_cancellation_optimize(
                dataclasses.replace(s, **{name: value}))
            assert sol.status != "infeasible", (name, f, sol.message)
            assert sol.Rb >= prev.Rb * (1.0 - 1e-9), (name, f, prev.Rb, sol.Rb)
            prev = sol


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
    return load_scenario(d).scenario


def assert_capped_near_singular_plan(s, sol):
    assert sol.status == "converged"
    assert sol.powers.Pa == s.Pa_max
    assert sol.Rb == pytest.approx(4.2586, abs=1e-4)
    assert max(constraint_residuals(s, sol.placement, sol.powers).values()) \
        <= 1e-8


def test_perfect_cancellation_near_singular_newton_system():
    s = near_singular_scenario()
    sol = perfect_cancellation_optimize(s)
    assert len(sol.trace) == 1  # the start point is already capped
    assert_capped_near_singular_plan(s, sol)


# the varpi = 0 program is posed about the nodes' circle, so moving every
# node by the same offset moves no rate: default_perfect.json with
# H_min = 400 m (the band's lower edge active) and two plan-cancel corpus
# scenarios below the cap (47; 180, whose start lies outside the UE-budget
# ball)
@pytest.mark.parametrize("offset", [(1e5, -1e5), (5e5, 5e6), (3e6, -4e6)])
def test_perfect_cancellation_rate_does_not_move_with_the_nodes(offset):
    d = default_scenario_dict(0.0, 12)
    d["H_min"]["value"] = 400.0
    corpus = benchmark_corpus(181, (0.0,))
    o = np.array(offset)
    for raw in (d, corpus[47], corpus[180]):
        s = load_scenario(raw).scenario
        ref = perfect_cancellation_optimize(s)
        moved = perfect_cancellation_optimize(dataclasses.replace(
            s, bob=s.bob + o, willie=s.willie + o, ues=s.ues + o))
        assert ref.status == moved.status == "converged"
        assert ref.powers.Pa < s.Pa_max
        assert moved.Rb == pytest.approx(ref.Rb, rel=1e-10)
        assert_allclose(moved.placement.lifted, ref.placement.lifted + [*o, 0.0],
                        rtol=0.0, atol=1e-3)


def max_slack_start(monkeypatch):
    """Start the varpi = 0 planner at the max-slack point of the cones,
    the altitude band and the UE-budget ball, where the ratio is
    positive; the closed-form verdicts still run first."""
    def region(s):
        _, slack = placement_region(s)
        anchor = np.append(s.ground_nodes.mean(axis=0),
                           0.5 * (s.H_min + s.H_max))
        x, _ = solvers.max_slack_point(
            planner._placement_set(s, *budget_ball(s)), anchor)
        return x, slack

    placement_region = planner._placement_region
    monkeypatch.setattr(planner, "_placement_region", region)


def test_perfect_cancellation_near_singular_rounds_past_the_cap(monkeypatch):
    # without the stop at Pa_max the rounds go on to the near-singular
    # Newton systems; the plan must still converge to the same rate. The
    # rounds start from the max-slack point, from which they reach those
    # systems (the closed-form start is already capped)
    def uncapped(*args, **kwargs):
        return dinkelbach(*args, **dict(kwargs, lam_max=math.inf))

    newton_solve, singular = solvers._newton_solve, []

    def solve(H, g):
        # a system numpy's Cholesky rejects needs the ridge
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            singular.append(H)
        return newton_solve(H, g)

    monkeypatch.setattr(planner, "dinkelbach", uncapped)
    monkeypatch.setattr(solvers, "_newton_solve", solve)
    max_slack_start(monkeypatch)
    s = near_singular_scenario()
    sol = perfect_cancellation_optimize(s)
    assert len(sol.trace) == 5  # the start rate and 4 rounds
    assert_capped_near_singular_plan(s, sol)
    assert singular  # 8 of the 1,453 systems on x86-64


def test_perfect_cancellation_powers_are_the_power_step(perfect_scenario,
                                                       pc_solution):
    ns = near_singular_scenario()
    for s, sol in ((perfect_scenario, pc_solution),
                   (ns, perfect_cancellation_optimize(ns))):
        pw = power_subproblem(s, sol.placement)
        assert np.array_equal(sol.powers.Pk, pw.Pk)
        assert sol.powers.Pj_hat == pw.Pj_hat
        assert sol.powers.Pa == pw.Pa


def newton_steps(infos):
    """Total Newton steps of the barrier solves with these ``info``s."""
    return sum(info["newton_steps"] for info in infos)


def steep_cone_scenario(varpi):
    """The stock scene with 89 degree elevation cones: no altitude in
    range sees every ground node."""
    d = default_scenario_dict(varpi, 12)
    d["uav"]["phi_min"] = {"value": 89.0, "unit": "deg"}
    return load_scenario(d).scenario


def test_newton_step_budget_on_the_stock_scenarios(monkeypatch, default_scenario,
                                                   perfect_scenario):
    # counts stable across machines; a change must not raise them
    def steps(plan, s):
        return newton_steps(plan_with_barrier(monkeypatch, plan, s)[1])

    assert steps(bcd_optimize, default_scenario) <= 244
    assert steps(perfect_cancellation_optimize, perfect_scenario) <= 40
    # the closed-form start is already capped: Dinkelbach runs 0 rounds
    assert steps(perfect_cancellation_optimize, near_singular_scenario()) == 0
    # the steep cones' "infeasible" verdict is decided in closed form
    for varpi in (0.1, 0.0):
        sol, infos = plan_with_barrier(monkeypatch, optimize, steep_cone_scenario(varpi))
        assert sol.status == "infeasible" and newton_steps(infos) <= 11


# ---------------------------------------------------------------------------
# closed-form certificate: no altitude sees every ground node


def brute_enclosing_radius(points):
    """Smallest enclosing circle by exhaustion: the least, over every
    point, every pair's midpoint and every non-degenerate triple's
    circumcentre, of the largest distance to the points."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    centres = list(p)
    for a, b in itertools.combinations(p, 2):
        centres.append(0.5 * (a + b))
    for a, b, c in itertools.combinations(p, 3):
        m = 2.0 * np.array([b - a, c - a])
        if np.linalg.det(m) != 0.0:
            centres.append(a + np.linalg.solve(
                m, [np.sum((b - a) ** 2), np.sum((c - a) ** 2)]))
    return min(float(np.max(np.linalg.norm(p - o, axis=1))) for o in centres)


def polygon(n, radius, centre=(0.0, 0.0), turn=0.3):
    ang = turn + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([centre[0] + radius * np.cos(ang),
                            centre[1] + radius * np.sin(ang)])


ENCLOSING_CASES = [
    pytest.param([(3.0, 4.0), (3.0, 4.0)], id="coincident-pair"),
    pytest.param([(0.0, 0.0), (0.0, 0.0), (3.0, 4.0)], id="coincident-triple"),
    pytest.param([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], id="collinear"),
    pytest.param([(2.0, 0.0), (5.0, 0.0), (0.0, 0.0)], id="collinear-unsorted"),
    pytest.param([(x, -0.5 * x + 7.0) for x in (4.0, -3.0, 9.0, 0.0, 1.5)],
                 id="collinear-five"),
    pytest.param(polygon(3, 37.0), id="triangle-on-circle"),
    pytest.param(polygon(12, 37.0, centre=(-20.0, 45.0)), id="twelve-on-circle"),
    pytest.param(polygon(7, 250.0, centre=(1e5, -1e5)), id="on-circle-offset"),
]


def assert_enclosing_circle(points):
    """``_enclosing_circle`` against the brute force: the radius, and a
    centre whose farthest point lies at that radius (the smallest circle
    is unique, so no other centre has one)."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    ref = brute_enclosing_radius(p)
    cx, cy, radius = planner._enclosing_circle(p.tolist())
    assert radius == pytest.approx(ref, rel=1e-12, abs=0.0), p
    far = float(np.max(np.hypot(p[:, 0] - cx, p[:, 1] - cy)))
    assert far == pytest.approx(ref, rel=1e-12, abs=0.0), p


@pytest.mark.parametrize("points", ENCLOSING_CASES)
def test_enclosing_radius_special_cases(points):
    assert_enclosing_circle(points)


def test_circle_through_a_degenerate_triple_is_on_its_farthest_pair():
    # collinear, then with two coincident points
    assert planner._circle_through(0.0, 0.0, 1.0, 1.0, 3.0, 3.0) == (1.5, 1.5, 4.5)
    assert planner._circle_through(2.0, 0.0, 2.0, 0.0, 5.0, 4.0) == (3.5, 2.0, 6.25)


@pytest.mark.parametrize("offset", [(0.0, 0.0), (1e5, -1e5)])
def test_enclosing_radius_matches_brute_force(offset):
    rng = np.random.default_rng(18)
    for n in range(1, 16):
        for _ in range(6):
            assert_enclosing_circle(rng.uniform(-400.0, 400.0, size=(n, 2))
                                    + offset)


def test_enclosing_circle_scales_by_powers_of_two_exactly():
    # the circle of 2^k P is 2^k times the circle of P, to the bit, out
    # to points whose squares leave the double range
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 7, 15):
        for _ in range(4):
            p = rng.uniform(-400.0, 400.0, size=(n, 2)) + rng.uniform(-1e5, 1e5, 2)
            circle = planner._enclosing_circle(p.tolist())
            for k in (-900, -60, -1, 1, 60, 500, 1000):
                scaled = planner._enclosing_circle(np.ldexp(p, k).tolist())
                assert scaled == tuple(math.ldexp(v, k) for v in circle), (n, k)
    assert planner._enclosing_circle([[1e300, 0.0], [-1e300, 0.0]]) == (0.0, 0.0, 1e300)


def plan_without_certificate(monkeypatch, s):
    """``optimize(s)`` with an infinite certificate margin, so that no
    cone verdict comes from the closed form."""
    with monkeypatch.context() as m:
        m.setattr(planner, "_CERT_MARGIN", math.inf)
        return optimize(s)


def budget_ball(s):
    """(centres, radii) of the placements where the UE rate floors fit in
    P_tot: sum_k xi ||x - u_k||^2 <= P_tot is the ball around the UE
    centroid of squared radius (P_tot/xi - sum_k ||u_k - centroid||^2)/K,
    radius 0 when that is not positive (a row with no interior)."""
    if not s.K:
        return [], []
    centroid = s.ues.mean(axis=0)
    r2 = (s.P_tot / s.xi_coeff - np.sum((s.ues - centroid) ** 2)) / s.K
    return [np.append(centroid, 0.0)], [math.sqrt(max(r2, 0.0))]


def plan_bits(sol):
    pl = None if sol.placement is None else sol.placement.lifted.tolist()
    pw = None if sol.powers is None else (
        sol.powers.Pk.tolist(), sol.powers.Pj_hat, sol.powers.Pa)
    # repr tells every float bit pattern apart, and nan equals nan
    return repr((sol.status, sol.message, sol.Rb, sol.trace, sol.iterations,
                 pl, pw))


CONE_REACH = (-1e-3, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 1e-3)


# bases of the 24-scenario corpora, each with K from 0 to 11 UEs
@pytest.mark.parametrize("varpis, bases", [
    pytest.param((0.01, 0.1, 1.0), (1, 2, 3, 9, 15, 22), id="bcd"),
    pytest.param((0.0,), (0, 4, 7, 8, 11, 14), id="cancel"),
])
def test_certificate_agrees_with_the_barrier_at_the_cone_boundary(
        monkeypatch, varpis, bases):
    corpus = benchmark_corpus(max(bases) + 1, varpis)
    cones = str(planner.PlannerInfeasible(*planner._CONES))
    for base in bases:
        s0 = load_scenario(corpus[base]).scenario
        reach = brute_enclosing_radius(s0.ground_nodes)
        for delta in CONE_REACH:
            # cones that reach R * (1 + delta) at H_max
            s = dataclasses.replace(s0, H_max=reach * (1.0 + delta)
                                    * math.tan(s0.budget.phi_min))
            sol, solves = plan_with_barrier(monkeypatch, optimize, s)
            if delta <= -1e-6:
                assert sol.status == "infeasible" and not solves, (base, delta)
            if sol.placement is not None:
                assert max(constraint_residuals(
                    s, sol.placement, sol.powers).values()) <= 1e-8, (base, delta)
            if s.varpi == 0.0:
                # the rows guard and Dinkelbach decide wherever the
                # certificate does not, with the same messages
                ref = plan_without_certificate(monkeypatch, s)
                assert plan_bits(sol) == plan_bits(ref), (base, delta)
                continue
            # BCD's start makes no barrier solve; its cone verdict agrees
            # with the barrier's away from the boundary
            if abs(delta) >= 1e-9:
                anchor = np.append(s.ground_nodes.mean(axis=0),
                                   0.5 * (s.H_min + s.H_max))
                _, slack = solvers.max_slack_point(
                    planner._placement_set(s, *budget_ball(s)), anchor)
                assert (sol.message == cones) == (slack <= 0.0), (base, delta)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e5])
def test_closed_form_start_is_the_max_slack_point(offset):
    # seeded node sets with K = 0..11 UEs, in bands where the cones set
    # the best slack and in bands where the altitude band does; the
    # oracle is the barrier's max-slack point of the same rows
    rng = np.random.default_rng(19)
    base = dataclasses.replace(scenario_with(), P_tot=1e3)
    tan = math.tan(base.budget.phi_min)
    for k in range(12):
        for cones_bind in (True, False):
            nodes = offset * rng.uniform(-1.0, 1.0, size=2) \
                + rng.uniform(-400.0, 400.0, size=(k + 2, 2))
            reach = brute_enclosing_radius(nodes) * tan
            h_max = reach * rng.uniform(1.05, 2.0 if cones_bind else 4.0)
            h_min = (0.1 if cones_bind else 0.9) * h_max
            s = dataclasses.replace(base, ues=nodes[:k], bob=nodes[k],
                                    willie=nodes[k + 1], H_min=h_min, H_max=h_max)
            x, slack = planner._placement_region(s)
            cons = planner._placement_set(s)
            anchor = np.append(nodes.mean(axis=0), 0.5 * (h_min + h_max))
            ref, ref_slack = solvers.max_slack_point(cons, anchor)
            assert slack == pytest.approx(ref_slack, rel=0.0, abs=1e-9 * h_max)
            assert slack == pytest.approx(cons.margin(x).min(), rel=1e-12)
            assert (x[2] > 0.5 * (h_min + h_max)) == cones_bind
            if cones_bind:
                assert_allclose(x, ref, rtol=0.0, atol=1e-6)


# 96-scenario plan-cancel bases whose cones alone clear below H_max, but
# not below the radius of the UE-budget ball (base 58: 335.648 m needed
# against a radius of 335.001 m)
@pytest.mark.parametrize("base", [32, 44, 58, 64, 93])
def test_certificate_covers_the_budget_ball(monkeypatch, base):
    s = load_scenario(benchmark_corpus(base + 1, (0.0,))[base]).scenario
    reach = brute_enclosing_radius(s.ground_nodes) * math.tan(s.budget.phi_min)
    assert max(s.H_min, reach) < s.H_max
    sol, solves = plan_with_barrier(monkeypatch, optimize, s)
    assert not solves
    assert plan_bits(sol) == plan_bits(plan_without_certificate(monkeypatch, s))
    assert sol.message == str(planner.PlannerInfeasible(*planner._FLOORS_IN_CONES))


# 400-scenario plan-cancel base 294: the cones clear below H_max and the
# UE-budget ball's radius, yet the ball misses the cones and the band
CANCEL_400_BASE_294 = {
    "shadowing": "light",
    "satellite": {"fc": {"value": 2.0, "unit": "GHz"},
                  "d": {"value": 500.0, "unit": "km"},
                  "G": {"value": 30.0, "unit": "dBi"}},
    "uav": {"beta0_chi": {"value": -38.5, "unit": "dB"},
            "beta0_kappa": {"value": -60.0, "unit": "dB"},
            "phi_min": {"value": 50.0, "unit": "deg"}},
    "bob": {"value": [-389.10014283297284, -45.388548496065425], "unit": "m"},
    "willie": {"value": [6.1511637403731925, 289.2437238806084], "unit": "m"},
    "ue_placement": {"explicit": {"unit": "m", "value": [
        [-31.485035627976004, -352.7166604481032],
        [316.0144340751307, 49.54520551943614],
        [-57.16741854347845, 130.75173888119332],
        [177.0606763104255, -169.01306410237854],
        [158.42798436596013, -242.36532612891065]]}},
    "noise": {"sigma_kappa2": {"value": -114.0, "unit": "dBm"},
              "sigma_b2": {"value": -104.0, "unit": "dBm"},
              "sigma_w2": {"value": -104.0, "unit": "dBm"}},
    "varpi": 0.0,
    "eps": 0.0021878314865785356,
    "P_tot": {"value": 0.7914499507531361, "unit": "W"},
    "Pa_max": {"value": 10.0, "unit": "W"},
    "H_min": {"value": 50.0, "unit": "m"},
    "H_max": {"value": 500.0, "unit": "m"},
    "R_tg": 7.37756229045502,
    "delta": 1e-06,
    "i_max": 50,
    "rng_seed": 0,
}


def test_cancel_verdict_matches_the_max_slack_oracle():
    # the varpi = 0 planner says "infeasible" exactly when the cones, the
    # altitude band and the UE-budget ball have no common interior point,
    # as the barrier's max-slack point over those rows finds
    scenes = [load_scenario(d).scenario for d in benchmark_corpus(96, (0.0,))]
    scenes.append(load_scenario(CANCEL_400_BASE_294).scenario)
    verdicts = []
    for i, s in enumerate(scenes):
        anchor = np.append(s.ground_nodes.mean(axis=0), 0.5 * (s.H_min + s.H_max))
        _, slack = solvers.max_slack_point(
            planner._placement_set(s, *budget_ball(s)), anchor)
        sol = perfect_cancellation_optimize(s)
        assert (sol.status == "infeasible") == (slack <= 0.0), (i, slack)
        verdicts.append(sol.message)
    floors = str(planner.PlannerInfeasible(*planner._FLOORS_IN_CONES))
    assert verdicts[-1] == floors
    assert "" in verdicts and verdicts.count(floors) >= 2


# 24-scenario corpus bases whose cones and altitude band do not meet
@pytest.mark.parametrize("varpis, base", [
    pytest.param((0.01, 0.1, 1.0), base, id=f"bcd-{base}")
    for base in (4, 6, 7, 19, 20, 21)] + [
    pytest.param((0.0,), base, id=f"cancel-{base}")
    for base in (0, 2, 6, 8, 15, 20, 21, 22, 23)])
def test_cone_verdicts_make_no_barrier_solve(monkeypatch, varpis, base):
    s = load_scenario(benchmark_corpus(base + 1, varpis)[base]).scenario
    sol, solves = plan_with_barrier(monkeypatch, optimize, s)
    assert sol.status == "infeasible"
    assert not solves


def stalled_centring_scenario():
    """A varpi = 0.01 scene with a max-slack centring, at t = 1e10, whose
    Newton decrement stalls near 3.9e-7 while each step passes the line
    search only through its rounding allowance; without the stall exit it
    runs to the 200-step cap."""
    return load_scenario({
        "shadowing": "average",
        "satellite": {"fc": {"value": 2.0, "unit": "GHz"},
                      "d": {"value": 500.0, "unit": "km"},
                      "G": {"value": 30.0, "unit": "dBi"}},
        "uav": {"beta0_chi": {"value": -38.5, "unit": "dB"},
                "beta0_kappa": {"value": -60.0, "unit": "dB"},
                "phi_min": {"value": 50.0, "unit": "deg"}},
        "bob": {"value": [-261.5510521583211, 316.427906670365], "unit": "m"},
        "willie": {"value": [156.0436661640025, 53.33651907052513],
                   "unit": "m"},
        "ue_placement": {"explicit": {"unit": "m", "value": [
            [-318.2259792805517, -203.64037402912302],
            [113.5109162884799, -17.459033355164195],
            [40.57304748243894, 272.6081491852283],
            [269.0905334702105, 343.75898980315856],
            [58.79398327313373, -288.35392417394644]]}},
        "noise": {"sigma_kappa2": {"value": -114.0, "unit": "dBm"},
                  "sigma_b2": {"value": -104.0, "unit": "dBm"},
                  "sigma_w2": {"value": -104.0, "unit": "dBm"}},
        "varpi": 0.01,
        "eps": 0.002270917091816101,
        "P_tot": {"value": 0.1469794176923823, "unit": "W"},
        "Pa_max": {"value": 10.0, "unit": "W"},
        "H_min": {"value": 50.0, "unit": "m"},
        "H_max": {"value": 500.0, "unit": "m"},
        "R_tg": 1.09005472554228,
        "delta": 1e-06,
        "i_max": 50,
        "rng_seed": 0,
    }).scenario


def test_stalled_centring_ends_early(monkeypatch):
    # a centring that only creeps at floating-point resolution ends at
    # once instead of running to the Newton-step cap
    sol, infos = plan_with_barrier(monkeypatch, bcd_optimize,
                                   stalled_centring_scenario())
    assert sol.status == "converged"
    assert sol.Rb == pytest.approx(0.39023270176823177, rel=1e-9)
    assert newton_steps(infos) <= 400


# ---------------------------------------------------------------------------
# warm-started SCA and Dinkelbach rounds


@pytest.mark.parametrize("varpis, base", WARM_CASES)
def test_warm_started_rounds_match_cold_start_loops(monkeypatch, varpis, base):
    # the reference is the planners' own loops with every round started
    # cold; the warm starts must save Newton steps, not change the plan
    s = load_scenario(benchmark_corpus(base + 1, varpis)[base]).scenario
    sol, warm = plan_with_barrier(monkeypatch, optimize, s)
    ref, cold = plan_with_barrier(monkeypatch, optimize, s, cold_barrier)
    assert ref.status == "converged" and len(ref.trace) > 2
    assert sol.status == ref.status
    assert sol.Rb == pytest.approx(ref.Rb, rel=1e-9)
    assert newton_steps(warm) < newton_steps(cold)


@pytest.mark.parametrize("varpis, base", [WARM_CASES[0], WARM_CASES[3]])
@pytest.mark.parametrize("warm", ["not centred", "not interior"])
def test_rounds_without_a_usable_warm_point_start_cold(monkeypatch, varpis,
                                                        base, warm):
    s = load_scenario(benchmark_corpus(base + 1, varpis)[base]).scenario
    ref, _ = plan_with_barrier(monkeypatch, optimize, s, cold_barrier)

    def spoiled(*args, **kwargs):
        x, info = _barrier_maximize(*args, **kwargs)
        # a centring that did not end centred reports no point; a point
        # 1e6 m above H_max is not interior
        info["warm"] = None if warm == "not centred" else x + 1e6
        return x, info

    sol, _ = plan_with_barrier(monkeypatch, optimize, s, spoiled)
    assert (sol.status, sol.Rb, sol.trace) == (ref.status, ref.Rb, ref.trace)
    assert np.array_equal(sol.placement.lifted, ref.placement.lifted)


# plan-cancel corpus scenarios: capped at the start point (4, 9), capped
# after 1 round (14), below the cap (3, 47, 80), and two whose
# closed-form start lies outside the UE-budget ball, where the ratio is
# negative, one below the cap after 4 rounds (180) and one capped after 1
# (219); 47, 80, 180 and 219 search a band that the UE floors lower below
# H_max = 500 m (to 390.6, 470.5, 489.8 and 440.3 m)
OUTSIDE_THE_BALL = (180, 219)


@pytest.mark.parametrize("base, capped", [(4, True), (9, True), (14, True),
                                          (3, False), (47, False), (80, False),
                                          (180, False), (219, True)])
def test_closed_form_start_matches_the_max_slack_start(monkeypatch, base,
                                                       capped):
    s = load_scenario(benchmark_corpus(base + 1, (0.0,))[base]).scenario
    x, _ = planner._placement_region(s)
    # the UE floors at x0 exceed P_tot exactly when f(x0) < 0
    floors = s.xi_coeff * (np.sum((s.ues - x[:2]) ** 2) + s.K * x[2] ** 2)
    assert (floors > s.P_tot) == (base in OUTSIDE_THE_BALL)
    sol = optimize(s)
    with monkeypatch.context() as m:
        max_slack_start(m)
        ref = optimize(s)
    assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
    assert sol.status == "converged"
    assert max(constraint_residuals(s, sol.placement, sol.powers).values()) \
        <= 1e-8
    assert (sol.powers.Pa == s.Pa_max) == capped
    if capped:
        assert sol.Rb == ref.Rb
    else:
        assert sol.Rb == pytest.approx(ref.Rb, rel=1e-9)
    if base in OUTSIDE_THE_BALL:
        # Dinkelbach starts at ratio 0, so the trace starts at rate 0
        assert sol.trace[0] == 0.0


# the elevation cones' slope cot(phi_min) enters the barrier solver to the
# fourth power, so the model puts a floor of 2^-64 rad on phi_min: a
# budget below it (1e-300 rad, or 5.4e-20 rad just below the floor) fails
# at construction, not in the barrier solver, and at the floor the cones
# bind nowhere and each planner plans with no warning
@pytest.mark.parametrize("varpi, rb", [(0.1, 0.31425269563615843),
                                       (0.0, 7.8492332732661625)])
def test_least_elevation_angle_is_the_models(varpi, rb):
    s = scenario_with(varpi, seed=12)
    for phi_min in (1e-300, 5.4e-20):
        with pytest.raises(ValueError) as e:
            dataclasses.replace(s.budget, phi_min=phi_min)
        assert str(e.value) == f"phi_min must be at least 2^-64 rad, got {phi_min}"
    budget = dataclasses.replace(s.budget, phi_min=2.0 ** -64)
    sol = optimize(dataclasses.replace(s, budget=budget))
    assert (sol.status, sol.Rb) == ("converged", rb)


# the stock scene's cones need H_max above 316 m, and BCD's centroid start
# 416 m: at 300 m the closed-form verdict is the cones', and at 400 m both
# planners start at the closed-form max-slack point, which at varpi = 0 is
# strictly inside the cones and the band, and plan
@pytest.mark.parametrize("varpi", [0.1, 0.0])
def test_stock_scene_below_its_cones_and_its_centroid_start(varpi):
    d = default_scenario_dict(varpi, 12)
    d["H_max"]["value"] = 300.0
    s = load_scenario(d).scenario
    with pytest.raises(planner.PlannerInfeasible) as verdict:
        planner._placement_region(s)
    assert str(verdict.value) == str(planner.PlannerInfeasible(*planner._CONES))
    sol = optimize(s)
    assert (sol.status, sol.message) == ("infeasible", str(verdict.value))

    d["H_max"]["value"] = 400.0
    s = load_scenario(d).scenario
    x, slack = planner._placement_region(s)
    assert slack > 0.0
    if varpi:
        assert np.array_equal(planner._initial_placement(s).lifted, x)
    else:
        assert planner._placement_set(s).rows(x)[3]
    sol = optimize(s)
    assert sol.status == "converged"
    assert max(constraint_residuals(s, sol.placement, sol.powers).values()) \
        <= 1e-8


def test_bcd_warm_rounds_on_a_slow_corpus_scenario(monkeypatch):
    # base 15 of the 24-scenario BCD corpus: one UE, three outer rounds;
    # with every SCA round started cold it takes 2,047 Newton steps
    s = load_scenario({
        "shadowing": "light",
        "satellite": {"fc": {"value": 2.0, "unit": "GHz"},
                      "d": {"value": 500.0, "unit": "km"},
                      "G": {"value": 30.0, "unit": "dBi"}},
        "uav": {"beta0_chi": {"value": -38.5, "unit": "dB"},
                "beta0_kappa": {"value": -60.0, "unit": "dB"},
                "phi_min": {"value": 50.0, "unit": "deg"}},
        "bob": {"value": [228.85259632780208, -309.50567507294033], "unit": "m"},
        "willie": {"value": [114.74105031268061, -262.6453154879264],
                   "unit": "m"},
        "ue_placement": {"explicit": {"unit": "m", "value": [
            [439.6089288733381, -244.66134309449473]]}},
        "noise": {"sigma_kappa2": {"value": -114.0, "unit": "dBm"},
                  "sigma_b2": {"value": -104.0, "unit": "dBm"},
                  "sigma_w2": {"value": -104.0, "unit": "dBm"}},
        "varpi": 0.1,
        "eps": 0.05020094784141941,
        "P_tot": {"value": 2.5463196649658513, "unit": "W"},
        "Pa_max": {"value": 10.0, "unit": "W"},
        "H_min": {"value": 50.0, "unit": "m"},
        "H_max": {"value": 500.0, "unit": "m"},
        "R_tg": 7.465232432669362,
        "delta": 1e-06,
        "i_max": 50,
        "rng_seed": 0,
    }).scenario
    sol, infos = plan_with_barrier(monkeypatch, bcd_optimize, s)
    assert sol.status == "converged"
    assert sol.Rb == pytest.approx(0.621797251726282, rel=1e-9)
    assert newton_steps(infos) <= 1000


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


def test_smoke_corpus_plans_cleanly():
    statuses = []
    for d in smoke_corpus():
        s = load_scenario(d).scenario
        sol = optimize(s)
        statuses.append(sol.status)
        if sol.placement is None:
            assert sol.status == "infeasible"
            continue
        res = constraint_residuals(s, sol.placement, sol.powers)
        assert max(res.values()) <= 1e-8, (d, res)
        assert res["covert"] <= 1e-15, (d, res)
    assert statuses.count("infeasible") < len(statuses)


def test_covert_residual_sign_agrees_with_constraint_map(default_scenario,
                                                         bcd_solution):
    # the residual comes from phi (through the DEP bound), the planners'
    # cap Pa <= kappa * Pj_hat / D_w from phi_inverse: phi is strictly
    # increasing, so the two must agree on either side of the cap, drawn
    # within 1% of it
    s, pl = default_scenario, bcd_solution.placement
    d_w = float(np.sum((pl.lifted - np.append(s.willie, 0.0)) ** 2))
    pk = bcd_solution.powers.Pk
    rng = np.random.default_rng(53)
    sides = set()
    for _ in range(1000):
        pj = rng.uniform(0.001, 2.0)
        cap = s.kappa * pj / d_w
        pa = cap * (1.0 + rng.uniform(-0.01, 0.01))
        if abs(pa - cap) <= 1e-12 * cap:
            continue
        res = constraint_residuals(s, pl, PowerAllocation(Pk=pk, Pj_hat=pj, Pa=pa))
        assert (res["covert"] <= 0.0) == (pa <= cap), (pa, pj)
        sides.add(pa <= cap)
    assert sides == {True, False}


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
    assert rep.covert_pass is True


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


def stock_plan(request, name):
    if name == "default":
        return (request.getfixturevalue("default_scenario"),
                request.getfixturevalue("bcd_solution"))
    return (request.getfixturevalue("perfect_scenario"),
            request.getfixturevalue("pc_solution"))


@pytest.mark.parametrize("seed", [0, 9, [2, 12]])
@pytest.mark.parametrize("name", ["default", "default_perfect"])
def test_validate_detection_error_matches_a_first_draw_reference(request, name,
                                                                 seed):
    # the warden's estimate is made from the first fading fill of the
    # generator, so it is the same number whatever Bob's estimate draws
    s, sol = stock_plan(request, name)
    trials = 10_000
    rep = validate_solution(s, sol, trials=trials,
                            rng=np.random.default_rng(seed))
    x = sample_sr_power(s.sr, np.random.default_rng(seed), trials)
    pw = sol.powers
    g_uw = uav_gain(sol.placement, s.willie, s.budget.beta0_chi)
    xi = np.maximum(0.0, 1.0 - pw.Pa * s.sat.ell * x / (pw.Pj_hat * g_uw))
    xi_mc = float(xi.mean())
    xi_se = float(xi.std(ddof=1) / math.sqrt(trials))
    assert rep.xi_mc == xi_mc
    assert rep.xi_stderr == xi_se
    assert rep.covert_pass == (xi_mc >= 1.0 - s.eps - 2.0 * xi_se)


def test_validate_draws_the_fading_once(monkeypatch, default_scenario,
                                        bcd_solution):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sample_sr_power(*args, **kwargs)

    monkeypatch.setattr(planner, "sample_sr_power", counting)
    validate_solution(default_scenario, bcd_solution, trials=1000,
                      rng=np.random.default_rng(4))
    assert len(calls) == 1


class CountingGenerator:
    """A numpy Generator that counts the variates each method draws."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws[name] = self.draws.get(name, 0) + np.size(out)
            return out
        return counted


@pytest.mark.parametrize("name", ["default", "default_perfect"])
def test_validate_draws_jamming_only_when_bob_feels_it(request, name):
    check_jamming_draws(request, name, 5)


@pytest.mark.parametrize("seed", [0, 9, [2, 12]])
@pytest.mark.parametrize("name", ["default", "default_perfect"])
def test_validate_draws_jamming_only_when_bob_feels_it_at_more_seeds(
        request, name, seed):
    check_jamming_draws(request, name, seed)


def check_jamming_draws(request, name, seed):
    # with varpi = 0 the jamming draw, the last one, would only add 0.0 to
    # Bob's noise: the report equals the one made with the draw
    s, sol = stock_plan(request, name)
    trials = 10_000
    rng = CountingGenerator(seed)
    rep = validate_solution(s, sol, trials=trials, rng=rng)
    assert rng.draws.get("uniform", 0) == (trials if s.varpi else 0)
    assert rng.draws["gamma"] == trials
    ref = np.random.default_rng(seed)
    pw = sol.powers
    g_uw = uav_gain(sol.placement, s.willie, s.budget.beta0_chi)
    g_ub = uav_gain(sol.placement, s.bob, s.budget.beta0_chi)
    sig = pw.Pa * s.sat.ell * sample_sr_power(s.sr, ref, trials)
    xi = planner.min_dep(sig, pw.Pj_hat * g_uw)
    pj = ref.uniform(0.0, pw.Pj_hat, trials)
    rate = np.log2(1.0 + sig / (s.varpi * pj * g_ub + s.sigma_b2))
    drawn = planner.ValidationReport(
        trials=trials, xi_mc=float(xi.mean()),
        xi_stderr=float(xi.std(ddof=1) / math.sqrt(trials)),
        rate_mc=float(rate.mean()),
        rate_stderr=float(rate.std(ddof=1) / math.sqrt(trials)),
        covert_pass=rep.covert_pass, rb_deterministic=sol.Rb)
    assert rep == drawn


@pytest.mark.parametrize("name", ["default", "default_perfect"])
def test_validate_rate_agrees_with_independent_fading(request, name):
    # Bob's estimate reuses the warden's fading draws; one made from
    # fading drawn apart estimates the same mean
    s, sol = stock_plan(request, name)
    trials = 40_000
    rep = validate_solution(s, sol, trials=trials,
                            rng=np.random.default_rng(21))
    rng = np.random.default_rng(22)
    pw = sol.powers
    g_ub = uav_gain(sol.placement, s.bob, s.budget.beta0_chi)
    x = sample_sr_power(s.sr, rng, trials)
    pj = rng.uniform(0.0, pw.Pj_hat, trials)
    rate = np.log2(1.0 + pw.Pa * s.sat.ell * x
                   / (s.varpi * pj * g_ub + s.sigma_b2))
    se = float(rate.std(ddof=1) / math.sqrt(trials))
    assert abs(rep.rate_mc - float(rate.mean())) \
        <= 4.0 * math.hypot(rep.rate_stderr, se)


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


def test_validate_takes_an_integer_trial_count(default_scenario,
                                               bcd_solution):
    with pytest.raises(ValueError, match="trials"):
        validate_solution(default_scenario, bcd_solution, trials=10000.0)
    rep = validate_solution(default_scenario, bcd_solution,
                            trials=np.int64(100), rng=np.random.default_rng(3))
    assert type(rep.trials) is int
    assert rep == validate_solution(default_scenario, bcd_solution,
                                    trials=100, rng=np.random.default_rng(3))


@pytest.mark.parametrize("n", [2, 3, 8, 9, 129, 8193, 100_003])
def test_mc_estimate_has_numpys_bits(n):
    x = np.random.default_rng(n).lognormal(0.0, 2.0, n)
    want = (float(x.mean()), float(x.std(ddof=1) / math.sqrt(n)))
    assert planner._mc_estimate(x.copy()) == want


@pytest.mark.parametrize("name", ["default", "default_perfect"])
def test_monte_carlo_passes_hold_three_fills(request, name):
    # the sampler and the validation work in place on the generator's
    # three fills: at their peak they hold no other array of draws
    s, sol = stock_plan(request, name)
    trials = 100_000
    passes = {
        "sample": lambda: sample_sr_power(s.sr, np.random.default_rng(1),
                                          trials),
        "validate": lambda: validate_solution(
            s, sol, trials=trials, rng=np.random.default_rng(1)),
    }
    for what, run in passes.items():
        run()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.15 * 8 * trials, (what, peak / (8 * trials))


# ---------------------------------------------------------------------------
# scenario plumbing used by the planner


def test_scenario_gamma_follows_sr(default_scenario):
    # the surrogate is derived from sr, never carried over from a copy
    heavy = dataclasses.replace(default_scenario, sr=SHADOWING_ROWS["heavy"])
    assert heavy.gamma == gamma_from_sr(SHADOWING_ROWS["heavy"])
    assert heavy.gamma != default_scenario.gamma
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(default_scenario, gamma=heavy.gamma)


def test_scenario_kappa_follows_eps(default_scenario, bcd_solution):
    s = default_scenario
    loose = dataclasses.replace(s, eps=2.0 * s.eps)
    assert loose.kappa / s.kappa == pytest.approx(
        phi_inverse(loose.eps, s.gamma) / phi_inverse(s.eps, s.gamma),
        rel=1e-14)
    assert loose.kappa > s.kappa
    # kappa is derived at construction, never carried over from a copy
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(s, kappa=loose.kappa)
    # kappa is the covertness cap Pa <= kappa * Pj_hat / D_w, binding at
    # the uncapped stock plan
    pl, pw = bcd_solution.placement, bcd_solution.powers
    d_w = float(np.sum((pl.lifted - np.append(s.willie, 0.0)) ** 2))
    assert pw.Pa < s.Pa_max
    assert pw.Pa == pytest.approx(s.kappa * pw.Pj_hat / d_w, rel=1e-12)


def test_residuals_flag_violations(default_scenario, bcd_solution):
    s, sol = default_scenario, bcd_solution
    res = constraint_residuals(s, sol.placement, sol.powers)
    assert set(res) == {"covert", "ue_rate", "total_power", "pa_max",
                        "altitude", "elevation"}
    # pushing Pa up by 10x must blow the covertness residual positive
    loud = PowerAllocation(Pk=sol.powers.Pk, Pj_hat=sol.powers.Pj_hat,
                           Pa=10.0 * sol.powers.Pa)
    assert constraint_residuals(s, sol.placement, loud)["covert"] > 0.0
    # sinking the UAV below the band flags altitude and elevation
    low = UavPlacement(q=sol.placement.q, H=10.0)
    res_low = constraint_residuals(s, low, sol.powers)
    assert res_low["altitude"] > 0.0
    assert res_low["elevation"] > 0.0


@pytest.mark.parametrize("varpi", [0.1, 0.0])
@pytest.mark.parametrize("p_tot", [1e307, 1.7976931348623157e308])
def test_residual_audit_of_a_budget_near_the_top_of_the_doubles(varpi, p_tot):
    # at varpi = 0.1 the budget the jamming cap leaves unspent goes to
    # UE 0, whose rate then passes the doubles: inf, with no warning; at
    # varpi = 0 all of it jams
    s = dataclasses.replace(scenario_with(varpi, seed=12), P_tot=p_tot)
    sol = optimize(s)
    assert sol.status == "converged"
    res = constraint_residuals(s, sol.placement, sol.powers)
    assert max(res.values()) <= 1e-8


# ---------------------------------------------------------------------------
# the model objects' own input checks (the scenario reader rejects
# non-finite numbers first, so only a direct construction reaches these)


SCENARIO_FLOATS = [f.name for f in dataclasses.fields(planner.Scenario)
                   if f.init and f.type == "float"]


def test_scenario_float_fields_are_listed():
    assert SCENARIO_FLOATS == ["sigma_kappa2", "sigma_b2", "sigma_w2", "varpi",
                               "eps", "P_tot", "Pa_max", "H_min", "H_max",
                               "R_tg", "delta"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", SCENARIO_FLOATS)
def test_scenario_rejects_a_non_finite_number(default_scenario, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        dataclasses.replace(default_scenario, **{name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["bob", "willie", "ues"])
def test_scenario_rejects_a_non_finite_position(default_scenario, name, bad):
    value = np.array(getattr(default_scenario, name))
    value.flat[-1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        dataclasses.replace(default_scenario, **{name: value})


def test_scenario_derives_its_coefficients_once(default_scenario):
    s = default_scenario
    assert s.xi_coeff == ((2.0 ** s.R_tg - 1.0) * s.sigma_kappa2
                          / s.budget.beta0_kappa)
    assert s.kappa == (phi_inverse(s.eps, s.gamma) * s.budget.beta0_chi
                       / (s.gamma.theta * s.sat.ell))
    t = dataclasses.replace(s, R_tg=2.0 * s.R_tg)
    assert t.xi_coeff > s.xi_coeff and t.kappa == s.kappa


@pytest.mark.parametrize("changes,name", [
    (lambda s: {"R_tg": 2000.0}, "xi_coeff"),  # 2^R_tg overflows
    (lambda s: {"R_tg": 1e-300}, "xi_coeff"),  # 2^R_tg - 1 rounds to 0
    (lambda s: {"eps": 1e-300, "budget": dataclasses.replace(
        s.budget, beta0_chi=1e-300)}, "kappa"),  # underflows to 0
])
def test_scenario_rejects_a_coefficient_outside_the_doubles(default_scenario,
                                                            changes, name):
    with pytest.raises(ValueError, match=f"^{name} = .* must be a positive "
                                         "double, got"):
        dataclasses.replace(default_scenario, **changes(default_scenario))


def power_split(field, value):
    """A valid allocation with ``field`` set to ``value`` (Pk's last
    entry for Pk)."""
    kw = {"Pk": np.array([0.5, 0.25]), "Pj_hat": 1.0, "Pa": 2.0}
    if field == "Pk":
        kw["Pk"][-1] = value
    else:
        kw[field] = value
    return PowerAllocation(**kw)


@pytest.mark.parametrize("bad", [-1e-6, -1e-13, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["Pk", "Pj_hat", "Pa"])
def test_power_allocation_rejects_negative_and_non_finite(field, bad):
    name = "UE powers" if field == "Pk" else field
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
        power_split(field, bad)


@pytest.mark.parametrize("field", ["Pk", "Pj_hat", "Pa"])
def test_power_allocation_accepts_negative_zero(field):
    pw = power_split(field, -0.0)
    assert (pw.Pk[-1] if field == "Pk" else getattr(pw, field)) == 0.0


def test_power_allocation_copies_the_ue_powers():
    pk = np.array([0.5, 0.25])
    pw = PowerAllocation(Pk=pk, Pj_hat=1.0, Pa=2.0)
    pk[0] = 7.0
    assert pw.Pk.tolist() == [0.5, 0.25]
    assert PowerAllocation(Pk=[], Pj_hat=0.0, Pa=0.0).Pk.shape == (0,)


# ---------------------------------------------------------------------------
# the result records: NamedTuples, as immutable as the frozen dataclasses
# they replaced


@pytest.mark.parametrize("record", [
    pytest.param(cls, id=cls.__name__) for cls in (
        CovertBound, Solution, ValidationReport, LoadedScenario,
        DinkelbachResult)])
def test_result_records_are_immutable(record):
    r = record._make([0.0] * len(record._fields))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, 1.0)
