"""Placement and power planning for the UAV relay/jammer.

The UAV serves K ground UEs, jams the warden to protect a covert satellite
downlink to Bob, and must be placed (ground position q, altitude H) and
powered (per-UE powers Pk, peak jamming power Pj_hat, satellite power Pa) to
maximize Bob's covert rate subject to:

- covertness: the fading-averaged minimum detection error at the warden stays
  above 1 - eps, enforced through the closed-form bound (a ball around the
  warden in placement space, a linear cap on Pa in power space);
- per-UE rate targets (balls around each UE once powers are fixed, linear
  power floors once the placement is fixed);
- the UAV power budget, the satellite power cap, minimum-elevation cones to
  every ground node, and altitude limits.

Two solution paths are provided. ``bcd_optimize`` alternates a placement
step (maximize distance to Bob, a convex objective handled by successive
linearization over the second-order-cone feasible set) with a power step (a
linear-fractional program whose optimum is explicit: UE floors, then
jamming up to the satellite cap). ``perfect_cancellation_optimize`` covers
the case where Bob strips the jamming entirely (varpi = 0): the rate then
depends on the placement only through the covertness ceiling on Pa, a
ratio of a concave to a convex quadratic maximized exactly by Dinkelbach
iteration, after which the power split follows in closed form.

Both paths hand the solvers one stacked constraint over the lifted
placement (q, H): a row per elevation cone, two half-space rows for the
altitude band, and a row per ball (UE rate, covertness, or the UE power
budget ball of the varpi = 0 path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    GammaApprox,
    SatelliteLink,
    SRParams,
    UavLinkBudget,
    UavPlacement,
    covert_rate,
    gamma_from_sr,
    sample_sr_power,
    uav_gain,
    ue_rate,
)
from .detection import covert_constraint_satisfied, phi_inverse
from .solvers import (
    ConeConstraint,
    QuadraticObjective,
    _barrier_maximize,
    dinkelbach,
    max_slack_point,
)

__all__ = [
    "PlannerInfeasible",
    "Scenario",
    "PowerAllocation",
    "Solution",
    "ValidationReport",
    "bob_rate",
    "constraint_residuals",
    "placement_subproblem",
    "power_subproblem",
    "bcd_optimize",
    "perfect_cancellation_optimize",
    "validate_solution",
]


class PlannerInfeasible(RuntimeError):
    """Raised when a subproblem's constraint set is empty; names the culprit."""

    def __init__(self, constraint: str, detail: str = ""):
        super().__init__(f"infeasible: {constraint}" + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class Scenario:
    """Complete problem instance in SI units.

    ``sr`` is the satellite fading law and ``gamma`` its two-moment
    surrogate, derived from ``sr``; ``sat`` is the satellite large-scale
    link, ``budget`` the UAV reference gains and minimum elevation angle.
    Positions are ground-plane coordinates in meters; ``willie`` is the
    warden. ``varpi`` is the fraction of the jamming power Bob cannot
    cancel.
    """

    sr: SRParams
    gamma: GammaApprox = field(init=False)
    sat: SatelliteLink
    budget: UavLinkBudget
    bob: np.ndarray
    willie: np.ndarray
    ues: np.ndarray            # (K, 2), possibly K = 0
    sigma_kappa2: float
    sigma_b2: float
    sigma_w2: float
    varpi: float
    eps: float
    P_tot: float
    Pa_max: float
    H_min: float
    H_max: float
    R_tg: float
    delta: float = 1e-6
    i_max: int = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", gamma_from_sr(self.sr))
        object.__setattr__(self, "bob", np.asarray(self.bob, dtype=float).reshape(2))
        object.__setattr__(self, "willie", np.asarray(self.willie, dtype=float).reshape(2))
        ues = np.asarray(self.ues, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "ues", ues)
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"eps must be in (0, 0.5), got {self.eps}")
        if not 0.0 < self.H_min < self.H_max:
            raise ValueError("need 0 < H_min < H_max")
        if self.P_tot <= 0.0 or self.Pa_max <= 0.0:
            raise ValueError("P_tot and Pa_max must be positive")
        if not 0.0 <= self.varpi <= 1.0:
            raise ValueError(f"varpi must be in [0, 1], got {self.varpi}")
        for name in ("sigma_kappa2", "sigma_b2", "sigma_w2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.R_tg <= 0.0:
            raise ValueError("R_tg must be positive")
        if self.delta <= 0.0 or self.i_max < 1:
            raise ValueError("need delta > 0 and i_max >= 1")

    @property
    def K(self) -> int:
        return self.ues.shape[0]

    @property
    def xi_coeff(self) -> float:
        """Minimum UE service power per squared 3D distance, W/m^2."""
        return (2.0 ** self.R_tg - 1.0) * self.sigma_kappa2 / self.budget.beta0_kappa

    @property
    def ground_nodes(self) -> np.ndarray:
        """All nodes the UAV must see above the elevation mask: UEs, Bob, warden."""
        return np.vstack([self.ues, self.bob[None, :], self.willie[None, :]])


@dataclass(frozen=True)
class PowerAllocation:
    """UE service powers, peak jamming power, and satellite power (W)."""

    Pk: np.ndarray
    Pj_hat: float
    Pa: float

    def __post_init__(self) -> None:
        pk = np.asarray(self.Pk, dtype=float).ravel()
        # rounding on an active bound (e.g. UE floors that use the whole
        # budget) can leave harmless -1e-18 dust
        pk = np.where((pk < 0.0) & (pk > -1e-12), 0.0, pk)
        object.__setattr__(self, "Pk", pk)
        for name in ("Pj_hat", "Pa"):
            v = getattr(self, name)
            if -1e-12 < v < 0.0:
                object.__setattr__(self, name, 0.0)
            elif v < 0.0 or not np.isfinite(v):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if np.any(self.Pk < 0.0) or not np.all(np.isfinite(self.Pk)):
            raise ValueError("UE powers must be finite and nonnegative")

    @property
    def total(self) -> float:
        """UAV-side power draw: jamming peak plus all UE service powers."""
        return float(self.Pj_hat + self.Pk.sum())


@dataclass(frozen=True)
class Solution:
    """Planner output; ``trace`` holds Bob's rate after each outer iteration."""

    placement: UavPlacement | None
    powers: PowerAllocation | None
    Rb: float
    trace: list
    status: str  # converged | iteration-capped | infeasible
    message: str = ""


def _lift(point2d) -> np.ndarray:
    p = np.asarray(point2d, dtype=float).reshape(2)
    return np.array([p[0], p[1], 0.0])


def bob_rate(s: Scenario, pl: UavPlacement, powers: PowerAllocation) -> float:
    """Bob's rate at mean satellite fading under peak residual jamming."""
    g_ub = uav_gain(pl, s.bob, s.budget.beta0_chi)
    g_ab = s.sat.ell * s.sr.mean_power
    return covert_rate(powers.Pa, g_ab, s.varpi, powers.Pj_hat, g_ub, s.sigma_b2)


def constraint_residuals(s: Scenario, pl: UavPlacement, powers: PowerAllocation) -> dict:
    """Signed constraint residuals; every value <= 0 means satisfied.

    Keys: ``covert`` (detection-bound slack deficit, in eps units),
    ``ue_rate`` (worst rate shortfall, bps/Hz), ``total_power`` (W),
    ``pa_range`` (W), ``altitude`` (m), ``elevation`` (m), ``nonneg`` (W).
    """
    g_uw = uav_gain(pl, s.willie, s.budget.beta0_chi)
    _, slack = covert_constraint_satisfied(
        powers.Pa, powers.Pj_hat, g_uw, s.sat.ell, s.eps, s.gamma)
    res = {"covert": -slack}
    if s.K:
        rates = np.array([
            ue_rate(pk, uav_gain(pl, u, s.budget.beta0_kappa), s.sigma_kappa2)
            for pk, u in zip(powers.Pk, s.ues)
        ])
        res["ue_rate"] = float(np.max(s.R_tg - rates))
    else:
        res["ue_rate"] = -np.inf
    res["total_power"] = powers.total - s.P_tot
    res["pa_range"] = max(-powers.Pa, powers.Pa - s.Pa_max)
    res["altitude"] = max(s.H_min - pl.H, pl.H - s.H_max)
    reach = pl.H / math.tan(s.budget.phi_min)
    dists = np.linalg.norm(s.ground_nodes - pl.q[None, :], axis=1)
    res["elevation"] = float(np.max(dists) - reach)
    res["nonneg"] = float(max(-powers.Pj_hat,
                              -np.min(powers.Pk) if s.K else -np.inf))
    return res


# ---------------------------------------------------------------------------
# placement geometry

_SCA_TOL = 1e-6  # m^2: the placement step stops below this gain
_SCA_MAX = 30


def _placement_set(s: Scenario, centers=(), radii=()) -> ConeConstraint:
    """Rows over the lifted placement x = (q, H): one elevation cone per
    ground node (||q - node|| <= H / tan(phi_min)), the altitude band
    H_min <= H <= H_max, then one ball ||x - center|| <= radius per
    center."""
    nodes = s.ground_nodes
    nc, nb = len(nodes), len(radii)
    A = np.zeros((nc + 2 + nb, 3, 3))
    b = np.zeros((nc + 2 + nb, 3))
    c = np.zeros((nc + 2 + nb, 3))
    d = np.zeros(nc + 2 + nb)
    A[:nc] = np.diag([1.0, 1.0, 0.0])
    b[:nc, :2] = nodes
    c[:nc, 2] = 1.0 / math.tan(s.budget.phi_min)
    c[nc:nc + 2, 2] = (1.0, -1.0)
    d[nc:nc + 2] = (-s.H_min, s.H_max)
    A[nc + 2:] = np.eye(3)
    b[nc + 2:] = np.reshape(centers, (nb, 3))
    d[nc + 2:] = radii
    return ConeConstraint(A, b, c, d)


def _placement_constraints(s: Scenario, powers: PowerAllocation) -> ConeConstraint:
    """Feasible placements at fixed powers: cones, altitude band, UE-rate
    balls (radius sqrt(Pk/Xi) around each lifted UE), and the covertness
    ball around the lifted warden."""
    centers = [_lift(u) for u in s.ues]
    radii = [math.sqrt(max(pk, 0.0) / s.xi_coeff) for pk in powers.Pk]
    if powers.Pa > 0.0:
        cap = (powers.Pj_hat * s.budget.beta0_chi * phi_inverse(s.eps, s.gamma)
               / (s.gamma.theta * s.sat.ell * powers.Pa))
        centers.append(_lift(s.willie))
        radii.append(math.sqrt(max(cap, 0.0)))
    return _placement_set(s, centers, radii)


def placement_subproblem(s: Scenario, powers: PowerAllocation, q0: UavPlacement,
                         sca_max: int = _SCA_MAX) -> UavPlacement:
    """Move the UAV as far from Bob as the current powers allow.

    Maximizes the convex objective ||x - bob_lifted||^2 over the SOC
    feasible set by successive linearization: each round maximizes the
    touching linear minorant (exact first-order expansion at the incumbent)
    with the log-barrier solver, which can only increase the true objective.
    Stops when the gain drops below ``_SCA_TOL`` (m^2) or after ``sca_max``
    rounds.

    The incumbent typically sits exactly on the covertness and UE-rate ball
    boundaries right after a power step, so the start point is nudged to a
    max-slack interior point first; if the feasible set has no interior the
    placement cannot move and q0 is returned unchanged.

    Every round restarts the barrier solver from this start point (the
    incumbent, or the max-slack point it was nudged to), not from the
    previous round's optimum: that optimum sits about 1e-9 from the
    boundary, where the first centring would spend its Newton steps
    dragging it back inside. Only the linearization point moves.
    """
    cons = _placement_constraints(s, powers)
    x0 = q0.lifted
    margins = cons.margin(x0)
    worst = margins.min()
    if worst < -1e-8:
        raise PlannerInfeasible("placement start",
                                f"constraint {margins.argmin()} margin {worst:.3e}")
    b_bar = _lift(s.bob)

    def true_obj(x):
        return float(np.sum((x - b_bar) ** 2))

    start_val = true_obj(x0)
    if worst <= 1e-7:
        x_int, slack = max_slack_point(cons, x0)
        if slack <= 1e-9:
            return q0  # boundary point with no interior: nothing can move
        x0 = x_int
    x = x0
    val = true_obj(x)
    for _ in range(sca_max):
        grad = 2.0 * (x - b_bar)
        grad /= np.linalg.norm(grad)  # unit objective: tolerances in meters
        y, _ = _barrier_maximize(QuadraticObjective(grad), cons, x0, tol=1e-7)
        new_val = true_obj(y)
        improvement = new_val - val
        if new_val > val:
            x, val = y, new_val
        if improvement < _SCA_TOL:
            break
    if val <= start_val:
        return q0
    return UavPlacement(q=x[:2], H=float(x[2]))


# ---------------------------------------------------------------------------
# power subproblem (linear-fractional, solved in closed form)


def _power_terms(s: Scenario, pl: UavPlacement):
    """UE rate floors (W) and the covertness cap ups = Pa/Pj_hat at ``pl``."""
    d2 = np.array([float(np.sum((pl.q - u) ** 2)) + pl.H ** 2 for u in s.ues])
    g_uw = uav_gain(pl, s.willie, s.budget.beta0_chi)
    ups = phi_inverse(s.eps, s.gamma) * g_uw / (s.gamma.theta * s.sat.ell)
    return s.xi_coeff * d2, ups


def power_subproblem(s: Scenario, pl: UavPlacement) -> PowerAllocation:
    """Optimal powers at a fixed placement.

    Bob's SINR Pa*g_ab / (varpi*g_ub*Pj_hat + sigma_b2) is linear-fractional
    in the powers, maximized subject to

        Pa <= ups * Pj_hat                (covertness cap)
        Pk >= xi * d_k^2                  (UE rate floors)
        sum Pk + Pj_hat <= P_tot          (UAV budget)
        Pa <= Pa_max                      (satellite cap)

    with ups = Phi_inverse(eps)*g_uw/(theta*ell_aw). The optimum is
    explicit: UE powers sit at their floors, Pj_hat = min(P_tot - sum
    floors, Pa_max/ups) and Pa = ups*Pj_hat (kept <= Pa_max against
    rounding). Below the satellite cap the SINR
    ups*Pj/(varpi*g_ub*Pj + sigma_b2) grows with Pj_hat, so the whole
    remaining budget jams; at the cap more jamming cannot help Bob, and the
    unspent budget is credited to UE 0 (it raises that UE's rate above its
    floor and changes nothing else). Raises PlannerInfeasible when the UE
    rate floors exceed the budget at this placement.
    """
    floors, ups = _power_terms(s, pl)
    prem = s.P_tot - floors.sum()
    if prem < 0.0:
        raise PlannerInfeasible(
            "ue-rate power floors",
            f"need {floors.sum():.6g} W of {s.P_tot:.6g} W at this placement")
    pj = min(prem, s.Pa_max / ups)
    if s.K:
        floors[0] += prem - pj
    return PowerAllocation(Pk=floors, Pj_hat=pj, Pa=min(ups * pj, s.Pa_max))


# ---------------------------------------------------------------------------
# block coordinate descent


def _initial_placement(s: Scenario) -> UavPlacement:
    """Centroid of all ground nodes at the lowest altitude clearing the cones."""
    nodes = s.ground_nodes
    centroid = nodes.mean(axis=0)
    maxdist = float(np.max(np.linalg.norm(nodes - centroid[None, :], axis=1)))
    h_need = math.tan(s.budget.phi_min) * maxdist
    h0 = max(s.H_min, h_need)
    if h0 <= s.H_max:
        return UavPlacement(q=centroid, H=h0)
    # centroid cannot clear the cones below H_max: find any interior placement
    anchor = np.array([centroid[0], centroid[1], 0.5 * (s.H_min + s.H_max)])
    x, slack = max_slack_point(_placement_set(s), anchor)
    if slack <= 0.0:
        raise PlannerInfeasible(
            "elevation cones", "no altitude in range sees every ground node")
    return UavPlacement(q=x[:2], H=float(x[2]))


def _initial_powers(s: Scenario, pl: UavPlacement) -> PowerAllocation:
    """UE floors at the placement, all residual power to jamming, Pa at its cap."""
    pk, ups = _power_terms(s, pl)
    pj = s.P_tot - pk.sum()
    if pj < 0.0:
        raise PlannerInfeasible(
            "ue-rate power floors",
            f"need {pk.sum():.6g} W of {s.P_tot:.6g} W at the initial placement")
    pa = min(pj * ups, s.Pa_max)
    return PowerAllocation(Pk=pk, Pj_hat=pj, Pa=pa)


def bcd_optimize(s: Scenario, single_sca_iterate: bool = False) -> Solution:
    """Alternate placement and power steps until Bob's rate settles.

    Starts at the ground-node centroid with UE powers at their rate floors,
    the residual as jamming, and Pa at its covertness cap. Each outer
    iteration runs the placement step (kept only when it does not reduce
    Bob's rate at the current powers, which makes the rate trace
    nondecreasing by construction) and then the exact power step. Stops
    when the rate changes by less than ``s.delta`` or after
    ``s.i_max`` iterations.
    """
    try:
        pl = _initial_placement(s)
        powers = _initial_powers(s, pl)
    except PlannerInfeasible as e:
        return Solution(None, None, math.nan, [], "infeasible", str(e))

    rb = bob_rate(s, pl, powers)
    trace = [rb]
    status = "iteration-capped"
    sca_max = 1 if single_sca_iterate else _SCA_MAX
    for _ in range(s.i_max):
        try:
            pl_new = placement_subproblem(s, powers, pl, sca_max)
        except PlannerInfeasible as e:
            return Solution(None, None, math.nan, trace, "infeasible", str(e))
        if bob_rate(s, pl_new, powers) > bob_rate(s, pl, powers):
            pl = pl_new
        try:
            powers = power_subproblem(s, pl)
        except PlannerInfeasible as e:
            return Solution(None, None, math.nan, trace, "infeasible", str(e))
        rb_new = bob_rate(s, pl, powers)
        trace.append(rb_new)
        if abs(rb_new - rb) < s.delta:
            rb = rb_new
            status = "converged"
            break
        rb = rb_new
    return Solution(pl, powers, rb, trace, status)


# ---------------------------------------------------------------------------
# perfect cancellation (varpi = 0): Dinkelbach over the placement


def perfect_cancellation_optimize(s: Scenario) -> Solution:
    """Exact planner for varpi = 0.

    With the jamming fully cancelled at Bob, the rate grows with Pa alone,
    and the binding structure is known: every UE gets exactly its rate
    floor, all remaining UAV power jams, and Pa sits at its covertness cap.
    The cap as a function of the lifted placement x is the ratio

        f(x)/g(x) = (P_tot - xi * sum_k ||x-u_k||^2) * Phi_inv * beta0_chi
                    / (theta * ell_aw * ||x - w||^2),

    concave over convex positive, maximized by Dinkelbach iteration over
    the cones, the altitude band, and the ball where the numerator stays
    nonnegative. Powers then follow in closed form and Pa is clamped at
    Pa_max. Since Bob's rate then depends on nothing but Pa, the iteration
    stops once the ratio reaches Pa_max: later rounds would only move the
    placement within a tie for the best rate, so a capped plan may sit at
    a different placement with the same rate.
    """
    if s.varpi != 0.0:
        raise ValueError("perfect_cancellation_optimize requires varpi = 0")
    phi_inv = phi_inverse(s.eps, s.gamma)
    xi = s.xi_coeff
    centers = np.array([_lift(u) for u in s.ues]).reshape(-1, 3)
    ball = ((), ())
    if s.K:
        centroid = centers.mean(axis=0)
        spread = float(np.sum((centers - centroid[None, :]) ** 2))
        r2 = (s.P_tot / xi - spread) / s.K
        if r2 <= 0.0:
            return Solution(None, None, math.nan, [], "infeasible",
                            "ue-rate power floors exceed the budget everywhere")
        ball = ([centroid], [math.sqrt(r2)])
    cons = _placement_set(s, *ball)

    anchor = np.append(s.ground_nodes.mean(axis=0), 0.5 * (s.H_min + s.H_max))
    x0, slack = max_slack_point(cons, anchor)
    if slack <= 0.0:
        return Solution(None, None, math.nan, [], "infeasible",
                        "no placement satisfies cones, altitude, and power budget")

    # scale f and g so g(x0) = 1; the ratio (and lam) is unchanged but the
    # Dinkelbach residual f - lam*g then lives in watts, matching delta
    w_bar = _lift(s.willie)
    g_raw = s.gamma.theta * s.sat.ell
    scale = 1.0 / (g_raw * float(np.sum((x0 - w_bar) ** 2)))
    f_obj = QuadraticObjective(np.zeros(3),
                               const=s.P_tot * phi_inv * s.budget.beta0_chi * scale,
                               w=np.full(s.K, -xi * phi_inv * s.budget.beta0_chi * scale),
                               u=centers)
    g_obj = QuadraticObjective(np.zeros(3), w=[g_raw * scale], u=w_bar[None, :])
    res = dinkelbach(f_obj, g_obj, cons, x0,
                     delta=s.delta, i_max=s.i_max, lam_max=s.Pa_max)

    pl = UavPlacement(q=res.x[:2], H=float(res.x[2]))
    d2 = np.array([float(np.sum((pl.q - u) ** 2)) + pl.H ** 2 for u in s.ues])
    pk = xi * d2
    pj = s.P_tot - pk.sum()
    pa = min(res.lam, s.Pa_max)
    powers = PowerAllocation(Pk=pk, Pj_hat=pj, Pa=pa)
    g_ab = s.sat.ell * s.sr.mean_power
    trace = [covert_rate(min(l, s.Pa_max), g_ab, 0.0, pj, 1.0, s.sigma_b2)
             for l in res.lam_trace]
    rb = bob_rate(s, pl, powers)
    return Solution(pl, powers, rb, trace,
                    "converged" if res.converged else "iteration-capped")


# ---------------------------------------------------------------------------
# Monte Carlo validation


@dataclass(frozen=True)
class ValidationReport:
    """Monte Carlo check of a solution's covertness and rate claims."""

    trials: int
    xi_mc: float
    xi_stderr: float
    rate_mc: float
    rate_stderr: float
    covert_pass: bool
    rb_deterministic: float

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "xi_mc": self.xi_mc,
            "xi_stderr": self.xi_stderr,
            "rate_mc": self.rate_mc,
            "rate_stderr": self.rate_stderr,
            "covert_pass": self.covert_pass,
            "rb_deterministic": self.rb_deterministic,
        }


def validate_solution(s: Scenario, sol: Solution, trials: int = 10_000,
                      rng: np.random.Generator | None = None) -> ValidationReport:
    """Monte Carlo validation of a feasible solution.

    Draws satellite fading realizations to estimate (a) the warden's
    fading-averaged minimum detection error under the solution's powers and
    placement, and (b) Bob's mean rate with the jamming power drawn uniform
    on [0, Pj_hat] per slot. The covertness verdict requires the estimate
    to clear 1 - eps minus two standard errors, so at least 2 trials are
    needed.
    """
    if sol.placement is None or sol.powers is None:
        raise ValueError("cannot validate an infeasible solution")
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if rng is None:
        rng = np.random.default_rng(0)
    pl, pw = sol.placement, sol.powers
    g_uw = uav_gain(pl, s.willie, s.budget.beta0_chi)
    g_ub = uav_gain(pl, s.bob, s.budget.beta0_chi)

    fade_w = sample_sr_power(s.sr, rng, trials)
    sig = pw.Pa * s.sat.ell * fade_w
    jam = pw.Pj_hat * g_uw
    if jam == 0.0:
        xi = np.where(sig > 0.0, 0.0, 1.0)
    else:
        xi = np.maximum(0.0, 1.0 - sig / jam)
    xi_mc = float(xi.mean())
    xi_se = float(xi.std(ddof=1) / math.sqrt(trials))

    fade_b = sample_sr_power(s.sr, rng, trials)
    pj = rng.uniform(0.0, pw.Pj_hat, trials)
    rate = np.log2(1.0 + pw.Pa * s.sat.ell * fade_b
                   / (s.varpi * pj * g_ub + s.sigma_b2))
    rate_mc = float(rate.mean())
    rate_se = float(rate.std(ddof=1) / math.sqrt(trials))

    return ValidationReport(
        trials=trials,
        xi_mc=xi_mc,
        xi_stderr=xi_se,
        rate_mc=rate_mc,
        rate_stderr=rate_se,
        covert_pass=bool(xi_mc >= 1.0 - s.eps - 2.0 * xi_se),
        rb_deterministic=sol.Rb,
    )
