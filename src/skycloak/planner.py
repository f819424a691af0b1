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
``optimize`` picks the path for a scenario.

Both paths hand the solvers one stacked constraint over the lifted
placement (q, H): a row per elevation cone, one slab row for the
altitude band, and, in the BCD placement step, a row per UE-rate or
covertness ball.

Every ground node sits at height 0, so ``_placement_region`` gives both
paths one closed-form start, the max-slack (Chebyshev) point of the
cones and the altitude band, and decides without a solve the verdicts
that the smallest circle around the nodes proves "infeasible".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

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
from .detection import avg_min_dep_lower_bound, min_dep, phi_inverse
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
    "constraint_residuals",
    "power_subproblem",
    "bcd_optimize",
    "perfect_cancellation_optimize",
    "optimize",
    "validate_solution",
]


class PlannerInfeasible(RuntimeError):
    """Raised when a subproblem's constraint set is empty; names the culprit."""

    def __init__(self, constraint: str, detail: str = ""):
        super().__init__(f"infeasible: {constraint}" + (f" ({detail})" if detail else ""))


def _check_eps(eps: float) -> None:
    """Raise ValueError unless the covertness level eps is in (0, 0.5)."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 0.5), got {eps}")


@dataclass(frozen=True)
class Scenario:
    """Complete problem instance in SI units.

    ``sr`` is the satellite fading law and ``gamma`` its two-moment
    surrogate, derived from ``sr``; ``sat`` is the satellite large-scale
    link, ``budget`` the UAV reference gains and minimum elevation angle.
    Positions are ground-plane coordinates in meters; ``willie`` is the
    warden. ``varpi`` is the fraction of the jamming power Bob cannot
    cancel.

    ``kappa`` is the covertness cap coefficient, m^2: Pa <= kappa *
    Pj_hat / D_w with D_w the squared 3D UAV-warden distance.
    ``xi_coeff`` is the minimum UE service power per squared 3D distance,
    W/m^2. Like ``gamma`` both are derived once, at construction, so a
    copy made by ``dataclasses.replace`` derives them afresh; either one
    outside the positive doubles raises ValueError.
    """

    sr: SRParams
    gamma: GammaApprox = field(init=False)
    kappa: float = field(init=False)
    xi_coeff: float = field(init=False)
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
    delta: float
    i_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", gamma_from_sr(self.sr))
        object.__setattr__(self, "bob", np.asarray(self.bob, dtype=float).reshape(2))
        object.__setattr__(self, "willie", np.asarray(self.willie, dtype=float).reshape(2))
        ues = np.asarray(self.ues, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "ues", ues)
        for name in ("bob", "willie", "ues"):
            v = getattr(self, name)
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("sigma_kappa2", "sigma_b2", "sigma_w2", "varpi", "eps",
                     "P_tot", "Pa_max", "H_min", "H_max", "R_tg", "delta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        _check_eps(self.eps)
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
        try:
            rate_gap = 2.0 ** self.R_tg - 1.0
        except OverflowError:  # R_tg past the double range of 2^R_tg
            rate_gap = math.inf
        kappa = (phi_inverse(self.eps, self.gamma) * self.budget.beta0_chi
                 / (self.gamma.theta * self.sat.ell))
        xi_coeff = rate_gap * self.sigma_kappa2 / self.budget.beta0_kappa
        for name, v, formula in (
                ("kappa", kappa, "phi_inverse(eps) * beta0_chi / (theta * ell)"),
                ("xi_coeff", xi_coeff, "(2^R_tg - 1) * sigma_kappa2 / beta0_kappa")):
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} = {formula} must be a positive double, got {v}")
            object.__setattr__(self, name, v)

    @property
    def K(self) -> int:
        return self.ues.shape[0]

    @property
    def ground_nodes(self) -> np.ndarray:
        """All nodes the UAV must see above the elevation mask: UEs, Bob, warden."""
        return np.vstack([self.ues, self.bob[None, :], self.willie[None, :]])


@dataclass(frozen=True)
class PowerAllocation:
    """UE service powers, peak jamming power, and satellite power (W),
    each kept exactly as given: any negative or non-finite one raises
    ValueError, with no tolerance and no clamp."""

    Pk: np.ndarray
    Pj_hat: float
    Pa: float

    def __post_init__(self) -> None:
        pk = np.array(self.Pk, dtype=float).ravel()
        if pk.size and not (pk.min() >= 0.0 and pk.max() < math.inf):  # NaN fails
            raise ValueError("UE powers must be finite and nonnegative")
        object.__setattr__(self, "Pk", pk)
        for name in ("Pj_hat", "Pa"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")

    @property
    def total(self) -> float:
        """UAV-side power draw: jamming peak plus all UE service powers."""
        return float(self.Pj_hat + self.Pk.sum())


class Solution(NamedTuple):
    """Planner output; ``trace`` holds Bob's rate at the start and after
    each outer iteration."""

    placement: UavPlacement | None
    powers: PowerAllocation | None
    Rb: float
    trace: list
    status: str  # converged | iteration-capped | infeasible
    message: str = ""

    @property
    def iterations(self) -> int:
        """Outer rounds run: the trace's length less its start (0 when
        empty)."""
        return max(0, len(self.trace) - 1)


def _lift(point2d) -> np.ndarray:
    p = np.asarray(point2d, dtype=float).reshape(2)
    return np.array([p[0], p[1], 0.0])


def _bob_rate(s: Scenario, pl: UavPlacement, powers: PowerAllocation) -> float:
    """Bob's rate at mean satellite fading under peak residual jamming."""
    g_ub = uav_gain(pl, s.bob, s.budget.beta0_chi)
    g_ab = s.sat.ell * s.sr.mean_power
    return covert_rate(powers.Pa, g_ab, s.varpi, powers.Pj_hat, g_ub, s.sigma_b2)


def constraint_residuals(s: Scenario, pl: UavPlacement, powers: PowerAllocation) -> dict:
    """Signed constraint residuals; every value <= 0 means satisfied.

    Keys: ``covert`` (1 - eps less ``avg_min_dep_lower_bound``: +inf for
    an unjammed warden, -eps to rounding for a silent satellite),
    ``ue_rate`` (worst rate shortfall, bps/Hz; -inf without UEs),
    ``total_power`` (W), ``pa_max`` (Pa - Pa_max, W), ``altitude`` (m),
    ``elevation`` (m). Nonnegative powers are ``PowerAllocation``'s own
    invariant, so no residual repeats them.
    """
    g_uw = uav_gain(pl, s.willie, s.budget.beta0_chi)
    dep = avg_min_dep_lower_bound(powers.Pa, s.sat.ell, powers.Pj_hat, g_uw, s.gamma)
    res = {"covert": (1.0 - s.eps) - dep.value_lb}
    res["ue_rate"] = max(
        (s.R_tg - ue_rate(pk, uav_gain(pl, u, s.budget.beta0_kappa), s.sigma_kappa2)
         for pk, u in zip(powers.Pk.tolist(), s.ues)), default=-math.inf)
    res["total_power"] = powers.total - s.P_tot
    res["pa_max"] = powers.Pa - s.Pa_max
    res["altitude"] = max(s.H_min - pl.H, pl.H - s.H_max)
    reach = pl.H / math.tan(s.budget.phi_min)
    dists = np.linalg.norm(s.ground_nodes - pl.q[None, :], axis=1)
    res["elevation"] = float(np.max(dists) - reach)
    return res


# ---------------------------------------------------------------------------
# placement geometry

_SCA_TOL = 1e-6  # m^2: the placement step stops below this gain
_SCA_MAX = 30  # linearization rounds per placement step
_CERT_MARGIN = 1e-9  # relative: nearer the boundary the start decides
# m: the largest ball radius a placement row carries. A wider ball (a
# budget near the top of the doubles, or a Pa_max near the least double)
# would square past the doubles in the rows' values; where the band and
# the cones keep the UAV within 2^300 m of the ground nodes, the capped
# ball holds the same placements
_RADIUS_CAP = 2.0 ** 300


def _enclosing_circle(points) -> tuple[float, float, float]:
    """Centre (x, y) and radius of the smallest circle enclosing the 2D
    ``points``.

    Welzl's incremental algorithm (Welzl 1991) in its iterative form, on
    Python floats: a point outside the circle of the points before it
    lies on the boundary of their enclosing circle with it, so the loops
    rebuild that circle through one, two, then three boundary points. A
    point within a relative 1e-12 of the squared radius counts as
    inside. The points are taken about their centroid, farthest first:
    the far points usually span the circle, which keeps rebuilds few.

    It runs on the points scaled by 2^-e, 2^e above every coordinate's
    magnitude, so no square leaves the doubles, and scales the result
    back: both exact short of subnormals, so the circle keeps its bits.
    """
    n = len(points)
    e = math.frexp(max(max(abs(x), abs(y)) for x, y in points))[1]
    points = [(math.ldexp(x, -e), math.ldexp(y, -e)) for x, y in points]
    mx, my = sum(p[0] for p in points) / n, sum(p[1] for p in points) / n
    pts = sorted(((x - mx, y - my) for x, y in points),
                 key=lambda p: p[0] * p[0] + p[1] * p[1], reverse=True)
    tol = 1.0 + 1e-12
    cx = cy = r2 = 0.0
    for i, (px, py) in enumerate(pts):
        if (px - cx) ** 2 + (py - cy) ** 2 <= r2 * tol:
            continue
        cx, cy, r2 = px, py, 0.0
        for j in range(i):
            qx, qy = pts[j]
            if (qx - cx) ** 2 + (qy - cy) ** 2 <= r2 * tol:
                continue
            cx, cy = 0.5 * (px + qx), 0.5 * (py + qy)
            r2 = (px - cx) ** 2 + (py - cy) ** 2
            for tx, ty in pts[:j]:
                if (tx - cx) ** 2 + (ty - cy) ** 2 <= r2 * tol:
                    continue
                cx, cy, r2 = _circle_through(px, py, qx, qy, tx, ty)
    return (math.ldexp(mx + cx, e), math.ldexp(my + cy, e),
            math.ldexp(math.sqrt(r2), e))


def _circle_through(px, py, qx, qy, tx, ty):
    """Centre and squared radius of the circle through three points; for
    a collinear triple, or one with coincident points, the circle on its
    farthest pair."""
    bx, by, ux, uy = qx - px, qy - py, tx - px, ty - py
    b2, u2 = bx * bx + by * by, ux * ux + uy * uy
    det = 2.0 * (bx * uy - by * ux)
    if abs(det) > 1e-12 * (b2 + u2):
        ox, oy = (uy * b2 - by * u2) / det, (bx * u2 - ux * b2) / det
        return px + ox, py + oy, ox * ox + oy * oy
    vx, vy = tx - qx, ty - qy
    d2, ax, ay, bx, by = max((b2, qx, qy, px, py), (u2, tx, ty, px, py),
                             (vx * vx + vy * vy, tx, ty, qx, qy))
    return 0.5 * (ax + bx), 0.5 * (ay + by), 0.25 * d2


_CONES = ("elevation cones", "no altitude in range sees every ground node")
_FLOORS_IN_CONES = ("ue-rate power floors",
                    "exceed the budget everywhere in the elevation cones")


def _band_top(s: Scenario) -> float:
    """H_max, or a lower top of the altitude band that no plan sought flies
    above, so that the band's slab row rounds at the scale of reachable
    altitudes. With UEs, the H with K xi H^2 = P_tot: the rate floors take
    sum_k xi d_k^2 <= P_tot with every d_k >= H. Without UEs (varpi = 0),
    twice hypot(R, low): the ratio peaks nearest the warden w, and the
    point at low = max(H_min, R tan(phi_min)) above the midpoint of Bob
    and w, R from each, clears the cones hypot(R, low) from w."""
    if s.K:
        cap = math.sqrt(s.P_tot / s.xi_coeff / s.K)
    else:
        R = 0.5 * math.dist(s.bob, s.willie)
        cap = 2.0 * math.hypot(R, max(s.H_min, math.tan(s.budget.phi_min) * R))
    return min(s.H_max, cap)


def _no_room(s: Scenario):
    """The cones' verdict, or the floors' where they lower the band's top."""
    return _FLOORS_IN_CONES if s.K and _band_top(s) < s.H_max else _CONES


def _placement_region(s: Scenario):
    """The closed forms that both planners apply before their start.

    With c and R the centre and radius of the smallest circle around the
    ground nodes (cone apexes, all at height 0), the cone slack
    H cot(phi_min) - max_k ||q - n_k|| at altitude H, in
    ``ConeConstraint.margin``'s units, is largest at q = c. So the slack
    of the cones and the band up to top = ``_band_top(s)``,
    min(H cot(phi_min) - R, H - H_min, top - H), peaks at x = (c, H*)
    (Boyd & Vandenberghe 8.5.1), unique when the cone term sets H*, with
    H* = max((top + R) / (1 + cot(phi_min)), (H_min + top) / 2)
    and slack top - H*.

    Returns (x, slack). The UE rate floors fit in P_tot exactly on the
    UE power budget ball, sum_k xi ||x - u_k||^2 <= P_tot, centred on the
    UE centroid at height 0. Raises PlannerInfeasible, one message per
    cause, when that ball is empty; when max(H_min, R tan(phi_min)), the
    lowest altitude in the cones and the band, is not below H_max by a
    ``_CERT_MARGIN`` relative margin; or, failing that, when it is not
    below the ball's radius by that margin, so the ball misses the cones.
    """
    cx, cy, R = _enclosing_circle(s.ground_nodes.tolist())
    r2 = math.inf  # without UEs the ball is all of space
    if s.K:
        centers = np.array([_lift(u) for u in s.ues])
        # a centroid or spread past the doubles is inf, and r2 = -inf the
        # verdict
        with np.errstate(over="ignore"):
            centroid = centers.mean(axis=0)
            spread = float(np.sum((centers - centroid[None, :]) ** 2))
        r2 = (s.P_tot / s.xi_coeff - spread) / s.K
        if r2 <= 0.0:
            raise PlannerInfeasible("ue-rate power floors",
                                    "exceed the budget everywhere")
    tan = math.tan(s.budget.phi_min)
    low = max(s.H_min, tan * R)
    if low >= s.H_max * (1.0 + _CERT_MARGIN):
        raise PlannerInfeasible(*_CONES)
    if low >= math.sqrt(r2) * (1.0 + _CERT_MARGIN):
        raise PlannerInfeasible(*_FLOORS_IN_CONES)
    top = _band_top(s)
    h = max((top + R) / (1.0 + 1.0 / tan), 0.5 * (s.H_min + top))
    return np.array([cx, cy, h]), top - h


def _placement_set(s: Scenario, centers=(), radii=(), origin=(0.0, 0.0),
                   top=None) -> ConeConstraint:
    """Rows over the lifted placement x = (q - origin, H): one elevation
    cone per ground node (||q - node|| <= H / tan(phi_min)), the searched
    altitude band H_min <= H <= top (by default from ``_band_top``) as the
    slab row ||(H - mid, 0, 0)|| <= half, with mid and half the band's
    centre and half-width, then one ball ||x - center|| <= radius per
    center, each center given in the unshifted coordinates."""
    nodes = s.ground_nodes
    nc, nb = len(nodes), len(radii)
    A = np.zeros((nc + 1 + nb, 3, 3))
    b = np.zeros((nc + 1 + nb, 3))
    c = np.zeros((nc + 1 + nb, 3))
    d = np.zeros(nc + 1 + nb)
    top = _band_top(s) if top is None else top
    A[:nc] = np.diag([1.0, 1.0, 0.0])
    b[:nc, :2] = nodes - origin
    c[:nc, 2] = 1.0 / math.tan(s.budget.phi_min)
    A[nc, 0, 2] = 1.0
    b[nc, 0] = 0.5 * s.H_min + 0.5 * top
    d[nc] = 0.5 * top - 0.5 * s.H_min
    A[nc + 1:] = np.eye(3)
    b[nc + 1:] = np.reshape(centers, (nb, 3))
    b[nc + 1:, :2] -= origin
    d[nc + 1:] = radii
    return ConeConstraint(A, b, c, d)


def _placement_constraints(s: Scenario, powers: PowerAllocation) -> ConeConstraint:
    """Feasible placements at fixed powers: cones, altitude band, UE-rate
    balls (radius sqrt(Pk/Xi) around each lifted UE), and the covertness
    ball around the lifted warden, each radius capped at ``_RADIUS_CAP``.
    Without UEs the band's top is the covertness ball's, the only ball,
    centred on the ground, if below H_max."""
    centers = [_lift(u) for u in s.ues]
    radii = [math.sqrt(pk / s.xi_coeff) for pk in powers.Pk.tolist()]
    if powers.Pa > 0.0:
        centers.append(_lift(s.willie))
        radii.append(math.sqrt(s.kappa * powers.Pj_hat / powers.Pa))
    radii = [min(r, _RADIUS_CAP) for r in radii]
    top = _band_top(s) if s.K else min([s.H_max, *radii])
    return _placement_set(s, centers, radii, top=top)


def placement_subproblem(s: Scenario, powers: PowerAllocation,
                         q0: UavPlacement) -> UavPlacement:
    """Move the UAV as far from Bob as the current powers allow.

    Maximizes the convex objective ||x - bob_lifted||^2 over the SOC
    feasible set by successive linearization: each round maximizes the
    touching linear minorant (exact first-order expansion at the incumbent)
    with the log-barrier solver, which can only increase the true objective.
    Stops when the gain drops below ``_SCA_TOL`` (m^2) or after ``_SCA_MAX``
    rounds.

    The incumbent sits on the covertness and UE-rate ball boundaries right
    after a power step, so the rounds start from the max-slack interior
    point of the feasible set, anchored at the incumbent; if the set has
    no interior the placement cannot move and q0 is returned unchanged.

    The first round starts the barrier solver cold from that max-slack
    point. Every later round starts from the previous round's central
    point at the second barrier weight, at that weight: the rounds share
    one constraint stack and only the linearization point moves, so that
    point lies near the new round's central path. The previous round's
    optimum would not do: it sits about 1e-9 from the boundary, where the
    first centring would spend its Newton steps dragging it back inside.
    A round that leaves no such point (that centring did not end centred,
    or the point is not strictly interior) lets the next round start
    cold.
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
    x0, slack = max_slack_point(cons, x0)
    if slack <= 1e-9:
        return q0  # no interior: nothing can move
    x, warm = x0, None
    val = true_obj(x)
    for _ in range(_SCA_MAX):
        grad = 2.0 * (x - b_bar)
        grad /= np.linalg.norm(grad)  # unit objective: tolerances in meters
        y, info = _barrier_maximize(QuadraticObjective(grad), cons, x0,
                                    tol=1e-7, _warm=warm)
        warm = info["warm"]
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


def power_subproblem(s: Scenario, pl: UavPlacement) -> PowerAllocation:
    """Optimal powers at a fixed placement.

    Bob's SINR Pa*g_ab / (varpi*g_ub*Pj_hat + sigma_b2) is linear-fractional
    in the powers, maximized subject to

        Pa <= ups * Pj_hat                (covertness cap)
        Pk >= xi * d_k^2                  (UE rate floors)
        sum Pk + Pj_hat <= P_tot          (UAV budget)
        Pa <= Pa_max                      (satellite cap)

    with ups = kappa/D_w (see ``Scenario.kappa``). The optimum is
    explicit: UE powers sit at their floors, Pj_hat = min(P_tot - sum
    floors, Pa_max/ups) and Pa = ups*Pj_hat (kept <= Pa_max against
    rounding). Below the satellite cap the SINR
    ups*Pj/(varpi*g_ub*Pj + sigma_b2) grows with Pj_hat, so the whole
    remaining budget jams; at the cap more jamming cannot help Bob, and the
    unspent budget is credited to UE 0 (it raises that UE's rate above its
    floor and changes nothing else). With varpi = 0 jamming costs Bob
    nothing, so the whole remaining budget jams there even at the cap.
    Raises PlannerInfeasible when the UE rate floors exceed the budget at
    this placement.
    """
    return _split_power(s, pl, cap_jamming=s.varpi != 0.0)


def _split_power(s: Scenario, pl: UavPlacement, cap_jamming: bool) -> PowerAllocation:
    """UE rate floors xi*d_k^2, the remainder as jamming (stopped at
    Pa_max/ups only when ``cap_jamming``, with the unspent budget credited
    to UE 0), and Pa = ups*Pj_hat kept <= Pa_max, ups = kappa/D_w."""
    floors = s.xi_coeff * (np.sum((s.ues - pl.q) ** 2, axis=1) + pl.H ** 2)
    ups = uav_gain(pl, s.willie, s.kappa)
    # a Python float, not numpy's, so that a product of the powers past
    # the doubles (ups * pj here, the covertness ball's radius) is inf
    # without a warning, and the caps absorb it
    prem = s.P_tot - float(floors.sum())
    if prem < 0.0:
        raise PlannerInfeasible(
            "ue-rate power floors",
            f"need {floors.sum():.6g} W of {s.P_tot:.6g} W at this placement")
    pj = min(prem, s.Pa_max / ups) if cap_jamming else prem
    if s.K:
        floors[0] += prem - pj
    return PowerAllocation(Pk=floors, Pj_hat=pj, Pa=min(ups * pj, s.Pa_max))


# ---------------------------------------------------------------------------
# block coordinate descent


def _initial_placement(s: Scenario) -> UavPlacement:
    """Centroid of all ground nodes at the lowest altitude clearing the cones.

    ``_placement_region`` first decides the verdicts its closed forms
    prove. When the centroid cannot clear the cones below H_max, the
    start is the region's point (c, H*); the verdict is "infeasible"
    when that has no positive slack. No barrier solve runs.
    """
    x, slack = _placement_region(s)
    nodes = s.ground_nodes
    centroid = nodes.mean(axis=0)
    maxdist = float(np.max(np.linalg.norm(nodes - centroid[None, :], axis=1)))
    h_need = math.tan(s.budget.phi_min) * maxdist
    h0 = max(s.H_min, h_need)
    if h0 <= s.H_max:
        return UavPlacement(q=centroid, H=h0)
    if slack <= 0.0:
        raise PlannerInfeasible(*_no_room(s))
    return UavPlacement(q=x[:2], H=float(x[2]))


def bcd_optimize(s: Scenario) -> Solution:
    """Alternate placement and power steps until Bob's rate settles.

    Starts at the ground-node centroid with the power step's split, except
    that jamming is not stopped at the satellite cap: UE powers at their
    rate floors, the whole residual as jamming, and Pa at its covertness
    cap or Pa_max. Each outer iteration runs the placement step (kept only
    when it strictly raises Bob's rate at the current powers, which makes
    the rate trace nondecreasing by construction) and then the exact
    power step. Stops when the rate changes by less than ``s.delta`` or
    after ``s.i_max`` iterations.
    """
    trace = []
    try:
        pl = _initial_placement(s)
        powers = _split_power(s, pl, cap_jamming=False)
        rb = _bob_rate(s, pl, powers)
        trace.append(rb)
        status = "iteration-capped"
        for _ in range(s.i_max):
            pl_new = placement_subproblem(s, powers, pl)
            # a tie keeps the old placement: at P_tot >= 1e50 W the
            # uncapped start split makes Bob's rate 0.0 at every
            # placement, and the stock scene then plans 0.18274 with
            # ties dropped but 0.17730 with them kept. The one cost seen
            # is base 254 of the 400-scene corpus, 4.976725631752839
            # against 4.976727167797847 with ties kept
            if _bob_rate(s, pl_new, powers) > rb:
                pl = pl_new
            powers = power_subproblem(s, pl)
            rb, rb_old = _bob_rate(s, pl, powers), rb
            trace.append(rb)
            if abs(rb - rb_old) < s.delta:
                status = "converged"
                break
    except PlannerInfeasible as e:
        return Solution(None, None, math.nan, trace, "infeasible", str(e))
    return Solution(pl, powers, rb, trace, status)


# ---------------------------------------------------------------------------
# perfect cancellation (varpi = 0): Dinkelbach over the placement


def perfect_cancellation_optimize(s: Scenario) -> Solution:
    """Exact planner for varpi = 0.

    With the jamming fully cancelled at Bob, the rate grows with Pa alone,
    and the binding structure is known: every UE gets exactly its rate
    floor, all remaining UAV power jams, and Pa sits at its covertness cap.
    The cap as a function of the lifted placement x is the ratio

        f(x)/g(x) = kappa * (P_tot - xi * sum_k ||x-u_k||^2) / ||x - w||^2

    concave over convex positive, maximized by Dinkelbach iteration over
    the cones and the altitude band. Powers then come from
    ``power_subproblem``. Since Bob's rate then depends on nothing but
    Pa, the iteration stops once the ratio reaches Pa_max: later rounds
    would only move the placement within a tie for the best rate, so a
    capped plan may sit at a different placement with the same rate.
    Dinkelbach starts from the ratio at its start point, so when that
    point already reaches Pa_max it is the plan, after 0 rounds. The
    trace holds the rate at the start point and then one rate per round.

    ``_placement_region`` first decides the verdicts its closed forms
    prove, and the start is its point (c, H*), which may lie where the
    numerator is negative: Dinkelbach then starts at ratio 0, and its
    first round maximizes the numerator itself. A round that ends at a
    ratio <= 0 proves that the UE rate floors exceed the budget
    everywhere in the cones and the band, and the plan is "infeasible".
    So is a start (c, H*) not strictly inside the cones and the band,
    which the closed-form verdict leaves possible within its margin.
    """
    if s.varpi != 0.0:
        raise ValueError("perfect_cancellation_optimize requires varpi = 0")
    try:
        x0, _ = _placement_region(s)
        # posed in y = x - o, o = (c, 0), the expansions below sum terms at
        # the scale of the nodes' spread, not of their coordinates
        o = np.array([x0[0], x0[1], 0.0])
        cons = _placement_set(s, origin=o[:2])
        y0 = x0 - o
        if not cons.rows(y0)[3]:
            raise PlannerInfeasible(*_no_room(s))
        # divide f and g by D0 = ||x0 - w||^2 so g(x0) = 1; the ratio (and
        # lam) is unchanged but the Dinkelbach residual f - lam*g then
        # lives in watts, matching delta. Each is expanded as const + c.y +
        # a ||y||^2, by sum_k ||y - u_k||^2 = K ||y||^2 - 2 y.sum_k u_k +
        # sum_k ||u_k||^2
        kappa, xi = s.kappa, s.xi_coeff
        centers = np.array([_lift(u) for u in s.ues]).reshape(-1, 3) - o
        w_bar = _lift(s.willie) - o
        d0 = float(np.sum((y0 - w_bar) ** 2))
        k = kappa * xi / d0
        f_obj = QuadraticObjective(
            2.0 * k * centers.sum(axis=0),
            const=kappa * s.P_tot / d0 - k * float(np.sum(centers ** 2)), a=-k * s.K)
        g_obj = QuadraticObjective(-2.0 / d0 * w_bar,
                                   const=float(w_bar @ w_bar) / d0, a=1.0 / d0)
        res = dinkelbach(f_obj, g_obj, cons, y0,
                         delta=s.delta, i_max=s.i_max, lam_max=s.Pa_max)
        if res.lam <= 0.0:
            raise PlannerInfeasible(*_FLOORS_IN_CONES)
    except PlannerInfeasible as e:
        return Solution(None, None, math.nan, [], "infeasible", str(e))

    pl = UavPlacement(q=res.x[:2] + o[:2], H=float(res.x[2]))
    powers = power_subproblem(s, pl)
    g_ab = s.sat.ell * s.sr.mean_power
    trace = [covert_rate(min(l, s.Pa_max), g_ab, 0.0, powers.Pj_hat, 1.0,
                         s.sigma_b2)
             for l in res.lam_trace]
    rb = _bob_rate(s, pl, powers)
    return Solution(pl, powers, rb, trace,
                    "converged" if res.converged else "iteration-capped")


def optimize(s: Scenario) -> Solution:
    """The plan for ``s``: ``perfect_cancellation_optimize`` when Bob
    cancels all the jamming (varpi = 0), ``bcd_optimize`` otherwise."""
    if s.varpi == 0.0:
        return perfect_cancellation_optimize(s)
    return bcd_optimize(s)


# ---------------------------------------------------------------------------
# Monte Carlo validation


class ValidationReport(NamedTuple):
    """Monte Carlo check of a solution's covertness claim, beside two rates.

    ``xi_mc`` and ``xi_stderr`` estimate the warden's fading-averaged
    minimum detection error probability, and ``covert_pass`` says whether
    it clears 1 - eps less two standard errors; only ``covert_pass`` sets
    ``validate``'s exit code. ``rate_mc`` and ``rate_stderr`` estimate
    Bob's ergodic rate with the jamming power drawn uniform on
    [0, Pj_hat]. ``rb_deterministic`` is the solution's ``Rb``, Bob's rate
    at mean satellite fading under peak jamming Pj_hat; the two rates
    answer different questions, and neither is checked against the other.
    """

    trials: int
    xi_mc: float
    xi_stderr: float
    rate_mc: float
    rate_stderr: float
    covert_pass: bool
    rb_deterministic: float


def _mc_estimate(x: np.ndarray):
    """(mean, standard error) of the Monte Carlo draws in ``x``.

    The two numbers carry the bits of ``x.mean()`` and of
    ``x.std(ddof=1) / sqrt(n)``: numpy takes the sum over n, subtracts that
    mean, squares, sums over n - 1 and takes the root, and so does this,
    in place: ``x`` is scratch, and holds the squared deviations after.
    """
    n = x.size
    mean = float(np.add.reduce(x)) / n
    np.subtract(x, mean, out=x)
    np.multiply(x, x, out=x)
    return mean, math.sqrt(float(np.add.reduce(x)) / (n - 1)) / math.sqrt(n)


def validate_solution(s: Scenario, sol: Solution, trials: int = 10_000,
                      rng: np.random.Generator | None = None) -> ValidationReport:
    """Monte Carlo validation of a feasible solution.

    Each trial draws one satellite fading sample X from the squared-SR law
    and uses it for two estimates: (a) the warden's fading-averaged minimum
    detection error under the solution's powers and placement, and (b)
    Bob's mean rate with the jamming power drawn uniform on [0, Pj_hat] per
    slot (not drawn when varpi = 0, where Bob cancels it all). The two
    are separate expectations over the same law of X and are never
    combined, so sharing the draws leaves each estimate's law and
    standard error exactly as with independent draws; the two estimates
    are merely correlated. The physical links to the warden and to Bob fade
    independently, so a statistic that combines both per trial (a joint
    event, a covariance) would need independent draws for each link.

    The per-trial arithmetic runs in place on the generator's fills, so a
    call holds no more arrays of ``trials`` doubles than the fading
    sampler does.

    The covertness verdict requires the detection-error estimate to clear
    1 - eps minus two standard errors, so at least 2 trials are needed.
    """
    if sol.placement is None or sol.powers is None:
        raise ValueError("cannot validate an infeasible solution")
    try:
        trials = operator.index(trials)
    except TypeError:
        raise ValueError(f"trials must be an integer, got {trials!r}") from None
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if rng is None:
        rng = np.random.default_rng(0)
    pl, pw = sol.placement, sol.powers
    g_uw = uav_gain(pl, s.willie, s.budget.beta0_chi)
    g_ub = uav_gain(pl, s.bob, s.budget.beta0_chi)

    sig = sample_sr_power(s.sr, rng, trials)
    sig *= pw.Pa * s.sat.ell
    xi_mc, xi_se = _mc_estimate(min_dep(sig, pw.Pj_hat * g_uw))

    # with varpi = 0 Bob cancels the jamming, whose draw (the last one)
    # would only add 0.0 to Bob's noise
    if s.varpi:
        noise = rng.uniform(0.0, pw.Pj_hat, trials)
        noise *= s.varpi
        noise *= g_ub
        noise += s.sigma_b2
    else:
        noise = s.sigma_b2
    rate = np.divide(sig, noise, out=sig)
    rate += 1.0
    rate_mc, rate_se = _mc_estimate(np.log2(rate, out=rate))

    return ValidationReport(
        trials=trials,
        xi_mc=xi_mc,
        xi_stderr=xi_se,
        rate_mc=rate_mc,
        rate_stderr=rate_se,
        covert_pass=bool(xi_mc >= 1.0 - s.eps - 2.0 * xi_se),
        rb_deterministic=sol.Rb,
    )
