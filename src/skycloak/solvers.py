"""Small dense convex solvers used by the placement planner.

Nothing here is large scale: the programs have 3 or 4 variables (UAV
position, altitude, optional slack), so the tools are deliberately simple
and transparent. The power step needs no solver; its optimum is explicit
(see :func:`skycloak.planner.power_subproblem`).

- a log-barrier Newton method over second-order-cone and affine constraints,
  using the canonical SOC barrier -log((c.x+d)^2 - ||Ax-b||^2);
- a Dinkelbach driver for concave/convex fractional objectives;
- scalar bisection for monotone root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverError",
    "InfeasibleStartError",
    "LineSearchError",
    "BracketError",
    "AffineConstraint",
    "SocConstraint",
    "ball_constraint",
    "LinearObjective",
    "QuadraticSum",
    "max_slack_point",
    "FractionalProgram",
    "DinkelbachResult",
    "dinkelbach",
    "bisect",
]


class SolverError(RuntimeError):
    pass


class InfeasibleStartError(SolverError):
    pass


class LineSearchError(SolverError):
    pass


class BracketError(SolverError):
    pass


# ---------------------------------------------------------------------------
# scalar bisection


def bisect(fn, target: float, bracket, tol: float = 1e-10, max_iter: int = 300) -> float:
    """Solve fn(x) = target for monotone fn on the bracket.

    Returns x with |fn(x) - target| <= tol. Raises BracketError when the
    target is not enclosed by the bracket endpoints.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    flo, fhi = fn(lo), fn(hi)
    increasing = fhi >= flo
    fmin, fmax = (flo, fhi) if increasing else (fhi, flo)
    if not (fmin <= target <= fmax):
        raise BracketError(
            f"target {target} outside fn range [{fmin}, {fmax}] on bracket"
        )
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        fx = fn(x)
        if abs(fx - target) <= tol:
            return x
        if (fx < target) == increasing:
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
    raise BracketError(f"bisection did not reach tol={tol} in {max_iter} steps")


# ---------------------------------------------------------------------------
# smooth convex programs: SOC/affine constraints, log-barrier Newton


@dataclass
class AffineConstraint:
    """a.x <= b"""

    a: np.ndarray
    b: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float).ravel()

    def value(self, x):
        return float(self.a @ x - self.b)

    def grad(self, x):
        return self.a

    def hess(self, x):
        return np.zeros((self.a.size, self.a.size))

    def interior(self, x):
        return self.value(x) < 0.0

    def margin(self, x):
        """Distance-to-violation in the constraint's own units."""
        return -self.value(x)

    def lifted(self):
        return AffineConstraint(np.append(self.a, 1.0), self.b)


@dataclass
class SocConstraint:
    """||A x - b|| <= c.x + d, handled in squared smooth form.

    value() returns ||Ax-b||^2 - (c.x+d)^2, whose zero-sublevel set
    intersected with {c.x + d > 0} is the second-order cone; the barrier
    -log(-value) is then the canonical (convex, self-concordant) SOC
    barrier even though value() itself is not convex.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.c = np.asarray(self.c, dtype=float).ravel()
        self._hess = 2.0 * (self.A.T @ self.A - np.outer(self.c, self.c))

    def _parts(self, x):
        return self.A @ x - self.b, float(self.c @ x + self.d)

    def value(self, x):
        r, t = self._parts(x)
        return float(r @ r - t * t)

    def grad(self, x):
        r, t = self._parts(x)
        return 2.0 * (self.A.T @ r) - 2.0 * t * self.c

    def hess(self, x):
        return self._hess

    def interior(self, x):
        r, t = self._parts(x)
        return t > 0.0 and float(r @ r) < t * t

    def margin(self, x):
        r, t = self._parts(x)
        return t - float(np.linalg.norm(r))

    def lifted(self):
        A = np.hstack([self.A, np.zeros((self.A.shape[0], 1))])
        return SocConstraint(A, self.b, np.append(self.c, -1.0), self.d)


def ball_constraint(center, radius: float) -> SocConstraint:
    """||x - center|| <= radius."""
    center = np.asarray(center, dtype=float).ravel()
    n = center.size
    return SocConstraint(np.eye(n), center, np.zeros(n), float(radius))


@dataclass
class LinearObjective:
    c: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()

    def value(self, x):
        return float(self.c @ x) + self.const

    def grad(self, x):
        return self.c

    def hess(self, x):
        return np.zeros((self.c.size, self.c.size))


@dataclass
class QuadraticSum:
    """const + weight * sum_k ||x - centers[k]||^2 (concave iff weight <= 0)."""

    weight: float
    centers: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))

    def value(self, x):
        diff = x[None, :] - self.centers
        return self.const + self.weight * float(np.sum(diff * diff))

    def grad(self, x):
        diff = x[None, :] - self.centers
        return 2.0 * self.weight * diff.sum(axis=0)

    def hess(self, x):
        n = self.centers.shape[1]
        return 2.0 * self.weight * self.centers.shape[0] * np.eye(n)


class _CombinedObjective:
    """f - lam * g for the Dinkelbach subproblems."""

    def __init__(self, f, g, lam):
        self.f, self.g, self.lam = f, g, lam

    def value(self, x):
        return self.f.value(x) - self.lam * self.g.value(x)

    def grad(self, x):
        return self.f.grad(x) - self.lam * self.g.grad(x)

    def hess(self, x):
        return self.f.hess(x) - self.lam * self.g.hess(x)


def _barrier_maximize(objective, constraints, x0, tol=1e-8, t0=1.0,
                      t_factor=10.0, max_newton=200):
    """Maximize a smooth concave objective over constraints via log barrier.

    Outer loop raises the barrier weight until m/t < tol (duality-gap bound);
    inner loop is damped Newton with an Armijo backtracking line search that
    also enforces strict feasibility. Returns (x, info dict).
    """
    x = np.asarray(x0, dtype=float).copy()
    m = len(constraints)
    if not all(con.interior(x) for con in constraints):
        worst = min(con.margin(x) for con in constraints) if m else 0.0
        raise InfeasibleStartError(f"x0 not strictly feasible (worst margin {worst:.3e})")
    if m == 0:
        raise SolverError("unconstrained maximization is unbounded here")

    t = t0
    newton_steps = 0
    while True:
        # minimize phi(x) = -t*obj + sum -log(-g_i)
        for _ in range(max_newton):
            vals = np.array([con.value(x) for con in constraints])
            grad = -t * objective.grad(x)
            H = -t * objective.hess(x)
            for con, v in zip(constraints, vals):
                gci = con.grad(x)
                grad += gci / (-v)
                H += np.outer(gci, gci) / (v * v) + con.hess(x) / (-v)
            ridge = 0.0
            base = np.trace(H) / H.shape[0]
            while True:
                try:
                    np.linalg.cholesky(H + ridge * np.eye(H.shape[0]))
                    break
                except np.linalg.LinAlgError:
                    ridge = max(ridge * 10.0, 1e-12 * max(base, 1.0))
            step = np.linalg.solve(H + ridge * np.eye(H.shape[0]), -grad)
            decrement = float(-grad @ step)
            phi0 = -t * objective.value(x) - float(np.sum(np.log(-vals)))
            fuzz = 1e-11 * (1.0 + abs(phi0))
            if decrement <= 2.0 * fuzz:
                break
            slope = float(grad @ step)
            alpha = 1.0
            accepted = False
            for _ls in range(70):
                xn = x + alpha * step
                if all(con.interior(xn) for con in constraints):
                    phin = (-t * objective.value(xn)
                            - sum(math.log(-con.value(xn)) for con in constraints))
                    # the fuzz term absorbs cancellation noise in t*objective
                    # when the combined objective is itself a near-zero
                    # difference of large terms (Dinkelbach residuals)
                    if phin <= phi0 + 0.25 * alpha * slope + fuzz:
                        accepted = True
                        break
                alpha *= 0.5
            if not accepted:
                if decrement > 1e-2 * (1.0 + abs(phi0)):
                    raise LineSearchError(
                        f"no acceptable step with decrement {decrement:.3e}")
                break  # progress is below floating-point resolution at this t
            x = xn
            newton_steps += 1
        if m / t < tol:
            break
        t *= t_factor

    lam = np.array([1.0 / (t * (-con.value(x))) for con in constraints])
    stat = objective.grad(x) - sum(
        li * con.grad(x) for li, con in zip(lam, constraints)
    )
    info = {
        "t": t,
        "newton_steps": newton_steps,
        "duals": lam,
        "kkt_residual": float(np.linalg.norm(stat, np.inf)),
        "gap_bound": m / t,
    }
    return x, info


def max_slack_point(constraints, anchor, tol: float = 1e-9, s_cap: float | None = None):
    """Chebyshev-style strictly feasible point: maximize the minimum slack.

    The slack variable is appended to the affine side of every constraint
    (||Ax-b|| <= c.x+d-s, a.x+s <= b), which keeps the lifted problem a
    plain SOC program; the anchor point with s below its worst margin is
    always strictly feasible, so no further phase is needed. Returns
    (x, s_star); s_star > 0 certifies a strictly feasible interior.
    """
    anchor = np.asarray(anchor, dtype=float)
    n = anchor.size
    lifted = [con.lifted() for con in constraints]
    margins = [con.margin(anchor) for con in constraints]
    s0 = min(margins) - 1.0
    cap = s_cap
    if cap is None:
        # bound s so the lifted program cannot be unbounded
        cap = max(abs(s0), max(abs(m) for m in margins), 1.0) * 10.0 + 1.0
    lifted.append(AffineConstraint(np.append(np.zeros(n), 1.0), cap))
    obj = np.append(np.zeros(n), 1.0)
    x0 = np.append(anchor, s0)
    xs, _ = _barrier_maximize(LinearObjective(obj), lifted, x0, tol=tol)
    return xs[:n], float(xs[n])


# ---------------------------------------------------------------------------
# fractional programming


@dataclass
class FractionalProgram:
    """max f(x)/g(x) with f concave, g convex and positive on the feasible set."""

    f: object
    g: object
    constraints: list


@dataclass
class DinkelbachResult:
    x: np.ndarray
    lam: float
    converged: bool
    iterations: int
    lam_trace: list


def dinkelbach(fp: FractionalProgram, x0, delta: float = 1e-6,
               i_max: int = 50, inner_tol: float = 1e-9) -> DinkelbachResult:
    """Dinkelbach iteration for ``fp`` starting from strictly feasible x0.

    lam starts at 0; each round maximizes f - lam*g over the constraints and
    stops once |f - lam_prev*g| < delta at the new point. The returned lam
    is f(x*)/g(x*). Non-convergence within i_max is flagged, not raised.
    """
    x = np.asarray(x0, dtype=float).copy()
    lam = 0.0
    trace = []
    for it in range(1, i_max + 1):
        obj = _CombinedObjective(fp.f, fp.g, lam)
        x, _ = _barrier_maximize(obj, fp.constraints, x, tol=inner_tol)
        fv, gv = fp.f.value(x), fp.g.value(x)
        if gv <= 0.0:
            raise SolverError(f"denominator nonpositive ({gv:.3e}) at iterate {it}")
        F = fv - lam * gv
        lam = fv / gv
        trace.append(lam)
        if abs(F) < delta:
            return DinkelbachResult(x=x, lam=lam, converged=True,
                                    iterations=it, lam_trace=trace)
    return DinkelbachResult(x=x, lam=lam, converged=False,
                            iterations=i_max, lam_trace=trace)
