"""Small dense convex solvers used by the placement planner.

Nothing here is large scale: the programs have 3 or 4 variables (UAV
position, altitude, optional slack), so the tools are deliberately simple
and transparent. The power step needs no solver; its optimum is explicit
(see :func:`skycloak.planner.power_subproblem`).

- one stacked constraint type, rows ||A_i x - b_i|| <= c_i.x + d_i, with a
  row whose A_i is zero standing for the half-space c_i.x + d_i >= 0;
- one objective type, const + c.x + sum_k w_k ||x - u_k||^2;
- a log-barrier Newton method over the stack, with a closed-form bound on
  the feasible step (Boyd & Vandenberghe, Convex Optimization, 9.5, 11.3);
  each Newton system is solved by an unrolled Cholesky factorization on
  Python floats, with a growing ridge when rounding leaves the Hessian
  singular or indefinite;
- a max-slack interior point finder and a Dinkelbach driver for
  concave/convex fractional objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverError",
    "InfeasibleStartError",
    "LineSearchError",
    "ConeConstraint",
    "QuadraticObjective",
    "max_slack_point",
    "DinkelbachResult",
    "dinkelbach",
]


class SolverError(RuntimeError):
    pass


class InfeasibleStartError(SolverError):
    pass


class LineSearchError(SolverError):
    pass


# ---------------------------------------------------------------------------
# smooth convex programs: stacked SOC rows, log-barrier Newton


def _rowdot(p, q):
    """Row-wise dot products of two (m, k) arrays."""
    return np.matmul(p[:, None, :], q[:, :, None]).ravel()


@dataclass
class ConeConstraint:
    """Rows ||A_i x - b_i|| <= c_i.x + d_i with A of shape (m, k, n).

    A cone row (A_i nonzero) has value ||A_i x - b_i||^2 - (c_i.x + d_i)^2,
    whose zero-sublevel set intersected with {c_i.x + d_i > 0} is the
    second-order cone; -log(-value) is then the canonical (convex,
    self-concordant) SOC barrier even though the value itself is not
    convex. A half-space row (A_i = 0) has value -(c_i.x + d_i) and keeps
    the barrier -log(c_i.x + d_i).
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        m, k, n = self.A.shape
        self.b = np.asarray(self.b, dtype=float).reshape(m, k)
        self.c = np.asarray(self.c, dtype=float).reshape(m, n)
        self.d = np.asarray(self.d, dtype=float).reshape(m)
        self.cone = np.any(self.A != 0.0, axis=(1, 2))
        # row layouts for the per-step products: A as one (m*k, n) matrix
        # for A x, and per row A_i^T, shape (m, n, k), for A_i^T r_i
        self._A_flat = self.A.reshape(m * k, n)
        self._A_T = np.ascontiguousarray(self.A.transpose(0, 2, 1))
        # the rows' value Hessians, constant in x
        self.hess = 2.0 * self.cone[:, None, None] * (
            np.einsum("mki,mkj->mij", self.A, self.A)
            - np.einsum("mi,mj->mij", self.c, self.c))

    def _apply(self, x):
        """The stacked products A_i x, shape (m, k)."""
        return (self._A_flat @ x).reshape(self.b.shape)

    def rows(self, x):
        """(r, t, values, interior) at x from one evaluation of the row
        parts r = A x - b and t = c.x + d: every row's value and whether x
        lies strictly inside every row."""
        r = self._apply(x) - self.b
        t = self.c @ x + self.d
        rr = _rowdot(r, r)
        vals = np.where(self.cone, rr - t * t, -t)
        return r, t, vals, bool(np.all((t > 0.0) & (rr < t * t)))

    def grad(self, r, t):
        """Every row's value gradient at the point with row parts r, t."""
        g = 2.0 * (np.matmul(self._A_T, r[:, :, None])[:, :, 0]
                   - t[:, None] * self.c)
        return np.where(self.cone[:, None], g, -self.c)

    def margin(self, x):
        """Distance-to-violation of every row in the row's own units."""
        r, t, _, _ = self.rows(x)
        return t - np.sqrt(_rowdot(r, r))

    def lifted(self):
        """The same rows in (x, s) with the slack s taken off every
        right-hand side: ||A_i x - b_i|| <= c_i.x + d_i - s."""
        m, k, _ = self.A.shape
        return ConeConstraint(np.concatenate([self.A, np.zeros((m, k, 1))], axis=2),
                              self.b, np.hstack([self.c, -np.ones((m, 1))]), self.d)

    def max_step(self, r, t, v, s):
        """Per row, the smallest alpha > 0 at which x + alpha*s reaches the
        row's boundary (inf where the ray never does), for an interior x
        whose ``rows(x)`` gave r, t and the values v.

        Along the ray a row's value is the scalar polynomial
        a*alpha^2 + 2*h*alpha + v (linear for a half-space). With v < 0 its
        first positive root is -v / (h + sqrt(h^2 - a*v)), and there is
        none when that denominator is not positive. Inside a row the
        discriminant can be negative only with a < 0 and h < 0, where the
        denominator is negative anyway, so clipping it at zero against
        rounding changes no verdict.
        """
        rs, ts = self._apply(s), self.c @ s
        a = np.where(self.cone, _rowdot(rs, rs) - ts * ts, 0.0)
        h = np.where(self.cone, _rowdot(r, rs) - t * ts, -0.5 * ts)
        den = h + np.sqrt(np.maximum(h * h - a * v, 0.0))
        return np.divide(-v, den, out=np.full_like(v, np.inf), where=den > 0.0)


@dataclass
class QuadraticObjective:
    """const + c.x + sum_k w[k] * ||x - u[k]||^2 (concave iff sum(w) <= 0)."""

    c: np.ndarray
    const: float = 0.0
    w: np.ndarray = ()
    u: np.ndarray = ()

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.w = np.asarray(self.w, dtype=float).ravel()
        self.u = np.asarray(self.u, dtype=float).reshape(self.w.size, self.c.size)

    def value(self, x):
        diff = x[None, :] - self.u
        return (self.const + float(self.c @ x)
                + float(self.w @ np.sum(diff * diff, axis=1)))

    def grad(self, x):
        return self.c + 2.0 * (self.w @ (x[None, :] - self.u))

    def hess(self, x):
        return 2.0 * self.w.sum() * np.eye(self.c.size)


def _newton_solve(H, g):
    """y with (H + ridge*I) y = g, from a Cholesky factorization on Python
    floats (the systems are 3x3 or 4x4, where numpy's per-call overhead
    dominates LAPACK's arithmetic).

    ridge is the first of 0, then 1e-12 * max(trace(H)/n, 1) * 10^j for
    j = 0, 1, ..., at which every pivot comes out > 0 (a NaN pivot fails);
    it keeps the step a descent direction when rounding leaves the
    barrier Hessian singular or slightly indefinite.
    """
    n = len(g)
    a = H.tolist()
    floor = 1e-12 * max(sum(a[i][i] for i in range(n)) / n, 1.0)
    ridge = 0.0
    while True:
        L = []
        for i in range(n):
            ai, li = a[i], []
            for j in range(i):
                lj, v = L[j], ai[j]
                for k in range(j):
                    v -= li[k] * lj[k]
                li.append(v / lj[j])
            v = ai[i] + ridge
            for k in range(i):
                v -= li[k] * li[k]
            if not v > 0.0:
                break
            li.append(math.sqrt(v))
            L.append(li)
        else:
            break
        ridge = ridge * 10.0 if ridge else floor
        if not ridge < math.inf:
            raise SolverError("Newton system does not factor at any finite ridge")
    # L z = g, then L^T y = z
    z = g.tolist()
    for i in range(n):
        li = L[i]
        v = z[i]
        for k in range(i):
            v -= li[k] * z[k]
        z[i] = v / li[i]
    for i in reversed(range(n)):
        v = z[i]
        for k in range(i + 1, n):
            v -= L[k][i] * z[k]
        z[i] = v / L[i][i]
    return np.array(z)


# barrier schedule: start weight, growth factor, Newton steps per centring
_T0 = 1.0
_T_FACTOR = 10.0
_MAX_NEWTON = 200
# duality-gap bound of the max-slack and Dinkelbach barrier solves
_GAP_TOL = 1e-9


def _barrier_maximize(objective, cons, x0, tol=1e-8):
    """Maximize a smooth concave objective over a constraint stack via log barrier.

    Outer loop raises the barrier weight until m/t < tol (duality-gap bound);
    inner loop is damped Newton with an Armijo backtracking line search that
    starts just inside the closed-form largest feasible step and also checks
    strict feasibility. The inner loop ends when the Newton decrement
    vanishes or an accepted step no longer moves x. Returns (x, info dict).
    """
    x = np.asarray(x0, dtype=float).copy()
    m = cons.A.shape[0]
    if m == 0:
        raise SolverError("unconstrained maximization is unbounded here")
    r, u, vals, inside = cons.rows(x)
    if not inside:
        raise InfeasibleStartError(
            f"x0 not strictly feasible (worst margin {cons.margin(x).min():.3e})")

    n = x.size
    obj_hess = objective.hess(x)  # constant, as are the rows' cons.hess
    row_hess = cons.hess.reshape(m, n * n)
    fx = objective.value(x)
    t = _T0
    newton_steps = 0
    while True:
        # minimize phi(x) = -t*obj + sum -log(-g_i); the row parts
        # r = A x - b, u = c.x + d, the row values and the objective value
        # at x are those of the trial point accepted last
        for _ in range(_MAX_NEWTON):
            inv = -1.0 / vals
            gci = cons.grad(r, u) * inv[:, None]
            grad = -t * objective.grad(x) + gci.sum(axis=0)
            H = -t * obj_hess + gci.T @ gci + (inv @ row_hess).reshape(n, n)
            step = -_newton_solve(H, grad)
            decrement = float(-grad @ step)
            phi0 = -t * fx - float(np.log(-vals).sum())
            fuzz = 1e-11 * (1.0 + abs(phi0))
            if decrement <= 2.0 * fuzz:
                break
            slope = float(grad @ step)
            alpha = min(1.0, 0.99 * float(cons.max_step(r, u, vals, step).min()))
            accepted = False
            for _ls in range(70):
                xn = x + alpha * step
                rn, un, valsn, inside = cons.rows(xn)
                if inside:
                    fn = objective.value(xn)
                    phin = -t * fn - float(np.log(-valsn).sum())
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
            moved = not np.array_equal(xn, x)
            x, r, u, vals, fx = xn, rn, un, valsn, fn
            newton_steps += 1
            if not moved:
                break
        if m / t < tol:
            break
        t *= _T_FACTOR

    lam = 1.0 / (t * -vals)
    stat = objective.grad(x) - lam @ cons.grad(r, u)
    info = {
        "t": t,
        "newton_steps": newton_steps,
        "duals": lam,
        "kkt_residual": float(np.linalg.norm(stat, np.inf)),
        "gap_bound": m / t,
    }
    return x, info


def max_slack_point(cons, anchor):
    """Chebyshev-style strictly feasible point: maximize the minimum slack.

    The slack variable is taken off the right-hand side of every row
    (||Ax-b|| <= c.x+d-s), which keeps the lifted problem a plain SOC
    program; the anchor point with s below its worst margin is always
    strictly feasible, so no further phase is needed. Returns (x, s_star);
    s_star > 0 certifies a strictly feasible interior.
    """
    anchor = np.asarray(anchor, dtype=float)
    n = anchor.size
    margins = cons.margin(anchor)
    s0 = margins.min() - 1.0
    # bound s so the lifted program cannot be unbounded
    cap = max(abs(s0), np.abs(margins).max(), 1.0) * 10.0 + 1.0
    # the lifted rows and s <= cap, a half-space row
    rows = cons.lifted()
    k = rows.A.shape[1]
    e_s = np.eye(n + 1)[n]
    rows = ConeConstraint(np.concatenate([rows.A, np.zeros((1, k, n + 1))]),
                          np.vstack([rows.b, np.zeros(k)]),
                          np.vstack([rows.c, -e_s]), np.append(rows.d, cap))
    xs, _ = _barrier_maximize(QuadraticObjective(e_s), rows,
                              np.append(anchor, s0), tol=_GAP_TOL)
    return xs[:n], float(xs[n])


# ---------------------------------------------------------------------------
# fractional programming


@dataclass
class DinkelbachResult:
    x: np.ndarray
    lam: float
    converged: bool
    iterations: int
    lam_trace: list


def dinkelbach(f: QuadraticObjective, g: QuadraticObjective,
               cons: ConeConstraint, x0, delta: float = 1e-6,
               i_max: int = 50, lam_max: float = math.inf) -> DinkelbachResult:
    """Dinkelbach iteration for max f(x)/g(x) starting from strictly
    feasible x0, with f concave and g convex and positive over ``cons``.

    lam starts at 0; each round maximizes f - lam*g over ``cons`` and
    stops once |f - lam_prev*g| < delta at the new point, or once lam
    reaches ``lam_max`` (for a caller that clamps the ratio there, any
    point past the clamp is as good as the optimum). The returned lam is
    f(x)/g(x) at the returned point. Non-convergence within i_max is
    flagged, not raised.
    """
    x = np.asarray(x0, dtype=float).copy()
    lam = 0.0
    trace = []
    for it in range(1, i_max + 1):
        obj = QuadraticObjective(f.c - lam * g.c, f.const - lam * g.const,
                                 np.concatenate([f.w, -lam * g.w]),
                                 np.vstack([f.u, g.u]))
        x, _ = _barrier_maximize(obj, cons, x, tol=_GAP_TOL)
        fv, gv = f.value(x), g.value(x)
        if gv <= 0.0:
            raise SolverError(f"denominator nonpositive ({gv:.3e}) at iterate {it}")
        F = fv - lam * gv
        lam = fv / gv
        trace.append(lam)
        if abs(F) < delta or lam >= lam_max:
            return DinkelbachResult(x=x, lam=lam, converged=True,
                                    iterations=it, lam_trace=trace)
    return DinkelbachResult(x=x, lam=lam, converged=False,
                            iterations=i_max, lam_trace=trace)
