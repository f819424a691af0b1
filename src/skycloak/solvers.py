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
- a max-slack interior point finder and a Dinkelbach driver for
  concave/convex fractional objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverError",
    "InfeasibleStartError",
    "LineSearchError",
    "ConeConstraint",
    "QuadraticObjective",
    "max_slack_point",
    "FractionalProgram",
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
        self._hess = 2.0 * self.cone[:, None, None] * (
            np.einsum("mki,mkj->mij", self.A, self.A)
            - np.einsum("mi,mj->mij", self.c, self.c))

    def _parts(self, x):
        return np.einsum("mkn,n->mk", self.A, x) - self.b, self.c @ x + self.d

    def value(self, x):
        r, t = self._parts(x)
        return np.where(self.cone, np.einsum("mk,mk->m", r, r) - t * t, -t)

    def grad(self, x):
        r, t = self._parts(x)
        g = 2.0 * (np.einsum("mkn,mk->mn", self.A, r) - t[:, None] * self.c)
        return np.where(self.cone[:, None], g, -self.c)

    def hess(self, x):
        return self._hess

    def interior(self, x):
        r, t = self._parts(x)
        return bool(np.all((t > 0.0) & (np.einsum("mk,mk->m", r, r) < t * t)))

    def margin(self, x):
        """Distance-to-violation of every row in the row's own units."""
        r, t = self._parts(x)
        return t - np.sqrt(np.einsum("mk,mk->m", r, r))

    def lifted(self):
        """The same rows in (x, s) with the slack s taken off every
        right-hand side: ||A_i x - b_i|| <= c_i.x + d_i - s."""
        m, k, _ = self.A.shape
        return ConeConstraint(np.concatenate([self.A, np.zeros((m, k, 1))], axis=2),
                              self.b, np.hstack([self.c, -np.ones((m, 1))]), self.d)

    def max_step(self, x, s):
        """Per row, the smallest alpha > 0 at which x + alpha*s reaches the
        row's boundary (inf where the ray never does), for interior x.

        Along the ray a row's value is the scalar polynomial
        a*alpha^2 + 2*h*alpha + v (linear for a half-space). With v < 0 its
        first positive root is -v / (h + sqrt(h^2 - a*v)), and there is
        none when that denominator is not positive. Inside a row the
        discriminant can be negative only with a < 0 and h < 0, where the
        denominator is negative anyway, so clipping it at zero against
        rounding changes no verdict.
        """
        r, t = self._parts(x)
        rs, ts = np.einsum("mkn,n->mk", self.A, s), self.c @ s
        v = self.value(x)
        a = np.where(self.cone, np.einsum("mk,mk->m", rs, rs) - ts * ts, 0.0)
        h = np.where(self.cone, np.einsum("mk,mk->m", r, rs) - t * ts, -0.5 * ts)
        den = h + np.sqrt(np.maximum(h * h - a * v, 0.0))
        with np.errstate(divide="ignore"):
            return np.where(den > 0.0, -v / den, np.inf)


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


def _barrier_maximize(objective, cons, x0, tol=1e-8, t0=1.0,
                      t_factor=10.0, max_newton=200):
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
    if not cons.interior(x):
        raise InfeasibleStartError(
            f"x0 not strictly feasible (worst margin {cons.margin(x).min():.3e})")

    eye = np.eye(x.size)
    t = t0
    newton_steps = 0
    while True:
        # minimize phi(x) = -t*obj + sum -log(-g_i)
        for _ in range(max_newton):
            vals = cons.value(x)
            inv = -1.0 / vals
            gci = cons.grad(x) * inv[:, None]
            grad = -t * objective.grad(x) + gci.sum(axis=0)
            H = (-t * objective.hess(x) + gci.T @ gci
                 + np.einsum("m,mij->ij", inv, cons.hess(x)))
            ridge = 0.0
            base = np.trace(H) / H.shape[0]
            while True:
                try:
                    L = np.linalg.cholesky(H + ridge * eye)
                    break
                except np.linalg.LinAlgError:
                    ridge = max(ridge * 10.0, 1e-12 * max(base, 1.0))
            step = -np.linalg.solve(L.T, np.linalg.solve(L, grad))
            decrement = float(-grad @ step)
            phi0 = -t * objective.value(x) - float(np.sum(np.log(-vals)))
            fuzz = 1e-11 * (1.0 + abs(phi0))
            if decrement <= 2.0 * fuzz:
                break
            slope = float(grad @ step)
            alpha = min(1.0, 0.99 * float(cons.max_step(x, step).min()))
            accepted = False
            for _ls in range(70):
                xn = x + alpha * step
                if cons.interior(xn):
                    phin = (-t * objective.value(xn)
                            - float(np.sum(np.log(-cons.value(xn)))))
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
            x = xn
            newton_steps += 1
            if not moved:
                break
        if m / t < tol:
            break
        t *= t_factor

    lam = 1.0 / (t * -cons.value(x))
    stat = objective.grad(x) - lam @ cons.grad(x)
    info = {
        "t": t,
        "newton_steps": newton_steps,
        "duals": lam,
        "kkt_residual": float(np.linalg.norm(stat, np.inf)),
        "gap_bound": m / t,
    }
    return x, info


def max_slack_point(cons, anchor, tol: float = 1e-9, s_cap: float | None = None):
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
    cap = s_cap
    if cap is None:
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
                              np.append(anchor, s0), tol=tol)
    return xs[:n], float(xs[n])


# ---------------------------------------------------------------------------
# fractional programming


@dataclass
class FractionalProgram:
    """max f(x)/g(x) with f concave, g convex and positive on the feasible set."""

    f: QuadraticObjective
    g: QuadraticObjective
    constraints: ConeConstraint


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
    f, g = fp.f, fp.g
    x = np.asarray(x0, dtype=float).copy()
    lam = 0.0
    trace = []
    for it in range(1, i_max + 1):
        obj = QuadraticObjective(f.c - lam * g.c, f.const - lam * g.const,
                                 np.concatenate([f.w, -lam * g.w]),
                                 np.vstack([f.u, g.u]))
        x, _ = _barrier_maximize(obj, fp.constraints, x, tol=inner_tol)
        fv, gv = f.value(x), g.value(x)
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
