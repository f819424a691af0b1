"""Small dense convex solvers used by the placement planner.

Nothing here is large scale: the programs have 3 or 4 variables (UAV
position, altitude, optional slack), so the tools are deliberately simple
and transparent. The power step needs no solver; its optimum is explicit
(see :func:`skycloak.planner.power_subproblem`).

- one stacked constraint type, rows ||A_i x - b_i|| <= c_i.x + d_i, every
  one a second-order-cone row with A_i nonzero; a slab lo <= a.x <= hi is
  the row ||a.x - (lo + hi)/2|| <= (hi - lo)/2;
- one objective type, const + c.x + a ||x||^2;
- a log-barrier Newton method over the stack, with a closed-form bound on
  the feasible step (Boyd & Vandenberghe, Convex Optimization, 9.5, 11.3);
  the barrier weight grows 50-fold per centring, and a centring ends when
  the Newton decrement vanishes or a step is accepted only through the
  line search's rounding allowance (the centring has stalled at
  floating-point resolution); each Newton system is solved by a Cholesky
  factorization on Python floats, written out for 3 and 4 variables, with
  a growing ridge when rounding leaves the Hessian singular or
  indefinite; a solve reports its central point at the second barrier
  weight, where a later solve over the same rows with a nearby objective
  can start;
- a max-slack interior point finder, and a Dinkelbach driver for
  concave/convex fractional objectives, whose rounds after the first
  start from the previous round's central point at the second weight.

The programs are small (a few dozen rows of k = 3, and n <= 4
variables), so a Newton step costs numpy's per-call overhead more than
arithmetic. The kernel makes few calls, and on a stack of two or more
rows gives the same bits as forming each quantity by a call of its own
(for one row numpy forms c.x by its dot kernel, which may round apart): the
stack holds [A; c] as one matrix, so a point's row parts come from one
product; the interior verdict is read off the row values already formed;
the step bound is one minimum taken in Python over the rows the ray
leaves; the row gradients use 2*A_i^T and 2*c formed once (doubling is
exact); the barrier carries its value from the accepted trial and takes
the slope as minus the decrement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverError",
    "ConeConstraint",
    "QuadraticObjective",
    "max_slack_point",
    "DinkelbachResult",
    "dinkelbach",
]


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# smooth convex programs: stacked SOC rows, log-barrier Newton


def _rowdot(p, q):
    """Row-wise dot products of two (m, k) arrays."""
    return np.matmul(p[:, None, :], q[:, :, None]).ravel()


@dataclass
class ConeConstraint:
    """Rows ||A_i x - b_i|| <= c_i.x + d_i with A of shape (m, k, n), m >= 1,
    and every A_i nonzero.

    A row has value ||A_i x - b_i||^2 - (c_i.x + d_i)^2, whose
    zero-sublevel set intersected with {c_i.x + d_i > 0} is the
    second-order cone; -log(-value) is then the canonical (convex,
    self-concordant, degree 2) SOC barrier even though the value itself
    is not convex. A slab lo <= a.x <= hi is the row ||a.x - mid|| <= half,
    mid = (lo + hi)/2 and half = (hi - lo)/2, with barrier
    -log(a.x - lo) - log(hi - a.x) (Boyd & Vandenberghe 11.6); its row
    parts round at the scale of mid and half, so it resolves a point's
    distance to an edge to about 2^-52 max(|lo|, |hi|). A row with A_i = 0
    (a half-space as a degenerate cone, its barrier counted twice and its
    exit step a double root) raises ValueError.

    The products the barrier solver needs per Newton step are formed once
    here from A, b and c, so those three are not to be changed afterwards.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        m, k, n = self.A.shape
        if m == 0:
            raise ValueError("a constraint stack needs at least one row")
        self.b = np.asarray(self.b, dtype=float).reshape(m, k)
        self.c = np.asarray(self.c, dtype=float).reshape(m, n)
        self.d = np.asarray(self.d, dtype=float).reshape(m)
        zero = np.flatnonzero(~np.any(self.A != 0.0, axis=(1, 2)))
        if zero.size:
            raise ValueError(f"row {zero[0]}: A_i = 0; every row is a "
                             "second-order-cone row with A_i nonzero")
        # one stacked matrix [A as (m*k, n); c], so that A x and c.x come
        # from one product
        self._mk = m * k
        self._Ac = np.vstack([self.A.reshape(m * k, n), self.c])
        # the row gradients' constants: per row 2*A_i^T, shape (m, n, k),
        # and 2*c (doubling is exact)
        self._A2T = np.ascontiguousarray(2.0 * self.A.transpose(0, 2, 1))
        self._c2 = 2.0 * self.c
        # the rows' value Hessians, constant in x
        self.hess = 2.0 * (np.einsum("mki,mkj->mij", self.A, self.A)
                           - np.einsum("mi,mj->mij", self.c, self.c))

    def rows(self, x):
        """(r, t, values, interior) at x from one evaluation of the row
        parts r = A x - b and t = c.x + d: every row's value and whether x
        lies strictly inside every row, t_i > 0 and ||r_i||^2 < t_i^2."""
        p = self._Ac @ x
        r = p[:self._mk].reshape(self.b.shape) - self.b
        t = p[self._mk:] + self.d
        vals = _rowdot(r, r) - t * t
        # in IEEE arithmetic rr < t^2 exactly when rr - t^2 < 0, NaN fails
        # both, and np.maximum and max propagate it: x is interior exactly
        # when every max(value_i, -t_i) < 0
        return r, t, vals, bool(np.maximum(vals, -t).max() < 0.0)

    def grad(self, r, t):
        """Every row's value gradient at the point with row parts r, t."""
        return np.matmul(self._A2T, r[:, :, None])[:, :, 0] - t[:, None] * self._c2

    def margin(self, x):
        """Distance-to-violation of every row in the row's own units."""
        r, t, _, _ = self.rows(x)
        return t - np.sqrt(_rowdot(r, r))

    def lifted(self, lo, cap):
        """The same rows in (x, s) with the slack s taken off every
        right-hand side, ||A_i x - b_i|| <= c_i.x + d_i - s, and then the
        slab lo <= s <= cap."""
        m, k, n = self.A.shape
        A = np.zeros((m + 1, k, n + 1))
        A[:m, :, :n] = self.A
        A[m, 0, n] = 1.0
        b = np.zeros((m + 1, k))
        b[:m] = self.b
        b[m, 0] = 0.5 * lo + 0.5 * cap
        c = np.zeros((m + 1, n + 1))
        c[:m, :n] = self.c
        c[:m, n] = -1.0
        return ConeConstraint(A, b, c, np.append(self.d, 0.5 * cap - 0.5 * lo))

    def step_bound(self, r, t, v, s):
        """The smallest alpha > 0 at which x + alpha*s reaches the boundary
        of some row (inf when the ray stays inside every row), for an
        interior x whose ``rows(x)`` gave r, t and the values v.

        Along the ray a row's value is the scalar polynomial
        a*alpha^2 + 2*h*alpha + v. With v < 0 its
        first positive root is -v / (h + sqrt(h^2 - a*v)), and there is
        none when that denominator is not positive. Inside a row the
        discriminant can be negative only with a < 0 and h < 0, where the
        denominator is negative anyway, so clipping it at zero against
        rounding changes no verdict.
        """
        p = self._Ac @ s
        rs, ts = p[:self._mk].reshape(self.b.shape), p[self._mk:]
        a = _rowdot(rs, rs) - ts * ts
        h = _rowdot(r, rs) - t * ts
        den = h + np.sqrt(np.maximum(h * h - a * v, 0.0))
        # the roots in Python floats over the rows with a root: for a few
        # dozen rows this beats a masked divide and a reduction
        return min((-vi / di for vi, di in zip(v.tolist(), den.tolist())
                    if di > 0.0), default=math.inf)


@dataclass
class QuadraticObjective:
    """const + c.x + a*(x.x), concave iff a <= 0; ``c`` an array.

    The value is summed as const + (c + a*x).x, so a linear objective
    (a = 0) forms no x.x, which can overflow where c.x does not."""

    c: np.ndarray
    const: float = 0.0
    a: float = 0.0

    def value(self, x):
        return self.const + float((self.c + self.a * x) @ x)

    def grad(self, x):
        return self.c + 2.0 * self.a * x

    def hess(self, x):
        return 2.0 * self.a * np.eye(x.size)


def _cholesky_solve(a, g, ridge):
    """y with (a + ridge*I) y = g for a Python list-of-lists a, by a
    Cholesky factorization L L^T and the solves L z = g, L^T y = z; None
    when a pivot is not > 0 (a NaN pivot fails)."""
    n = len(g)
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
            return None
        li.append(math.sqrt(v))
        L.append(li)
    z = list(g)
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
    return z


def _cholesky_solve3(a, g, ridge):
    """``_cholesky_solve`` for n = 3, written out: the same operations in
    the same order, so the same bits."""
    (a00, _, _), (a10, a11, _), (a20, a21, a22) = a
    v = a00 + ridge
    if not v > 0.0:
        return None
    l00 = math.sqrt(v)
    l10 = a10 / l00
    v = a11 + ridge
    v -= l10 * l10
    if not v > 0.0:
        return None
    l11 = math.sqrt(v)
    l20 = a20 / l00
    l21 = (a21 - l20 * l10) / l11
    v = a22 + ridge
    v -= l20 * l20
    v -= l21 * l21
    if not v > 0.0:
        return None
    l22 = math.sqrt(v)
    g0, g1, g2 = g
    z0 = g0 / l00
    z1 = (g1 - l10 * z0) / l11
    z2 = (g2 - l20 * z0 - l21 * z1) / l22
    y2 = z2 / l22
    y1 = (z1 - l21 * y2) / l11
    return [(z0 - l10 * y1 - l20 * y2) / l00, y1, y2]


def _cholesky_solve4(a, g, ridge):
    """``_cholesky_solve`` for n = 4, written out: the same operations in
    the same order, so the same bits."""
    (a00, _, _, _), (a10, a11, _, _), (a20, a21, a22, _), (a30, a31, a32, a33) = a
    v = a00 + ridge
    if not v > 0.0:
        return None
    l00 = math.sqrt(v)
    l10 = a10 / l00
    v = a11 + ridge
    v -= l10 * l10
    if not v > 0.0:
        return None
    l11 = math.sqrt(v)
    l20 = a20 / l00
    l21 = (a21 - l20 * l10) / l11
    v = a22 + ridge
    v -= l20 * l20
    v -= l21 * l21
    if not v > 0.0:
        return None
    l22 = math.sqrt(v)
    l30 = a30 / l00
    l31 = (a31 - l30 * l10) / l11
    l32 = (a32 - l30 * l20 - l31 * l21) / l22
    v = a33 + ridge
    v -= l30 * l30
    v -= l31 * l31
    v -= l32 * l32
    if not v > 0.0:
        return None
    l33 = math.sqrt(v)
    g0, g1, g2, g3 = g
    z0 = g0 / l00
    z1 = (g1 - l10 * z0) / l11
    z2 = (g2 - l20 * z0 - l21 * z1) / l22
    z3 = (g3 - l30 * z0 - l31 * z1 - l32 * z2) / l33
    y3 = z3 / l33
    y2 = (z2 - l32 * y3) / l22
    y1 = (z1 - l21 * y2 - l31 * y3) / l11
    return [(z0 - l10 * y1 - l20 * y2 - l30 * y3) / l00, y1, y2, y3]


# the placement programs have 3 variables, their max-slack lifts 4
_CHOLESKY_SOLVES = {3: _cholesky_solve3, 4: _cholesky_solve4}


def _newton_solve(H, g):
    """y with (H + ridge*I) y = g, from a Cholesky factorization on Python
    floats (the systems are 3x3 or 4x4, where numpy's per-call overhead
    dominates LAPACK's arithmetic; those two sizes run written-out
    factorizations).

    ridge is the first of 0, then 1e-12 * max(trace(H)/n, 1) * 10^j for
    j = 0, 1, ..., at which every pivot comes out > 0 (a NaN pivot fails);
    it keeps the step a descent direction when rounding leaves the
    barrier Hessian singular or slightly indefinite.
    """
    a, g = H.tolist(), g.tolist()
    n = len(g)
    solve = _CHOLESKY_SOLVES.get(n, _cholesky_solve)
    ridge = 0.0
    while (y := solve(a, g, ridge)) is None:
        if ridge:
            ridge *= 10.0
        else:
            ridge = 1e-12 * max(sum(a[i][i] for i in range(n)) / n, 1.0)
        if not ridge < math.inf:
            raise SolverError("Newton system does not factor at any finite ridge")
    return np.array(y)


# barrier schedule: start weight, growth factor, Newton steps per centring
_T0 = 1.0
_T_FACTOR = 50.0
_MAX_NEWTON = 200
# duality-gap bound of the max-slack and Dinkelbach barrier solves
_GAP_TOL = 1e-9


def _barrier_maximize(objective, cons, x0, tol=1e-8, _warm=None):
    """Maximize a smooth concave objective over a constraint stack via log barrier.

    Outer loop multiplies the barrier weight by ``_T_FACTOR`` (50) until
    m/t < tol for the m rows; inner loop is damped Newton with an Armijo
    backtracking line search that starts just inside the closed-form
    largest feasible step and also checks strict feasibility. The inner
    loop ends when the Newton decrement vanishes (the iterate is centred),
    when an accepted step passed the Armijo test only through its rounding
    allowance ``fuzz`` (which includes a step that leaves x unchanged), or
    after ``_MAX_NEWTON`` steps. Returns (x, info).

    Every row's barrier has degree 2, so the barrier's degree is 2m, and
    after a centring that ended on the decrement test objective + 2m/t
    bounds the optimum from above (Boyd & Vandenberghe 11.6): at the stop
    the gap is below 2*tol. A centring cut by the step cap or by the
    rounding allowance carries no such bound.

    ``info`` holds the final weight ``t``, the accepted ``newton_steps``
    and ``warm``: the point where the centring at weight
    ``_T0*_T_FACTOR`` ended on the decrement test, or None when that
    centring ended otherwise or never ran. A later solve over the same
    rows with another objective passes it as ``_warm``: the solve then
    starts there at weight ``_T0*_T_FACTOR``, skipping the centring at
    ``_T0``, unless the point is not strictly inside every row, when it
    starts from x0 at ``_T0`` as without ``_warm``.
    """
    m = cons.A.shape[0]
    t_warm = _T0 * _T_FACTOR
    t, x = _T0, None
    if _warm is not None:
        r, u, vals, inside = cons.rows(_warm)
        if inside:
            t, x = t_warm, np.array(_warm, dtype=float)
    if x is None:
        x = np.asarray(x0, dtype=float).copy()
        r, u, vals, inside = cons.rows(x)
        if not inside:
            raise SolverError(
                f"x0 not strictly feasible (worst margin {cons.margin(x).min():.3e})")

    n = x.size
    obj_hess = objective.hess(x)  # constant, as are the rows' cons.hess
    row_hess = cons.hess.reshape(m, n * n)
    fx = objective.value(x)
    logs = float(np.log(-vals).sum())
    newton_steps = 0
    warm = None
    while True:
        # minimize phi(x) = -t*obj + sum -log(-g_i); the row parts
        # r = A x - b, u = c.x + d, the row values, their log-sum and the
        # objective value at x are those of the trial point accepted last
        centred = False
        obj_hess_t = -t * obj_hess
        for _ in range(_MAX_NEWTON):
            inv = -1.0 / vals
            gci = cons.grad(r, u) * inv[:, None]
            grad = -t * objective.grad(x) + gci.sum(axis=0)
            H = obj_hess_t + gci.T @ gci + (inv @ row_hess).reshape(n, n)
            # the Newton step is -y, its decrement grad.y and the Armijo
            # slope -grad.y
            y = _newton_solve(H, grad)
            step = -y
            decrement = float(grad @ y)
            phi0 = -t * fx - logs
            fuzz = 1e-11 * (1.0 + abs(phi0))
            if decrement <= 2.0 * fuzz:
                centred = True
                break
            slope = -decrement
            alpha = min(1.0, 0.99 * cons.step_bound(r, u, vals, step))
            accepted = False
            for _ls in range(70):
                xn = x + alpha * step
                rn, un, valsn, inside = cons.rows(xn)
                if inside:
                    fn = objective.value(xn)
                    logsn = float(np.log(-valsn).sum())
                    phin = -t * fn - logsn
                    # the fuzz term absorbs cancellation noise in t*objective
                    # when the combined objective is itself a near-zero
                    # difference of large terms (Dinkelbach residuals)
                    if phin <= phi0 + 0.25 * alpha * slope + fuzz:
                        accepted = True
                        break
                alpha *= 0.5
            if not accepted:
                if decrement > 1e-2 * (1.0 + abs(phi0)):
                    raise SolverError(
                        f"no acceptable step with decrement {decrement:.3e}")
                break  # progress is below floating-point resolution at this t
            x, r, u, vals, fx, logs = xn, rn, un, valsn, fn, logsn
            newton_steps += 1
            if phin - phi0 > 0.25 * alpha * slope:
                # accepted only through the fuzz term: the centring has
                # stalled at floating-point resolution. Taken as a
                # difference, the test also holds for a step that leaves x
                # unchanged when 0.25*alpha*slope is below phi0's ulp
                break
        if t == t_warm and centred:
            warm = x
        if m / t < tol:
            break
        t *= _T_FACTOR
    return x, {"t": t, "newton_steps": newton_steps, "warm": warm}


def max_slack_point(cons, anchor):
    """Chebyshev-style strictly feasible point: maximize the minimum slack.

    The slack variable is taken off the right-hand side of every row
    (||Ax-b|| <= c.x+d-s), which keeps the lifted problem a plain SOC
    program; a slab on s up to a cap keeps it bounded, and the anchor
    with s = s0, 1 below its worst margin, is always strictly feasible,
    so no further phase is needed. Returns (x, s_star);
    s_star > 0 certifies a strictly feasible interior, and s_star <= 0
    says, up to the solve's duality gap, that there is none.
    """
    anchor = np.asarray(anchor, dtype=float)
    n = anchor.size
    margins = cons.margin(anchor)
    s0 = margins.min() - 1.0
    # bound s so the lifted program cannot be unbounded; the slab rounds
    # at the cap's scale, so its lower edge sits 1e-12 * cap or more below s0
    cap = max(abs(s0), np.abs(margins).max(), 1.0) * 10.0 + 1.0
    lo = s0 - max(1.0, 1e-12 * cap)
    e_s = np.zeros(n + 1)
    e_s[n] = 1.0
    xs, _ = _barrier_maximize(QuadraticObjective(e_s), cons.lifted(lo, cap),
                              np.append(anchor, s0), tol=_GAP_TOL)
    return xs[:n], float(xs[n])


# ---------------------------------------------------------------------------
# fractional programming


@dataclass
class DinkelbachResult:
    x: np.ndarray
    lam: float
    converged: bool
    lam_trace: list

    @property
    def iterations(self) -> int:
        """Rounds run: one per ratio after the start's."""
        return len(self.lam_trace) - 1


def dinkelbach(f: QuadraticObjective, g: QuadraticObjective,
               cons: ConeConstraint, x0, delta: float = 1e-6,
               i_max: int = 50, lam_max: float = math.inf) -> DinkelbachResult:
    """Dinkelbach iteration for max f(x)/g(x) starting from strictly
    feasible x0, with f concave and g convex and positive over ``cons``.

    lam starts at max(0, f(x0)/g(x0)) (Dinkelbach 1967), which is
    ``lam_trace[0]``; each round maximizes f - lam*g over ``cons`` and
    stops once |f - lam_prev*g| < delta at the new point, or once lam
    reaches ``lam_max`` (for a caller that clamps the ratio there, any
    point past the clamp is as good as the optimum). A start ratio that
    already reaches ``lam_max`` returns x0 after 0 rounds. The returned
    lam is f(x)/g(x) at the returned point. Non-convergence within i_max
    is flagged, not raised.

    x0 need not have f(x0) >= 0: every round has lam >= 0, so f - lam*g
    stays concave. A round from lam > 0 ends at a ratio >= lam, so in
    exact arithmetic only the round from lam = 0, which maximizes f
    itself, can end at a ratio <= 0; then f <= 0 on all of ``cons`` (up
    to the barrier's duality gap) and no point has a positive ratio. A
    round that ends at a ratio <= 0 stops the iteration, with that lam
    and ``converged`` False.

    Round 1 starts the barrier solver cold from x0. Every later round
    maximizes over the same ``cons`` and starts from the previous round's
    central point at the second barrier weight, at that weight; a round
    without such a point (that centring did not end centred), or whose
    point is not strictly interior, starts cold from the previous
    round's answer.
    """
    x = np.asarray(x0, dtype=float).copy()
    gv = g.value(x)
    if gv <= 0.0:
        raise SolverError(f"denominator nonpositive ({gv:.3e}) at the start point")
    lam = max(0.0, f.value(x) / gv)
    trace = [lam]
    if lam >= lam_max:
        return DinkelbachResult(x=x, lam=lam, converged=True, lam_trace=trace)
    warm = None
    for it in range(1, i_max + 1):
        obj = QuadraticObjective(f.c - lam * g.c, f.const - lam * g.const,
                                 f.a - lam * g.a)
        x, info = _barrier_maximize(obj, cons, x, tol=_GAP_TOL, _warm=warm)
        warm = info["warm"]
        fv, gv = f.value(x), g.value(x)
        if gv <= 0.0:
            raise SolverError(f"denominator nonpositive ({gv:.3e}) at iterate {it}")
        F = fv - lam * gv
        lam = fv / gv
        trace.append(lam)
        if lam <= 0.0 or abs(F) < delta or lam >= lam_max:
            return DinkelbachResult(x=x, lam=lam, converged=lam > 0.0,
                                    lam_trace=trace)
    return DinkelbachResult(x=x, lam=lam, converged=False, lam_trace=trace)
