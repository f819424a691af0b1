"""Log-barrier SOC solver, max-slack point, Dinkelbach iteration."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import benchmark_corpus
from skycloak import planner, solvers
from skycloak.cli import _run_planner
from skycloak.scenario_io import load_scenario
from skycloak.solvers import (ConeConstraint, DinkelbachResult,
                              QuadraticObjective, SolverError,
                              _barrier_maximize, _newton_solve, dinkelbach,
                              max_slack_point)


def ball(center, radius):
    """Row ||x - center|| <= radius as (A, b, c, d)."""
    center = np.asarray(center, dtype=float)
    return np.eye(center.size), center, np.zeros(center.size), radius


def slab(a, lo, hi):
    """Row lo <= a.x <= hi as (A, b, c, d): ||a.x - mid|| <= half."""
    a = np.asarray(a, dtype=float)
    return a[None, :], 0.5 * (lo + hi), np.zeros(a.size), 0.5 * (hi - lo)


def stack(*rows):
    """One ConeConstraint from (A, b, c, d) rows, A padded to a common k."""
    k = max(np.atleast_2d(A).shape[0] for A, _, _, _ in rows)
    n = np.atleast_2d(rows[0][0]).shape[1]
    A = np.zeros((len(rows), k, n))
    b = np.zeros((len(rows), k))
    for i, (Ai, bi, _, _) in enumerate(rows):
        Ai = np.atleast_2d(Ai)
        A[i, :Ai.shape[0]] = Ai
        b[i, :Ai.shape[0]] = bi
    return ConeConstraint(A, b, [r[2] for r in rows], [r[3] for r in rows])


# ---------------------------------------------------------------------------
# the constraint stack


def inside(cons, x):
    return cons.rows(x)[3]


def exit_step(cons, x, s):
    """Closed-form exit step of the ray x + alpha*s from the stack."""
    r, t, v, _ = cons.rows(x)
    return cons.step_bound(r, t, v, np.asarray(s, dtype=float))


def brute_exit(cons, x, s, far=1e9):
    """Exit step of the ray x + alpha*s by bisection on the interior
    test; inf when the ray is still inside at alpha = far."""
    if inside(cons, x + far * s):
        return np.inf
    lo, hi = 0.0, 1e-6
    while inside(cons, x + hi * s):
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if inside(cons, x + mid * s) else (lo, mid)
    return hi


def random_row(rng, n, kind):
    """A random cone, ball or slab row and a point strictly inside it."""
    x = rng.normal(size=n)
    if kind == "cone":
        A, b, c = rng.normal(size=(2, n)), rng.normal(size=2), rng.normal(size=n)
        d = np.linalg.norm(A @ x - b) - c @ x + rng.uniform(0.1, 2.0)
        return (A, b, c, d), x
    if kind == "ball":
        center = x + rng.normal(size=n)
        return ball(center, np.linalg.norm(x - center) + rng.uniform(0.1, 2.0)), x
    a = rng.normal(size=n)
    return slab(a, a @ x - rng.uniform(0.1, 2.0), a @ x + rng.uniform(0.1, 2.0)), x


def assert_exit_steps(cons, x, s):
    """The stack's step bound and each row's, alone, match bisection."""
    for i in range(cons.A.shape[0]):
        row = ConeConstraint(cons.A[i:i + 1], cons.b[i:i + 1],
                             cons.c[i:i + 1], cons.d[i:i + 1])
        got, want = exit_step(row, x, s), brute_exit(row, x, s)
        if np.isinf(want):
            assert got > 1e9
        else:
            assert got == pytest.approx(want, rel=1e-8)
    assert exit_step(cons, x, s) == pytest.approx(brute_exit(cons, x, s),
                                                  rel=1e-8)


def test_max_step_matches_bisection_on_interior():
    rng = np.random.default_rng(11)
    for kind in ("cone", "ball", "slab"):
        for _ in range(30):
            row, x = random_row(rng, 3, kind)
            assert_exit_steps(stack(row), x, rng.normal(size=3))


def test_max_step_on_a_lifted_stack():
    # cones, a ball and a slab in R^3 lifted to (x, slack), with a slab
    # on the slack
    rng = np.random.default_rng(12)
    for _ in range(20):
        rows, xs = zip(*(random_row(rng, 3, kind) for kind in
                         ("cone", "cone", "ball", "slab")))
        cons = stack(*rows)
        x = xs[0]
        # shift every right-hand side so xs[0] is inside all rows
        cons.d += np.maximum(0.0, -cons.margin(x)) + 0.5
        z = np.append(x, cons.margin(x).min() - rng.uniform(0.1, 1.0))
        lifted = cons.lifted(z[-1] - 1.0, z[-1] + 1.0)
        assert inside(lifted, z)
        assert_exit_steps(lifted, z, rng.normal(size=4))


def test_max_step_is_inf_on_rays_that_stay_inside():
    # the cone ||(x1, x2)|| <= x3 keeps every ray whose direction lies in
    # the cone, and a slab every ray parallel to its boundaries
    cone = stack((np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.zeros(2),
                  np.array([0.0, 0.0, 1.0]), 0.0))
    x = np.array([0.1, -0.2, 1.0])
    for s in ([0.0, 0.0, 1.0], [0.3, 0.0, 1.0], [0.0, 0.0, 0.0]):
        assert exit_step(cone, x, s) == np.inf
    band = stack(slab([1.0, 2.0], -3.0, 3.0))
    for s in ([2.0, -1.0], [-4.0, 2.0], [0.0, 0.0]):
        assert exit_step(band, np.zeros(2), s) == np.inf
    assert exit_step(band, np.zeros(2), [1.0, 0.0]) == 3.0
    assert exit_step(band, np.zeros(2), [-1.0, 0.0]) == 3.0
    # the stack's bound is its first row exit along the ray
    both = stack(slab([1.0, 0.0], -3.0, 3.0), slab([1.0, 1.0], -2.0, 2.0))
    assert exit_step(both, np.zeros(2), [1.0, 0.0]) == 2.0


def reference_grads(cons, x):
    """Row value gradients written out per row: 2(A_i^T(A_i x - b_i)
    - (c_i.x + d_i) c_i)."""
    return np.array([2.0 * (A.T @ (A @ x - b) - (c @ x + d) * c)
                     for A, b, c, d in zip(cons.A, cons.b, cons.c, cons.d)])


def test_row_gradients_match_the_per_row_formula():
    rng = np.random.default_rng(13)
    kinds = ("cone", "ball", "slab")
    for _ in range(20):
        rows, _ = zip(*(random_row(rng, 3, kinds[j]) for j in
                        rng.integers(0, 3, size=int(rng.integers(1, 6)))))
        cons = stack(*rows)
        for c, x in ((cons, rng.normal(size=3)),
                     (cons.lifted(-10.0, 10.0), rng.normal(size=4))):
            got = c.grad(*c.rows(x)[:2])
            assert_allclose(got, reference_grads(c, x), rtol=1e-12,
                            atol=1e-12 * np.abs(got).max())


def test_zero_row_is_rejected():
    # a row with A_i = 0 is a half-space written as a degenerate cone;
    # every row must be a second-order-cone row, whatever its b_i
    ball2 = ball(np.zeros(2), 2.0)
    for b in ([5.0, 0.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match=r"row 1: A_i = 0"):
            stack(ball2, (np.zeros((2, 2)), b, [1.0, 0.0], 0.0))
    with pytest.raises(ValueError, match=r"row 0: A_i = 0"):
        ConeConstraint(np.zeros((1, 1, 2)), np.zeros((1, 1)), [[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError, match="at least one row"):
        ConeConstraint(np.zeros((0, 2, 2)), np.zeros((0, 2)), np.zeros((0, 2)),
                       np.zeros(0))


def test_slab_row_is_the_two_half_spaces():
    # the slab row's barrier -log(-value) is -log(a.x - lo) - log(hi - a.x),
    # and its margin the nearer of the two distances, in a.x's units
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=n)
        lo, hi = np.sort(rng.normal(scale=10.0, size=2))
        cons = stack(slab(a, lo, hi), ball(np.zeros(n), 1e6))
        for _ in range(5):
            x = rng.normal(size=n)
            v = a @ x
            x *= rng.uniform(lo, hi) / v  # a.x now lies in (lo, hi)
            v = a @ x
            _, _, vals, interior = cons.rows(x)
            assert interior
            assert -vals[0] == pytest.approx((v - lo) * (hi - v), rel=1e-9)
            assert cons.margin(x)[0] == pytest.approx(
                min(v - lo, hi - v), rel=1e-9, abs=1e-12 * (abs(lo) + abs(hi)))
        for v in (lo - 1e-3, hi + 1e-3):
            assert not inside(cons, a * (v / (a @ a)))


# ---------------------------------------------------------------------------
# the Newton system


def reference_ridge(H):
    """The first of 0, 1e-12*max(trace/n, 1)*10^j at which numpy's
    Cholesky factors H + ridge*I."""
    n = H.shape[0]
    floor = 1e-12 * max(np.trace(H) / n, 1.0)
    ridge = 0.0
    while True:
        try:
            np.linalg.cholesky(H + ridge * np.eye(n))
            return ridge
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, floor)


def test_newton_solve_matches_numpy_on_spd_systems():
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 4):
        for _ in range(50):
            M = rng.normal(size=(n, n))
            H = M @ M.T + rng.uniform(1e-3, 1.0) * np.eye(n)
            g = rng.normal(size=n)
            assert reference_ridge(H) == 0.0
            L = np.linalg.cholesky(H)
            want = np.linalg.solve(L.T, np.linalg.solve(L, g))
            assert_allclose(_newton_solve(H, g), want, rtol=1e-12,
                            atol=1e-12 * np.abs(want).max())


def test_newton_solve_ridges_singular_and_indefinite_systems():
    g = np.array([1.0, -2.0, 0.5])
    # singular PSD: the second pivot is exactly 0, so ridge 0 fails and
    # the first nonzero ridge 1e-12*(4/3) factors
    singular = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
    # indefinite with trace 0: the ridges run 1e-12, 1e-11, ..., and the
    # first to factor is 10
    indefinite = np.array([[2.0, 0.5, 0.0], [0.5, -5.0, 0.2], [0.0, 0.2, 3.0]])
    for H in (singular, indefinite):
        ridge = reference_ridge(H)
        assert ridge > 0.0
        want = np.linalg.solve(H + ridge * np.eye(3), g)
        assert_allclose(_newton_solve(H, g), want, rtol=1e-12)
    assert reference_ridge(singular) == 1e-12 * (4.0 / 3.0)
    assert reference_ridge(indefinite) == pytest.approx(10.0, rel=1e-12)


def test_newton_solve_raises_where_no_ridge_factors():
    H = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(SolverError, match="does not factor"):
        _newton_solve(H, np.ones(2))


# ---------------------------------------------------------------------------
# barrier solver


def maximize_linear(c, constraints, x0):
    """Maximize c.x over the constraints from x0; returns (x*, c.x*)."""
    x, _ = _barrier_maximize(QuadraticObjective(c), constraints, x0, tol=1e-10)
    return x, float(np.asarray(c) @ x)


def test_barrier_ball_supporting_hyperplane():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        center = rng.normal(size=n)
        radius = rng.uniform(0.5, 2.0)
        c = rng.normal(size=n)
        x, val = maximize_linear(c, stack(ball(center, radius)), center)
        want_x = center + radius * c / np.linalg.norm(c)
        assert_allclose(x, want_x, atol=5e-7)
        assert val == pytest.approx(float(c @ want_x), abs=1e-8)


def test_barrier_cone_and_slab():
    # max x1 inside ||(x1,x2)|| <= x3/2 with 1 <= x3 <= 4: optimum (2, 0, 4)
    x, val = maximize_linear(np.array([1.0, 0.0, 0.0]), warm_start_stack()[0],
                             np.array([0.1, 0.0, 3.0]))
    assert_allclose(x, [2.0, 0.0, 4.0], atol=1e-5)
    assert val == pytest.approx(2.0, abs=1e-6)


def warm_start_stack_decrement(x, t):
    """Newton decrement squared and value of the barrier
    phi = -t x1 - log(-v1) - log(-v2) of ``warm_start_stack`` at x, from
    its two rows written out: v1 = x1^2 + x2^2 - x3^2/4 and
    v2 = (x3 - 5/2)^2 - (3/2)^2."""
    x1, x2, x3 = x
    vals = (x1 * x1 + x2 * x2 - x3 * x3 / 4.0, (x3 - 2.5) ** 2 - 2.25)
    grads = (np.array([2 * x1, 2 * x2, -x3 / 2]), np.array([0, 0, 2 * (x3 - 2.5)]))
    hessians = (np.diag([2.0, 2.0, -0.5]), np.diag([0.0, 0.0, 2.0]))
    g = np.array([-t, 0.0, 0.0])
    H = np.zeros((3, 3))
    for v, dv, d2v in zip(vals, grads, hessians):
        g += dv / -v
        H += np.outer(dv, dv) / (v * v) + d2v / -v
    phi = -t * x1 - sum(math.log(-v) for v in vals)
    return float(g @ np.linalg.solve(H, g)), phi


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_barrier_gap_is_within_two_per_row(tol):
    # every row has barrier degree 2, so a solve whose last centring ended
    # centred, at the first weight with m/t < tol, is within 2m/t of the
    # optimum, here 2 with m = 2 rows. The bound holds only for a centred
    # point, so the decrement at the returned point is checked first
    cons, x0 = warm_start_stack()
    x, info = _barrier_maximize(QuadraticObjective(np.array([1.0, 0.0, 0.0])),
                                cons, x0, tol=tol)
    assert info.keys() == {"t", "newton_steps", "warm"}
    t = info["t"]
    assert 2 / t < tol <= 2 / (t / solvers._T_FACTOR)
    decrement, phi = warm_start_stack_decrement(x, t)
    assert decrement <= 2e-11 * (1.0 + abs(phi))
    assert 0.0 < 2.0 - x[0] <= 2 * 2 / t


def test_barrier_two_ball_intersection_vs_grid():
    lens = stack(ball([-0.5, 0.0], 1.0), ball([0.5, 0.0], 1.0))
    c = np.array([0.3, 1.0])
    x, val = maximize_linear(c, lens, np.zeros(2))
    assert lens.margin(x).min() > -1e-9
    # dense-grid oracle over the lens
    xs = np.linspace(-0.6, 0.6, 1201)
    ys = np.linspace(0.0, 1.0, 1001)
    X, Y = np.meshgrid(xs, ys)
    feas = ((X + 0.5) ** 2 + Y ** 2 <= 1.0) & ((X - 0.5) ** 2 + Y ** 2 <= 1.0)
    vals = c[0] * X + c[1] * Y
    vals[~feas] = -np.inf
    assert val >= vals.max() - 1e-5
    assert val <= vals.max() + 1e-2  # grid resolution slack


def squares(n, const=0.0, w=(), u=(), c=None):
    """const + c.x + sum_k w_k ||x - u_k||^2 expanded as a
    QuadraticObjective: a = sum w_k, c - 2 sum w_k u_k and
    const + sum w_k ||u_k||^2."""
    w = np.asarray(w, dtype=float)
    u = np.asarray(u, dtype=float).reshape(w.size, n)
    c = np.zeros(n) if c is None else np.asarray(c, dtype=float)
    return QuadraticObjective(c - 2.0 * (w @ u),
                              const + float(w @ np.sum(u * u, axis=1)),
                              float(w.sum()))


def direct(c, const, w, u):
    """The value, gradient and Hessian at x of
    const + c.x + sum_k w_k ||x - u_k||^2, written out term by term."""
    def at(x):
        value = const + c @ x + sum(wk * (x - uk) @ (x - uk)
                                    for wk, uk in zip(w, u))
        grad = c + sum(2.0 * wk * (x - uk) for wk, uk in zip(w, u))
        return value, grad, 2.0 * sum(w) * np.eye(x.size)
    return at


def assert_objective(obj, at, x):
    value, grad, hess = at(x)
    scale = 1.0 + abs(value) + 10.0 * (x @ x)
    assert obj.value(x) == pytest.approx(value, rel=0.0, abs=1e-13 * scale)
    assert_allclose(obj.grad(x), grad, rtol=1e-12, atol=1e-12 * scale)
    assert_allclose(obj.hess(x), hess, rtol=1e-12, atol=1e-15)


def test_quadratic_objective_matches_the_sum_of_squares():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        for k in (0, 1, 4):
            c, const = rng.normal(size=n), rng.normal()
            w, u = rng.normal(size=k), rng.normal(size=(k, n))
            obj = squares(n, const, w, u, c)
            for x in rng.normal(scale=3.0, size=(5, n)):
                assert_objective(obj, direct(c, const, w, u), x)
    # a linear objective's value and gradient are c.x and c to the bit
    c, x = rng.normal(size=3), rng.normal(size=3)
    linear = QuadraticObjective(c, const=2.0)
    assert linear.value(x) == 2.0 + float(c @ x)
    assert np.array_equal(linear.grad(x), c)
    assert np.array_equal(linear.hess(x), np.zeros((3, 3)))


def test_dinkelbach_parametric_objective_matches_the_sum_of_squares(monkeypatch):
    # each round's f - lam*g, formed field by field, against the two
    # sums of squares combined term by term
    rng = np.random.default_rng(16)
    seen = []

    def recording(objective, cons, x0, **kwargs):
        seen.append((objective, x0))
        return _barrier_maximize(objective, cons, x0, **kwargs)

    fw, fu = -rng.uniform(0.5, 1.0, size=3), rng.normal(size=(3, 2))
    gw, gu = np.array([1.0]), np.array([[4.0, 0.0]])
    f, g = squares(2, 10.0, fw, fu), squares(2, 1.0, gw, gu)
    cons = stack(ball(np.zeros(2), 1.5))
    monkeypatch.setattr(solvers, "_barrier_maximize", recording)
    res = dinkelbach(f, g, cons, np.array([0.2, -0.1]), delta=1e-10)
    assert res.converged and len(seen) == len(res.lam_trace) - 1 >= 2
    for (obj, _), lam in zip(seen, res.lam_trace):
        at = direct(np.zeros(2), 10.0 - lam * 1.0, np.concatenate([fw, -lam * gw]),
                    np.vstack([fu, gu]))
        for x in rng.normal(size=(5, 2)):
            assert_objective(obj, at, x)


def warm_start_stack():
    """The cone ||(x1,x2)|| <= x3/2 with 1 <= x3 <= 4, and x0 inside."""
    cone = (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.zeros(2),
            np.array([0.0, 0.0, 0.5]), 0.0)
    return stack(cone, slab([0.0, 0.0, 1.0], 1.0, 4.0)), np.array([0.1, 0.0, 3.0])


def test_warm_start_resumes_at_the_second_weight():
    cons, x0 = warm_start_stack()
    _, first = _barrier_maximize(QuadraticObjective([1.0, 0.0, 0.0]), cons, x0)
    warm = first["warm"]
    assert warm is not None and inside(cons, warm)
    # a nearby objective, as the next round of a linearization sequence
    a = 0.1
    obj = QuadraticObjective([math.cos(a), math.sin(a), 0.0])
    x_cold, cold = _barrier_maximize(obj, cons, x0)
    x_warm, info = _barrier_maximize(obj, cons, x0, _warm=warm)
    assert_allclose(x_warm, x_cold, atol=1e-9)
    assert_allclose(x_warm, [2.0 * math.cos(a), 2.0 * math.sin(a), 4.0],
                    atol=1e-5)
    assert info["newton_steps"] < cold["newton_steps"]
    assert info["warm"] is not None


def test_warm_start_off_the_interior_runs_cold():
    cons, x0 = warm_start_stack()
    obj = QuadraticObjective([0.6, 0.8, 0.0])
    x_cold, cold = _barrier_maximize(obj, cons, x0)
    # outside the cone, and on its boundary
    for bad in ([3.0, 0.0, 3.0], [1.5, 0.0, 3.0]):
        x, info = _barrier_maximize(obj, cons, x0, _warm=np.array(bad))
        assert np.array_equal(x, x_cold)
        assert info["newton_steps"] == cold["newton_steps"]
        assert info["t"] == cold["t"]


def test_no_warm_point_from_a_centring_cut_at_the_step_cap(monkeypatch):
    cons, x0 = warm_start_stack()
    monkeypatch.setattr(solvers, "_MAX_NEWTON", 1)
    _, info = _barrier_maximize(QuadraticObjective([1.0, 0.0, 0.0]), cons, x0)
    assert info["warm"] is None


def test_barrier_rejects_infeasible_start():
    with pytest.raises(SolverError, match="x0 not strictly feasible"):
        maximize_linear(np.array([1.0, 0.0]),
                        stack(ball(np.zeros(2), 1.0)),
                        np.array([5.0, 0.0]))


def test_max_slack_two_balls():
    # overlapping balls: deepest point is the origin with slack 0.5
    cons = stack(ball([-0.5, 0.0], 1.0), ball([0.5, 0.0], 1.0))
    x, s = max_slack_point(cons, np.array([0.3, 0.2]))
    assert_allclose(x, [0.0, 0.0], atol=1e-5)
    assert s == pytest.approx(0.5, abs=1e-6)
    # disjoint balls: certified empty interior (negative best slack)
    cons = stack(ball([-1.5, 0.0], 1.0), ball([1.5, 0.0], 1.0))
    _, s = max_slack_point(cons, np.zeros(2))
    assert s < 0.0
    # the slab 0 <= x1 <= 10 with the unit ball around (1,0): the ball
    # center is 1 deep in both, so it is the max-slack point
    cons = stack(slab([1.0, 0.0], 0.0, 10.0), ball([1.0, 0.0], 1.0))
    x, s = max_slack_point(cons, np.array([0.5, 0.0]))
    assert s == pytest.approx(1.0, abs=1e-6)
    assert_allclose(x, [1.0, 0.0], atol=1e-5)
    # asymmetric radii: slack balances where the margins cross
    cons = stack(ball([0.0, 0.0], 2.0), ball([3.0, 0.0], 2.0))
    x, s = max_slack_point(cons, np.array([1.4, 0.1]))
    assert s == pytest.approx(0.5, abs=1e-6)
    assert x[0] == pytest.approx(1.5, abs=1e-5)
    # a row 1e150 deep at the anchor puts the slack's cap near 1e151,
    # where the slab's centre and half-width round at 1e135: the start
    # must still lie strictly inside the slab
    cons = stack(ball([0.0, 0.0], 1.0), ball([0.0, 0.0], 1e150))
    x, s = max_slack_point(cons, np.array([0.5, 0.0]))
    assert s == pytest.approx(1.0, abs=1e-6)
    assert_allclose(x, [0.0, 0.0], atol=1e-5)


# ---------------------------------------------------------------------------
# Dinkelbach


def test_dinkelbach_symmetric_ratio():
    # max (1 - ||x||^2) / (1 + ||x||^2) on the unit ball: optimum x = 0,
    # ratio exactly 1
    f = squares(2, 1.0, [-1.0], [[0.0, 0.0]])
    g = squares(2, 1.0, [1.0], [[0.0, 0.0]])
    res = dinkelbach(f, g, stack(ball(np.zeros(2), 0.9)), np.array([0.3, -0.2]),
                     delta=1e-10)
    assert isinstance(res, DinkelbachResult)
    assert res.converged
    assert res.lam == pytest.approx(1.0, abs=1e-8)
    assert_allclose(res.x, [0.0, 0.0], atol=1e-4)
    # the parametric values are nondecreasing along the iteration
    assert all(b >= a - 1e-12 for a, b in zip(res.lam_trace,
                                              res.lam_trace[1:]))


def test_dinkelbach_starts_from_the_start_ratio():
    f = squares(2, 1.0, [-1.0], [[0.0, 0.0]])
    g = squares(2, 1.0, [1.0], [[0.0, 0.0]])
    fp = (f, g, stack(ball(np.zeros(2), 0.9)))
    x0 = np.array([0.3, -0.2])
    ratio = f.value(x0) / g.value(x0)
    assert dinkelbach(*fp, x0, delta=1e-10).lam_trace[0] == ratio
    # a cap at or below the start ratio: x0 is the answer, after 0 rounds
    for lam_max in (ratio, 0.5 * ratio, -1.0):
        res = dinkelbach(*fp, x0, delta=1e-10, lam_max=lam_max)
        assert res.converged and len(res.lam_trace) - 1 == 0
        assert res.lam_trace == [ratio] and res.lam == ratio
        assert np.array_equal(res.x, x0) and res.x is not x0
    g0 = squares(2, -1.0, [1.0], [[0.0, 0.0]])
    with pytest.raises(SolverError, match="start point"):
        dinkelbach(f, g0, fp[2], x0)


def test_dinkelbach_stops_once_the_ratio_reaches_lam_max():
    # the symmetric program starts at ratio 0.7699, reaches its optimum
    # ratio 1 in round 1 and confirms it in round 2; a cap of 0.5 ends
    # the run after 0 rounds, any cap in (0.7699, 1] after round 1
    f = squares(2, 1.0, [-1.0], [[0.0, 0.0]])
    g = squares(2, 1.0, [1.0], [[0.0, 0.0]])
    fp = (f, g, stack(ball(np.zeros(2), 0.9)))
    x0 = np.array([0.3, -0.2])
    full = dinkelbach(*fp, x0, delta=1e-10)
    # iterations, the rounds count a trace reads, is one less than the ratios
    assert full.iterations == 2 and len(full.lam_trace) == 3
    assert full.lam_trace[0] == pytest.approx(0.7699, abs=1e-4)
    for lam_max, rounds in ((0.5, 0), (0.8, 1), (1.0, 1)):
        res = dinkelbach(*fp, x0, delta=1e-10, lam_max=lam_max)
        assert res.converged and len(res.lam_trace) - 1 == rounds
        assert res.lam_trace == full.lam_trace[:rounds + 1]
        assert res.lam >= lam_max
    uncapped = dinkelbach(*fp, x0, delta=1e-10, lam_max=math.inf)
    assert uncapped.lam_trace == full.lam_trace
    assert np.array_equal(uncapped.x, full.x)
    # a three-round run stops at the first round whose ratio reaches the cap
    cons = stack(ball(np.zeros(2), 1.0))
    fp = (squares(2, 6.0, [-1.0], [[1.0, 1.0]]),
          squares(2, 0.5, [1.0], [[0.0, 0.0]]), cons)
    x0 = np.array([0.2, 0.1])
    full = dinkelbach(*fp, x0, delta=1e-9)
    assert full.converged and len(full.lam_trace) - 1 == 3
    lams = full.lam_trace
    for k in range(1, 4):
        lam_max = 0.5 * (lams[k - 1] + lams[k])
        res = dinkelbach(*fp, x0, delta=1e-9, lam_max=lam_max)
        assert res.converged and len(res.lam_trace) - 1 == k
        assert res.lam_trace == lams[:k + 1] and res.lam >= lam_max


def test_dinkelbach_starts_at_ratio_zero_below_zero():
    # max (1 - ||x||^2) / ||x - (2, 0)||^2 over the ball of radius 1.8:
    # off the x axis f falls and g grows, and on it the ratio
    # (1 - x^2)/(x - 2)^2 peaks where x = 1/2, at 1/3. The start has
    # f = -1.5, so lam starts at 0 and round 1 maximizes f itself
    f = squares(2, 1.0, [-1.0], [[0.0, 0.0]])
    g = squares(2, 0.0, [1.0], [[2.0, 0.0]])
    x0 = np.array([-1.5, 0.5])
    assert f.value(x0) < 0.0
    res = dinkelbach(f, g, stack(ball(np.zeros(2), 1.8)), x0, delta=1e-10)
    assert res.lam_trace[0] == 0.0
    assert res.converged
    assert res.lam == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert_allclose(res.x, [0.5, 0.0], atol=1e-4)


def test_dinkelbach_reports_no_positive_ratio():
    # f = 1 - ||x||^2 is negative on the whole ball of radius 0.5 around
    # (3, 0): round 1 ends at ratio <= 0, which is not a convergence
    f = squares(2, 1.0, [-1.0], [[0.0, 0.0]])
    g = squares(2, 0.0, [1.0], [[-5.0, 0.0]])
    res = dinkelbach(f, g, stack(ball([3.0, 0.0], 0.5)), np.array([3.0, 0.0]))
    assert res.lam_trace[0] == 0.0
    assert res.lam <= 0.0 and not res.converged
    assert len(res.lam_trace) == 2


def test_dinkelbach_boundary_optimum():
    # max (2 - x) / (1 + x) on [0, 1]: decreasing ratio, optimum x = 0
    f = QuadraticObjective(np.array([-1.0]), const=2.0)
    g = QuadraticObjective(np.array([1.0]), const=1.0)
    box = stack(slab([1.0], 0.0, 1.0))
    res = dinkelbach(f, g, box, np.array([0.5]), delta=1e-10)
    assert res.converged
    assert res.lam == pytest.approx(2.0, abs=1e-6)
    assert res.x[0] == pytest.approx(0.0, abs=1e-5)


def test_dinkelbach_scale_invariance():
    # scaling numerator and denominator together leaves the ratio alone
    center = np.array([[1.0, 1.0]])
    cons = stack(ball(np.zeros(2), 1.0))
    lam = []
    for kappa in (1.0, 250.0):
        f = squares(2, 6.0 * kappa, [-kappa], center)
        g = squares(2, 0.5 * kappa, [kappa], [[0.0, 0.0]])
        res = dinkelbach(f, g, cons, np.array([0.2, 0.1]),
                         delta=1e-9 * kappa)
        assert res.converged
        lam.append(res.lam)
    assert lam[0] == pytest.approx(lam[1], rel=1e-6)


# ---------------------------------------------------------------------------
# the kernel against its reference: the row formulas and the barrier loop
# written one numpy call per quantity, with phi and the slope recomputed
# every step; the stacked kernel must reproduce them bit for bit


def _ref_rowdot(p, q):
    return np.matmul(p[:, None, :], q[:, :, None]).ravel()


class ReferenceRows:
    """A stack's row formulas from its A, b, c, d, one product per part."""

    def __init__(self, cons):
        m, k, n = cons.A.shape
        self.b, self.c, self.d = cons.b, cons.c, cons.d
        self.A_flat = cons.A.reshape(m * k, n)
        self.A_T = np.ascontiguousarray(cons.A.transpose(0, 2, 1))
        self.hess = 2.0 * (np.einsum("mki,mkj->mij", cons.A, cons.A)
                           - np.einsum("mi,mj->mij", self.c, self.c))

    def rows(self, x):
        r = (self.A_flat @ x).reshape(self.b.shape) - self.b
        t = self.c @ x + self.d
        rr = _ref_rowdot(r, r)
        return r, t, rr - t * t, bool(np.all((t > 0.0) & (rr < t * t)))

    def grad(self, r, t):
        return 2.0 * (np.matmul(self.A_T, r[:, :, None])[:, :, 0]
                      - t[:, None] * self.c)

    def margin(self, x):
        r, t, _, _ = self.rows(x)
        return t - np.sqrt(_ref_rowdot(r, r))

    def max_step(self, r, t, v, s):
        """Per row, the exit step of the ray x + alpha*s (inf where the
        ray never leaves the row)."""
        rs, ts = (self.A_flat @ s).reshape(self.b.shape), self.c @ s
        a = _ref_rowdot(rs, rs) - ts * ts
        h = _ref_rowdot(r, rs) - t * ts
        den = h + np.sqrt(np.maximum(h * h - a * v, 0.0))
        return np.divide(-v, den, out=np.full_like(v, np.inf),
                         where=den > 0.0)


def reference_newton_solve(H, g):
    """The Newton solve through the loop-form Cholesky for every n."""
    n = len(g)
    a = H.tolist()
    floor = 1e-12 * max(sum(a[i][i] for i in range(n)) / n, 1.0)
    ridge = 0.0
    while (y := solvers._cholesky_solve(a, g.tolist(), ridge)) is None:
        ridge = ridge * 10.0 if ridge else floor
        if not ridge < math.inf:
            raise SolverError("Newton system does not factor at any finite ridge")
    return np.array(y)


def reference_barrier_maximize(objective, cons, x0, tol=1e-8, _warm=None):
    """``_barrier_maximize`` over ``ReferenceRows``."""
    ref = ReferenceRows(cons)
    m = cons.A.shape[0]
    t_warm = solvers._T0 * solvers._T_FACTOR
    t, x = solvers._T0, None
    if _warm is not None:
        r, u, vals, inside = ref.rows(_warm)
        if inside:
            t, x = t_warm, np.array(_warm, dtype=float)
    if x is None:
        x = np.asarray(x0, dtype=float).copy()
        r, u, vals, inside = ref.rows(x)
        if not inside:
            raise SolverError(
                f"x0 not strictly feasible (worst margin {ref.margin(x).min():.3e})")
    n = x.size
    obj_hess = objective.hess(x)
    row_hess = ref.hess.reshape(m, n * n)
    fx = objective.value(x)
    newton_steps = 0
    warm = None
    while True:
        centred = False
        for _ in range(solvers._MAX_NEWTON):
            inv = -1.0 / vals
            gci = ref.grad(r, u) * inv[:, None]
            grad = -t * objective.grad(x) + gci.sum(axis=0)
            H = -t * obj_hess + gci.T @ gci + (inv @ row_hess).reshape(n, n)
            step = -reference_newton_solve(H, grad)
            decrement = float(-grad @ step)
            phi0 = -t * fx - float(np.log(-vals).sum())
            fuzz = 1e-11 * (1.0 + abs(phi0))
            if decrement <= 2.0 * fuzz:
                centred = True
                break
            slope = float(grad @ step)
            alpha = min(1.0, 0.99 * float(ref.max_step(r, u, vals, step).min()))
            accepted = False
            for _ls in range(70):
                xn = x + alpha * step
                rn, un, valsn, inside = ref.rows(xn)
                if inside:
                    fn = objective.value(xn)
                    phin = -t * fn - float(np.log(-valsn).sum())
                    if phin <= phi0 + 0.25 * alpha * slope + fuzz:
                        accepted = True
                        break
                alpha *= 0.5
            if not accepted:
                if decrement > 1e-2 * (1.0 + abs(phi0)):
                    raise SolverError(
                        f"no acceptable step with decrement {decrement:.3e}")
                break
            x, r, u, vals, fx = xn, rn, un, valsn, fn
            newton_steps += 1
            if phin - phi0 > 0.25 * alpha * slope:
                break
        if t == t_warm and centred:
            warm = x
        if m / t < tol:
            break
        t *= solvers._T_FACTOR
    return x, {"t": t, "newton_steps": newton_steps, "warm": warm}


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_stacks(rng, count, lift=0.5):
    """Random bounded stacks (a ball and 1-5 cone, ball or slab rows)
    in R^2..R^4, each with a point strictly inside every row, lifted to
    (x, slack) under a slab on the slack with probability ``lift``. Every
    stack has at least two rows: the
    planner's have at least three, and for one row numpy computes c.x
    by its dot kernel, which need not round as the stacked product."""
    for _ in range(count):
        n = int(rng.integers(2, 5))
        kinds = ["ball"] + [("cone", "ball", "slab")[j]
                            for j in rng.integers(0, 3, size=int(rng.integers(1, 6)))]
        rows, xs = zip(*(random_row(rng, n, kind) for kind in kinds))
        cons, x = stack(*rows), xs[0]
        cons = ConeConstraint(cons.A, cons.b, cons.c, cons.d + rng.uniform(0.1, 1.0)
                              + np.maximum(0.0, -cons.margin(x)))
        if rng.random() < lift:
            x = np.append(x, cons.margin(x).min() - rng.uniform(0.1, 1.0))
            cons = cons.lifted(x[-1] - 1.0, x[-1] + 1.0)
        assert inside(cons, x)
        yield cons, x


def probe_points(rng, cons, x):
    """x, points at and just inside a row boundary, outside points, and
    points that overflow or are not finite."""
    n = x.size
    s = rng.normal(size=n)
    out = [x, x + 1e3 * s, x * 1e160, -x * 1e200]
    e = brute_exit(cons, x, s)
    if np.isfinite(e):
        out += [x + e * s, x + math.nextafter(e, 0.0) * s, x + 0.5 * e * s]
    for bad in (math.nan, math.inf, -math.inf):
        z = x.copy()
        z[int(rng.integers(n))] = bad
        out.append(z)
    return out


def test_rows_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    verdicts = {True: 0, False: 0}
    for cons, x in random_stacks(rng, 150):
        ref = ReferenceRows(cons)
        for z in probe_points(rng, cons, x):
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = cons.rows(z), ref.rows(z)
                assert same_bits(cons.margin(z), ref.margin(z))
                if np.all(np.isfinite(z)):
                    assert same_bits(cons.grad(*got[:2]), ref.grad(*want[:2]))
            assert all(same_bits(g, w) for g, w in zip(got[:3], want[:3]))
            assert got[3] is want[3]
            verdicts[got[3]] += 1
    assert min(verdicts.values()) >= 150


def test_step_bound_is_the_minimum_of_the_reference_exit_steps():
    rng = np.random.default_rng(32)
    for cons, x in random_stacks(rng, 150):
        r, t, v, _ = cons.rows(x)
        for scale in (1e-3, 1.0, 1e3):
            s = scale * rng.normal(size=x.size)
            want = ReferenceRows(cons).max_step(r, t, v, s).min()
            assert same_bits(cons.step_bound(r, t, v, s), want)
    # a ray that stays inside every row: up the axis of the cone
    # |x1| <= x2, parallel to the slab -3 <= x1 <= 3
    cons = stack((np.array([[1.0, 0.0]]), np.zeros(1), np.array([0.0, 1.0]), 0.0),
                 slab([1.0, 0.0], -3.0, 3.0))
    r, t, v, _ = cons.rows(np.array([0.0, 1.0]))
    assert cons.step_bound(r, t, v, np.array([0.0, 2.0])) == math.inf


def test_written_out_cholesky_solves_match_the_loop():
    rng = np.random.default_rng(33)
    for n, solve in solvers._CHOLESKY_SOLVES.items():
        for trial in range(300):
            M = rng.normal(size=(n, n))
            H = M @ M.T + rng.uniform(0.0, 1e-3) * np.eye(n)
            if trial % 3 == 1:  # singular: a zero row and column
                j = int(rng.integers(n))
                H[j], H[:, j] = 0.0, 0.0
            elif trial % 3 == 2:  # indefinite
                H[int(rng.integers(n))] *= -1.0
                H = 0.5 * (H + H.T)
            a, g = H.tolist(), rng.normal(size=n).tolist()
            for ridge in (0.0, 1e-12, 1e-3, 10.0):
                assert solve(a, g, ridge) == solvers._cholesky_solve(a, g, ridge)
            assert same_bits(_newton_solve(H, np.array(g)),
                             reference_newton_solve(H, np.array(g)))
        nan = np.full((n, n), math.nan)
        assert solve(nan.tolist(), [1.0] * n, 0.0) is None


def barrier_programs(rng):
    """(objective, stack, x0) for linear and concave quadratic objectives
    over random bounded stacks, lifted ones included."""
    for cons, x in random_stacks(rng, 20):
        n = x.size
        yield QuadraticObjective(rng.normal(size=n)), cons, x
        yield (QuadraticObjective(rng.normal(size=n), rng.normal(),
                                  -rng.uniform(0.1, 2.0)), cons, x)


def assert_same_solve(got, want):
    assert same_bits(got[0], want[0])
    gi, wi = got[1], want[1]
    assert gi.keys() == wi.keys()
    for key in gi:
        if key == "warm" and wi[key] is None:
            assert gi[key] is None
        else:
            assert same_bits(gi[key], wi[key]), key


def test_barrier_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(34)
    for objective, cons, x in barrier_programs(rng):
        for kwargs in ({}, {"tol": 1e-10}):
            want = reference_barrier_maximize(objective, cons, x, **kwargs)
            assert_same_solve(_barrier_maximize(objective, cons, x, **kwargs),
                              want)
        if want[1]["warm"] is not None:
            kw = {"_warm": want[1]["warm"]}
            other = QuadraticObjective(objective.c + 0.1 * rng.normal(size=x.size))
            assert_same_solve(_barrier_maximize(other, cons, x, **kw),
                              reference_barrier_maximize(other, cons, x, **kw))


def plan_and_steps(monkeypatch, s, barrier):
    """``_run_planner(s)`` with every barrier solve made by ``barrier``,
    and the solves' total Newton steps."""
    steps = []

    def counted(*args, **kwargs):
        x, info = barrier(*args, **kwargs)
        steps.append(info["newton_steps"])
        return x, info

    with monkeypatch.context() as mp:
        mp.setattr(solvers, "_barrier_maximize", counted)
        mp.setattr(planner, "_barrier_maximize", counted)
        sol, iterations = _run_planner(s)
    return sol, iterations, sum(steps)


# BCD scenarios with the most SCA rounds of the 24-scenario corpus, and
# varpi = 0 scenarios that run 2 or 3 Dinkelbach rounds
@pytest.mark.parametrize("varpis, base", [
    pytest.param((0.01, 0.1, 1.0), base, id=f"bcd-{base}") for base in (2, 9, 15)
] + [pytest.param((0.0,), base, id=f"cancel-{base}") for base in (3, 35, 80)])
def test_corpus_plans_match_the_reference_barrier(monkeypatch, varpis, base):
    s = load_scenario(benchmark_corpus(base + 1, varpis)[base]).scenario
    got = plan_and_steps(monkeypatch, s, _barrier_maximize)
    want = plan_and_steps(monkeypatch, s, reference_barrier_maximize)
    (sol, iterations, steps), (ref, ref_iterations, ref_steps) = got, want
    assert (sol.status, sol.message, iterations, steps) == \
        (ref.status, ref.message, ref_iterations, ref_steps)
    assert same_bits(sol.trace, ref.trace) and same_bits(sol.Rb, ref.Rb)
    assert same_bits(sol.placement.lifted, ref.placement.lifted)
    for field in ("Pk", "Pj_hat", "Pa"):
        assert same_bits(getattr(sol.powers, field), getattr(ref.powers, field))
