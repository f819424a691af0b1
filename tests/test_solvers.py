"""Log-barrier SOC solver, max-slack point, Dinkelbach iteration."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from skycloak.solvers import (ConeConstraint, DinkelbachResult,
                              InfeasibleStartError, QuadraticObjective,
                              SolverError, _barrier_maximize, _newton_solve,
                              dinkelbach, max_slack_point)


def ball(center, radius):
    """Row ||x - center|| <= radius as (A, b, c, d)."""
    center = np.asarray(center, dtype=float)
    return np.eye(center.size), center, np.zeros(center.size), radius


def halfspace(a, b):
    """Row a.x <= b as (A, b, c, d): A = 0, c = -a, d = b."""
    a = np.asarray(a, dtype=float)
    return np.zeros((1, a.size)), np.zeros(1), -a, b


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


def exit_steps(cons, x, s):
    """Per-row closed-form exit steps of the ray x + alpha*s."""
    r, t, v, _ = cons.rows(x)
    return cons.max_step(r, t, v, np.asarray(s, dtype=float))


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
    """A random cone, ball or half-space row and a point strictly inside it."""
    x = rng.normal(size=n)
    if kind == "cone":
        A, b, c = rng.normal(size=(2, n)), rng.normal(size=2), rng.normal(size=n)
        d = np.linalg.norm(A @ x - b) - c @ x + rng.uniform(0.1, 2.0)
        return (A, b, c, d), x
    if kind == "ball":
        center = x + rng.normal(size=n)
        return ball(center, np.linalg.norm(x - center) + rng.uniform(0.1, 2.0)), x
    a = rng.normal(size=n)
    return halfspace(a, a @ x + rng.uniform(0.1, 2.0)), x


def assert_exit_steps(cons, x, s):
    got = exit_steps(cons, x, s)
    for i in range(len(got)):
        row = ConeConstraint(cons.A[i:i + 1], cons.b[i:i + 1],
                             cons.c[i:i + 1], cons.d[i:i + 1])
        want = brute_exit(row, x, s)
        if np.isinf(want):
            assert got[i] > 1e9
        else:
            assert got[i] == pytest.approx(want, rel=1e-8)
    assert got.min() == pytest.approx(brute_exit(cons, x, s), rel=1e-8)


def test_max_step_matches_bisection_on_interior():
    rng = np.random.default_rng(11)
    for kind in ("cone", "ball", "halfspace"):
        for _ in range(30):
            row, x = random_row(rng, 3, kind)
            assert_exit_steps(stack(row), x, rng.normal(size=3))


def test_max_step_on_a_lifted_stack():
    # cones, a ball and a half-space in R^3 lifted to (x, slack)
    rng = np.random.default_rng(12)
    for _ in range(20):
        rows, xs = zip(*(random_row(rng, 3, kind) for kind in
                         ("cone", "cone", "ball", "halfspace")))
        cons = stack(*rows)
        x = xs[0]
        # shift every right-hand side so xs[0] is inside all rows
        cons.d += np.maximum(0.0, -cons.margin(x)) + 0.5
        lifted = cons.lifted()
        z = np.append(x, cons.margin(x).min() - rng.uniform(0.1, 1.0))
        assert inside(lifted, z)
        assert_exit_steps(lifted, z, rng.normal(size=4))


def test_max_step_is_inf_on_rays_that_stay_inside():
    # the cone ||(x1, x2)|| <= x3 keeps every ray whose direction lies in
    # the cone, and a half-space every ray parallel to or away from its
    # boundary
    cone = stack((np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.zeros(2),
                  np.array([0.0, 0.0, 1.0]), 0.0))
    x = np.array([0.1, -0.2, 1.0])
    for s in ([0.0, 0.0, 1.0], [0.3, 0.0, 1.0], [0.0, 0.0, 0.0]):
        assert exit_steps(cone, x, s)[0] == np.inf
    half = stack(halfspace([1.0, 2.0], 3.0))
    for s in ([-1.0, 0.0], [2.0, -1.0], [0.0, -5.0]):
        assert exit_steps(half, np.zeros(2), s)[0] == np.inf
    assert exit_steps(half, np.zeros(2), [1.0, 0.0])[0] == 3.0


def reference_grads(cons, x):
    """Row value gradients written out per row: 2(A_i^T(A_i x - b_i)
    - (c_i.x + d_i) c_i) for a cone or ball row, -c_i for a half-space."""
    out = []
    for A, b, c, d in zip(cons.A, cons.b, cons.c, cons.d):
        if np.any(A != 0.0):
            out.append(2.0 * (A.T @ (A @ x - b) - (c @ x + d) * c))
        else:
            out.append(-c)
    return np.array(out)


def test_row_gradients_match_the_per_row_formula():
    rng = np.random.default_rng(13)
    kinds = ("cone", "ball", "halfspace")
    for _ in range(20):
        rows, _ = zip(*(random_row(rng, 3, kinds[j]) for j in
                        rng.integers(0, 3, size=int(rng.integers(1, 6)))))
        cons = stack(*rows)
        for c, x in ((cons, rng.normal(size=3)),
                     (cons.lifted(), rng.normal(size=4))):
            got = c.grad(*c.rows(x)[:2])
            assert_allclose(got, reference_grads(c, x), rtol=1e-12,
                            atol=1e-12 * np.abs(got).max())


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


def test_barrier_cone_and_halfspace():
    # max x1 inside ||(x1,x2)|| <= x3/2 with x3 <= 4: optimum (2, 0, 4)
    cone = (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.zeros(2),
            np.array([0.0, 0.0, 0.5]), 0.0)
    cap = halfspace([0.0, 0.0, 1.0], 4.0)
    x, val = maximize_linear(np.array([1.0, 0.0, 0.0]), stack(cone, cap),
                             np.array([0.1, 0.0, 3.0]))
    assert_allclose(x, [2.0, 0.0, 4.0], atol=1e-5)
    assert val == pytest.approx(2.0, abs=1e-6)


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


def test_barrier_rejects_infeasible_start():
    with pytest.raises(InfeasibleStartError):
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
    # halfspace x1 >= 0 with the unit ball around (1,0): the ball center
    # is 1 deep in both, so it is the max-slack point
    cons = stack(halfspace([-1.0, 0.0], 0.0), ball([1.0, 0.0], 1.0))
    x, s = max_slack_point(cons, np.array([0.5, 0.0]))
    assert s == pytest.approx(1.0, abs=1e-6)
    assert_allclose(x, [1.0, 0.0], atol=1e-5)
    # asymmetric radii: slack balances where the margins cross
    cons = stack(ball([0.0, 0.0], 2.0), ball([3.0, 0.0], 2.0))
    x, s = max_slack_point(cons, np.array([1.4, 0.1]))
    assert s == pytest.approx(0.5, abs=1e-6)
    assert x[0] == pytest.approx(1.5, abs=1e-5)


# ---------------------------------------------------------------------------
# Dinkelbach


def test_dinkelbach_symmetric_ratio():
    # max (1 - ||x||^2) / (1 + ||x||^2) on the unit ball: optimum x = 0,
    # ratio exactly 1
    f = QuadraticObjective(np.zeros(2), const=1.0, w=[-1.0], u=np.zeros((1, 2)))
    g = QuadraticObjective(np.zeros(2), const=1.0, w=[1.0], u=np.zeros((1, 2)))
    res = dinkelbach(f, g, stack(ball(np.zeros(2), 0.9)), np.array([0.3, -0.2]),
                     delta=1e-10)
    assert isinstance(res, DinkelbachResult)
    assert res.converged
    assert res.lam == pytest.approx(1.0, abs=1e-8)
    assert_allclose(res.x, [0.0, 0.0], atol=1e-4)
    # the parametric values are nondecreasing along the iteration
    assert all(b >= a - 1e-12 for a, b in zip(res.lam_trace,
                                              res.lam_trace[1:]))


def test_dinkelbach_stops_once_the_ratio_reaches_lam_max():
    # the symmetric program reaches its optimum ratio 1 in round 1 and
    # confirms it in round 2; any cap up to 1 ends the run after round 1
    f = QuadraticObjective(np.zeros(2), const=1.0, w=[-1.0], u=np.zeros((1, 2)))
    g = QuadraticObjective(np.zeros(2), const=1.0, w=[1.0], u=np.zeros((1, 2)))
    fp = (f, g, stack(ball(np.zeros(2), 0.9)))
    x0 = np.array([0.3, -0.2])
    full = dinkelbach(*fp, x0, delta=1e-10)
    assert full.iterations == 2
    for lam_max in (0.5, 1.0):
        res = dinkelbach(*fp, x0, delta=1e-10, lam_max=lam_max)
        assert res.converged and res.iterations == 1
        assert res.lam_trace == full.lam_trace[:1] and res.lam >= lam_max
    uncapped = dinkelbach(*fp, x0, delta=1e-10, lam_max=math.inf)
    assert uncapped.lam_trace == full.lam_trace
    assert np.array_equal(uncapped.x, full.x)
    # a five-round run stops at the first round whose ratio reaches the cap
    cons = stack(ball(np.zeros(2), 1.0))
    fp = (QuadraticObjective(np.zeros(2), const=6.0, w=[-1.0], u=[[1.0, 1.0]]),
          QuadraticObjective(np.zeros(2), const=0.5, w=[1.0], u=np.zeros((1, 2))),
          cons)
    x0 = np.array([0.2, 0.1])
    full = dinkelbach(*fp, x0, delta=1e-9)
    assert full.converged and full.iterations == 5
    lams = full.lam_trace
    for k in range(1, 5):
        lam_max = 0.5 * (lams[k - 1] + lams[k])
        res = dinkelbach(*fp, x0, delta=1e-9, lam_max=lam_max)
        assert res.converged and res.iterations == k + 1
        assert res.lam_trace == lams[:k + 1] and res.lam >= lam_max


def test_dinkelbach_boundary_optimum():
    # max (2 - x) / (1 + x) on [0, 1]: decreasing ratio, optimum x = 0
    f = QuadraticObjective([-1.0], const=2.0)
    g = QuadraticObjective([1.0], const=1.0)
    box = stack(halfspace([-1.0], 0.0), halfspace([1.0], 1.0))
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
        f = QuadraticObjective(np.zeros(2), const=6.0 * kappa, w=[-kappa],
                               u=center)
        g = QuadraticObjective(np.zeros(2), const=0.5 * kappa, w=[kappa],
                               u=np.zeros((1, 2)))
        res = dinkelbach(f, g, cons, np.array([0.2, 0.1]),
                         delta=1e-9 * kappa)
        assert res.converged
        lam.append(res.lam)
    assert lam[0] == pytest.approx(lam[1], rel=1e-6)
