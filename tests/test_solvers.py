"""Log-barrier SOC solver, max-slack point, Dinkelbach iteration."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from skycloak.solvers import (AffineConstraint, BracketError, DinkelbachResult,
                              FractionalProgram, InfeasibleStartError,
                              LinearObjective, QuadraticSum, SocConstraint,
                              _barrier_maximize, ball_constraint, bisect,
                              dinkelbach, max_slack_point)


# ---------------------------------------------------------------------------
# barrier solver


def maximize_linear(c, constraints, x0):
    """Maximize c.x over the constraints from x0; returns (x*, c.x*)."""
    x, _ = _barrier_maximize(LinearObjective(c), constraints, x0, tol=1e-10)
    return x, float(np.asarray(c) @ x)


def test_barrier_ball_supporting_hyperplane():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        center = rng.normal(size=n)
        radius = rng.uniform(0.5, 2.0)
        c = rng.normal(size=n)
        x, val = maximize_linear(c, [ball_constraint(center, radius)], center)
        want_x = center + radius * c / np.linalg.norm(c)
        assert_allclose(x, want_x, atol=5e-7)
        assert val == pytest.approx(float(c @ want_x), abs=1e-8)


def test_barrier_cone_and_halfspace():
    # max x1 inside ||(x1,x2)|| <= x3/2 with x3 <= 4: optimum (2, 0, 4)
    cone = SocConstraint(A=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                         b=np.zeros(2), c=np.array([0.0, 0.0, 0.5]), d=0.0)
    cap = AffineConstraint(a=np.array([0.0, 0.0, 1.0]), b=4.0)
    x, val = maximize_linear(np.array([1.0, 0.0, 0.0]), [cone, cap],
                             np.array([0.1, 0.0, 3.0]))
    assert_allclose(x, [2.0, 0.0, 4.0], atol=1e-5)
    assert val == pytest.approx(2.0, abs=1e-6)


def test_barrier_two_ball_intersection_vs_grid():
    b1 = ball_constraint(np.array([-0.5, 0.0]), 1.0)
    b2 = ball_constraint(np.array([0.5, 0.0]), 1.0)
    c = np.array([0.3, 1.0])
    x, val = maximize_linear(c, [b1, b2], np.zeros(2))
    assert min(b1.margin(x), b2.margin(x)) > -1e-9
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
                        [ball_constraint(np.zeros(2), 1.0)],
                        np.array([5.0, 0.0]))


def test_max_slack_two_balls():
    # overlapping balls: deepest point is the origin with slack 0.5
    cons = [ball_constraint(np.array([-0.5, 0.0]), 1.0),
            ball_constraint(np.array([0.5, 0.0]), 1.0)]
    x, s = max_slack_point(cons, np.array([0.3, 0.2]))
    assert_allclose(x, [0.0, 0.0], atol=1e-5)
    assert s == pytest.approx(0.5, abs=1e-6)
    # disjoint balls: certified empty interior (negative best slack)
    cons = [ball_constraint(np.array([-1.5, 0.0]), 1.0),
            ball_constraint(np.array([1.5, 0.0]), 1.0)]
    _, s = max_slack_point(cons, np.zeros(2))
    assert s < 0.0
    # halfspace x1 >= 0 with the unit ball around (1,0): the ball center
    # is 1 deep in both, so it is the max-slack point
    cons = [AffineConstraint(a=np.array([-1.0, 0.0]), b=0.0),
            ball_constraint(np.array([1.0, 0.0]), 1.0)]
    x, s = max_slack_point(cons, np.array([0.5, 0.0]))
    assert s == pytest.approx(1.0, abs=1e-6)
    assert_allclose(x, [1.0, 0.0], atol=1e-5)
    # asymmetric radii: slack balances where the margins cross
    cons = [ball_constraint(np.array([0.0, 0.0]), 2.0),
            ball_constraint(np.array([3.0, 0.0]), 2.0)]
    x, s = max_slack_point(cons, np.array([1.4, 0.1]))
    assert s == pytest.approx(0.5, abs=1e-6)
    assert x[0] == pytest.approx(1.5, abs=1e-5)


# ---------------------------------------------------------------------------
# Dinkelbach


def test_dinkelbach_symmetric_ratio():
    # max (1 - ||x||^2) / (1 + ||x||^2) on the unit ball: optimum x = 0,
    # ratio exactly 1
    f = QuadraticSum(weight=-1.0, centers=np.zeros((1, 2)), const=1.0)
    g = QuadraticSum(weight=1.0, centers=np.zeros((1, 2)), const=1.0)
    fp = FractionalProgram(f=f, g=g,
                           constraints=[ball_constraint(np.zeros(2), 0.9)])
    res = dinkelbach(fp, np.array([0.3, -0.2]), delta=1e-10)
    assert isinstance(res, DinkelbachResult)
    assert res.converged
    assert res.lam == pytest.approx(1.0, abs=1e-8)
    assert_allclose(res.x, [0.0, 0.0], atol=1e-4)
    # the parametric values are nondecreasing along the iteration
    assert all(b >= a - 1e-12 for a, b in zip(res.lam_trace,
                                              res.lam_trace[1:]))


def test_dinkelbach_boundary_optimum():
    # max (2 - x) / (1 + x) on [0, 1]: decreasing ratio, optimum x = 0
    f = LinearObjective(c=np.array([-1.0]), const=2.0)
    g = QuadraticSum(weight=0.0, centers=np.zeros((1, 1)), const=1.0)

    class GLin:
        def value(self, x):
            return 1.0 + float(x[0])

        def grad(self, x):
            return np.array([1.0])

        def hess(self, x):
            return np.zeros((1, 1))

    box = [AffineConstraint(a=np.array([-1.0]), b=0.0),
           AffineConstraint(a=np.array([1.0]), b=1.0)]
    fp = FractionalProgram(f=f, g=GLin(), constraints=box)
    res = dinkelbach(fp, np.array([0.5]), delta=1e-10)
    assert res.converged
    assert res.lam == pytest.approx(2.0, abs=1e-6)
    assert res.x[0] == pytest.approx(0.0, abs=1e-5)


def test_dinkelbach_scale_invariance():
    # scaling numerator and denominator together leaves the ratio alone
    center = np.array([[1.0, 1.0]])
    cons = [ball_constraint(np.zeros(2), 1.0)]
    lam = []
    for kappa in (1.0, 250.0):
        f = QuadraticSum(weight=-kappa, centers=center, const=6.0 * kappa)
        g = QuadraticSum(weight=kappa, centers=np.zeros((1, 2)),
                         const=0.5 * kappa)
        res = dinkelbach(FractionalProgram(f, g, cons), np.array([0.2, 0.1]),
                         delta=1e-9 * kappa)
        assert res.converged
        lam.append(res.lam)
    assert lam[0] == pytest.approx(lam[1], rel=1e-6)


# ---------------------------------------------------------------------------
# bisection


def test_bisect_monotone_roots():
    got = bisect(lambda x: x ** 3, target=8.0, bracket=(0.0, 3.0))
    assert got == pytest.approx(2.0, abs=1e-9)
    got = bisect(lambda x: -x, target=-1.5, bracket=(0.0, 3.0))
    assert got == pytest.approx(1.5, abs=1e-9)
    with pytest.raises(BracketError):
        bisect(lambda x: x, target=10.0, bracket=(0.0, 1.0))
