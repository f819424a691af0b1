"""Warden detection model, error-probability bounds, covertness map."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import simpson
from skycloak.channel import (AVERAGE_SHADOWING, HEAVY_SHADOWING,
                              LIGHT_SHADOWING, SHADOWING_ROWS, gamma_from_sr,
                              sr_cdf, sr_pdf)
from skycloak.detection import (DetectionModel, avg_min_dep_lower_bound,
                                avg_min_dep_quadrature,
                                covert_constraint_satisfied, dep,
                                fa_probability, md_probability, min_dep, phi,
                                phi_inverse)

# phi_inverse reference roots of alpha*(exp(-mu/x) + x) = eps, computed
# at 40-digit precision from the frozen surrogate parameters
PHI_INV_REF = {
    ("light", 0.005): 0.0019403310719055255,
    ("light", 0.01): 0.003880662143811051,
    ("light", 0.05): 0.019403310719029227,
    ("light", 0.1): 0.038806460117249977,
    ("average", 0.005): 0.002341700646419387,
    ("average", 0.01): 0.004683401292838774,
    ("average", 0.05): 0.02341700646395577,
    ("average", 0.1): 0.046833525047919568,
    ("heavy", 0.005): 0.005,
    ("heavy", 0.01): 0.01,
    ("heavy", 0.05): 0.049999997938848077,
    ("heavy", 0.1): 0.099954804885127511,
}


def hand_model():
    # rho1 = 1, rho3 = 2, rho2 = 3, rho4 = 4
    return DetectionModel(pa=2.0, g_aw=0.5, pj_hat=4.0, g_uw=0.5,
                          sigma_w2=1.0)


def test_threshold_breakpoints():
    m = hand_model()
    assert (m.rho1, m.rho2, m.rho3, m.rho4) == (1.0, 3.0, 2.0, 4.0)


def test_false_alarm_piecewise():
    m = hand_model()
    # below the noise floor the detector always fires; above the max
    # received power under H0 it never does; linear in between
    assert fa_probability(m, 0.5) == 1.0
    assert fa_probability(m, 1.0) == 1.0
    assert fa_probability(m, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert fa_probability(m, 2.5) == pytest.approx(0.25, rel=1e-15)
    assert fa_probability(m, 3.0) == 0.0
    assert fa_probability(m, 9.0) == 0.0
    got = fa_probability(m, np.array([0.5, 2.0, 2.5, 9.0]))
    assert_allclose(got, [1.0, 0.5, 0.25, 0.0], rtol=1e-15)


def test_missed_detection_piecewise():
    m = hand_model()
    assert md_probability(m, 1.5) == 0.0
    assert md_probability(m, 2.0) == 0.0
    assert md_probability(m, 3.0) == pytest.approx(0.5, rel=1e-15)
    assert md_probability(m, 3.5) == pytest.approx(0.75, rel=1e-15)
    assert md_probability(m, 4.0) == 1.0
    assert md_probability(m, 9.0) == 1.0
    got = md_probability(m, np.array([1.5, 3.0, 3.5, 9.0]))
    assert_allclose(got, [0.0, 0.5, 0.75, 1.0], rtol=1e-15)


def test_dep_sum_and_flat_valley():
    m = hand_model()
    taus = np.linspace(0.0, 5.0, 401)
    assert_allclose(dep(m, taus),
                    fa_probability(m, taus) + md_probability(m, taus),
                    rtol=1e-14)
    # between rho3 and rho2 the sum is flat at 1 - sig/jam = 0.5
    valley = np.linspace(2.0, 3.0, 50)
    assert_allclose(dep(m, valley), 0.5, rtol=1e-14)


def test_min_dep_hand_cases():
    xi, tau = min_dep(hand_model())
    assert xi == pytest.approx(0.5, rel=1e-15)
    assert tau == pytest.approx(3.0, rel=1e-15)
    # signal wider than jamming: perfect detection possible
    m = DetectionModel(pa=8.0, g_aw=1.0, pj_hat=1.0, g_uw=1.0, sigma_w2=1.0)
    xi, tau = min_dep(m)
    assert xi == 0.0
    assert tau == pytest.approx(m.rho2, rel=1e-15)


def test_min_dep_degenerate():
    # no jamming, active signal: the warden can detect perfectly
    m = DetectionModel(pa=1.0, g_aw=1.0, pj_hat=0.0, g_uw=1.0, sigma_w2=1.0)
    assert min_dep(m)[0] == 0.0
    # silent satellite: both hypotheses identical, total error stays 1
    m = DetectionModel(pa=0.0, g_aw=1.0, pj_hat=2.0, g_uw=1.0, sigma_w2=1.0)
    assert min_dep(m)[0] == 1.0


def test_min_dep_is_global_over_threshold_grid():
    # randomized mirror of the optimality argument: the reported minimum
    # must match a dense threshold grid stitched between all breakpoints
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = DetectionModel(pa=rng.uniform(0.0, 5.0),
                           g_aw=rng.uniform(0.01, 2.0),
                           pj_hat=rng.uniform(0.0, 5.0),
                           g_uw=rng.uniform(0.01, 2.0),
                           sigma_w2=rng.uniform(0.1, 3.0))
        pts = np.unique([0.0, m.rho1, m.rho2, m.rho3, m.rho4, 1.1 * m.rho4])
        grid = np.unique(np.concatenate(
            [np.linspace(a, b, 400) for a, b in zip(pts[:-1], pts[1:])]))
        xi_star, tau_star = min_dep(m)
        assert xi_star <= np.min(dep(m, grid)) + 1e-12
        assert dep(m, tau_star) == pytest.approx(xi_star, abs=1e-12)


def test_quadrature_matches_independent_integrator():
    # E[max(0, 1 - X/r)] via fixed-grid Simpson on the exact density
    for params in (LIGHT_SHADOWING, AVERAGE_SHADOWING):
        for r in (0.5, 2.0, 8.0):
            got = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, params)
            want = simpson(lambda x: (1.0 - x / r) * sr_pdf(x, params),
                           0.0, r, n=20000)
            assert got == pytest.approx(want, abs=2e-9)


def test_quadrature_scale_invariance_and_edges():
    params = LIGHT_SHADOWING
    base = avg_min_dep_quadrature(1.0, 1.0, 3.0, 1.0, params)
    # only the ratio pj_hat*g_uw/(pa*ell_aw) matters
    assert avg_min_dep_quadrature(2.0, 0.5, 3.0, 1.0, params) == pytest.approx(
        base, rel=1e-12)
    assert avg_min_dep_quadrature(1.0, 1.0, 6.0, 0.5, params) == pytest.approx(
        base, rel=1e-12)
    # silent satellite: detection error stays at 1
    assert avg_min_dep_quadrature(0.0, 1.0, 3.0, 1.0, params) == 1.0
    assert avg_min_dep_quadrature(1.0, 0.0, 3.0, 1.0, params) == 1.0
    # no jamming: perfect detection on every fading draw
    assert avg_min_dep_quadrature(1.0, 1.0, 0.0, 1.0, params) == 0.0


def test_quadrature_heavy_row_exact_exponential():
    # m = 1 makes the fading exponential with mean mu = 2b + omega, where
    # E[(1 - X/r)^+] = 1 - (mu/r) * (1 - exp(-r/mu)) in closed form
    mu = HEAVY_SHADOWING.mean_power
    for r in np.logspace(-2.0, math.log10(300.0), 60):
        got = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, HEAVY_SHADOWING)
        want = 1.0 + (mu / r) * math.expm1(-r / mu)
        assert abs(got - want) <= 1e-14, r


def test_bound_closed_form_and_dominance():
    for name, params in SHADOWING_ROWS.items():
        g = gamma_from_sr(params)
        for rho in np.logspace(math.log10(0.5), math.log10(20.0), 12):
            r = g.theta * rho
            b = avg_min_dep_lower_bound(1.0, 1.0, r, 1.0, g)
            want = 1.0 - g.alpha * math.exp(-g.mu * r / g.theta) \
                - g.alpha * g.theta / r
            assert b.value_lb == pytest.approx(want, rel=1e-12)
            assert b.ratio == pytest.approx(r, rel=1e-14)
            quad = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, params)
            assert b.value_lb <= quad + 1e-12, (name, rho)


def test_bound_input_validation():
    g = gamma_from_sr(LIGHT_SHADOWING)
    with pytest.raises(ValueError):
        avg_min_dep_lower_bound(0.0, 1.0, 1.0, 1.0, g)
    with pytest.raises(ValueError):
        avg_min_dep_lower_bound(1.0, 1.0, 0.0, 1.0, g)


def test_phi_shape_and_inverse_round_trip():
    for name, params in SHADOWING_ROWS.items():
        g = gamma_from_sr(params)
        x = np.linspace(1e-4, 0.2, 50)
        vals = phi(x, g)
        assert np.all(np.diff(vals) > 0.0)  # strictly increasing
        for eps in (0.005, 0.01, 0.05, 0.1):
            x0 = phi_inverse(eps, g)
            assert phi(x0, g) == pytest.approx(eps, abs=2e-10)
            assert x0 == pytest.approx(PHI_INV_REF[(name, eps)], rel=1e-7)
        # the largest double on the covert side: one ulp up crosses eps
        for eps in np.geomspace(1e-4, 0.9 * g.alpha, 40):
            x0 = phi_inverse(eps, g)
            assert phi(x0, g) <= eps < phi(np.nextafter(x0, np.inf), g)


def test_phi_inverse_rejects_out_of_range():
    g = gamma_from_sr(LIGHT_SHADOWING)
    with pytest.raises(ValueError):
        phi_inverse(0.0, g)
    with pytest.raises(ValueError):
        phi_inverse(g.alpha + 0.1, g)


def test_covert_constraint_boundary():
    g = gamma_from_sr(LIGHT_SHADOWING)
    eps = 0.01
    r = g.theta / phi_inverse(eps, g)
    # at the exact boundary the slack is zero to solver precision (its
    # sign, and hence ok, is a coin flip at this knife edge)
    _, slack = covert_constraint_satisfied(1.0, r, 1.0, 1.0, eps, g)
    assert slack == pytest.approx(0.0, abs=1e-9)
    ok, slack = covert_constraint_satisfied(1.0, 1.02 * r, 1.0, 1.0, eps, g)
    assert ok and slack > 0.0
    ok, slack = covert_constraint_satisfied(1.0, 0.98 * r, 1.0, 1.0, eps, g)
    assert not ok and slack < 0.0
    # boundary consistency with the bound itself: at the boundary the
    # closed-form bound equals 1 - eps
    b = avg_min_dep_lower_bound(1.0, 1.0, r, 1.0, g)
    assert b.value_lb == pytest.approx(1.0 - eps, abs=1e-9)


def test_covert_constraint_degenerate():
    g = gamma_from_sr(LIGHT_SHADOWING)
    ok, slack = covert_constraint_satisfied(0.0, 1.0, 1.0, 1.0, 0.01, g)
    assert ok and slack == pytest.approx(0.01)
    ok, slack = covert_constraint_satisfied(1.0, 0.0, 1.0, 1.0, 0.01, g)
    assert not ok and slack == -math.inf


def test_quadrature_equals_mc_estimate():
    # cross-check the deterministic integral against a large MC draw
    from skycloak.channel import sample_sr_power
    params = AVERAGE_SHADOWING
    r = 2.5
    rng = np.random.default_rng(123)
    x = sample_sr_power(params, rng, 400_000)
    xi = np.maximum(0.0, 1.0 - x / r)
    se = xi.std(ddof=1) / math.sqrt(len(xi))
    quad = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, params)
    assert abs(quad - xi.mean()) < 4.0 * se


def test_detection_model_validation():
    with pytest.raises(ValueError):
        DetectionModel(pa=-1.0, g_aw=1.0, pj_hat=1.0, g_uw=1.0, sigma_w2=1.0)
    with pytest.raises(ValueError):
        DetectionModel(pa=1.0, g_aw=1.0, pj_hat=1.0, g_uw=1.0, sigma_w2=0.0)
