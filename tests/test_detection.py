"""Per-slot minimum DEP, error-probability bounds, covertness map."""

import decimal
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import radiometer_errors, simpson, sr_pdf
from skycloak import detection
from skycloak.channel import SHADOWING_ROWS, SRParams, gamma_from_sr
from skycloak.detection import (SeriesConvergenceError, _phi as phi,
                                avg_min_dep_lower_bound,
                                avg_min_dep_quadrature, min_dep, phi_inverse)

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


# hand case: sig = 1, jam = 2, sigma_w2 = 1; the received power is
# uniform on [1, 3] without the signal and on [2, 4] with it
HAND = dict(sig=1.0, jam=2.0, sigma_w2=1.0)


def test_false_alarm_piecewise():
    def fa(tau):
        return radiometer_errors(tau, **HAND)[0]
    # below the noise floor the detector always fires; above the max
    # received power under H0 it never does; linear in between
    assert fa(0.5) == 1.0
    assert fa(1.0) == 1.0
    assert fa(2.0) == pytest.approx(0.5, rel=1e-15)
    assert fa(2.5) == pytest.approx(0.25, rel=1e-15)
    assert fa(3.0) == 0.0
    assert fa(9.0) == 0.0
    got = fa(np.array([0.5, 2.0, 2.5, 9.0]))
    assert_allclose(got, [1.0, 0.5, 0.25, 0.0], rtol=1e-15)


def test_missed_detection_piecewise():
    def md(tau):
        return radiometer_errors(tau, **HAND)[1]
    assert md(1.5) == 0.0
    assert md(2.0) == 0.0
    assert md(3.0) == pytest.approx(0.5, rel=1e-15)
    assert md(3.5) == pytest.approx(0.75, rel=1e-15)
    assert md(4.0) == 1.0
    assert md(9.0) == 1.0
    got = md(np.array([1.5, 3.0, 3.5, 9.0]))
    assert_allclose(got, [0.0, 0.5, 0.75, 1.0], rtol=1e-15)


def test_min_dep_hand_cases():
    assert min_dep(1.0, 2.0) == pytest.approx(0.5, rel=1e-15)
    # between the signal-on floor and the signal-off ceiling the error
    # sum is flat at that minimum
    fa, md = radiometer_errors(np.linspace(2.0, 3.0, 50), **HAND)
    assert_allclose(fa + md, min_dep(1.0, 2.0), rtol=1e-14)
    # signal wider than jamming: perfect detection possible
    assert min_dep(8.0, 1.0) == 0.0
    # elementwise in the signal power
    assert_allclose(min_dep(np.array([0.0, 0.5, 1.0, 3.0]), 2.0),
                    [1.0, 0.75, 0.5, 0.0], rtol=1e-15)


def test_min_dep_degenerate():
    # no jamming, active signal: the warden can detect perfectly
    assert min_dep(1.0, 0.0) == 0.0
    # silent satellite: both hypotheses identical, total error stays 1
    assert min_dep(0.0, 2.0) == 1.0
    assert min_dep(0.0, 0.0) == 1.0
    assert_allclose(min_dep(np.array([0.0, 1.0]), 0.0), [1.0, 0.0])


def test_min_dep_is_global_over_threshold_grid():
    # randomized mirror of the optimality argument: the reported minimum
    # must match a dense threshold grid stitched between all breakpoints,
    # and is attained at the top of the signal-off support
    rng = np.random.default_rng(99)
    for _ in range(200):
        pa, g_aw, pj_hat, g_uw, sigma_w2 = (
            rng.uniform(0.0, 5.0), rng.uniform(0.01, 2.0),
            rng.uniform(0.0, 5.0), rng.uniform(0.01, 2.0),
            rng.uniform(0.1, 3.0))
        sig, jam = pa * g_aw, pj_hat * g_uw
        rho = (sigma_w2, sigma_w2 + jam, sigma_w2 + sig, sigma_w2 + jam + sig)
        pts = np.unique([0.0, *rho, 1.1 * rho[3]])
        grid = np.unique(np.concatenate(
            [np.linspace(a, b, 400) for a, b in zip(pts[:-1], pts[1:])]))
        xi_star = min_dep(sig, jam)
        fa, md = radiometer_errors(grid, sig, jam, sigma_w2)
        assert xi_star <= np.min(fa + md) + 1e-12
        fa, md = radiometer_errors(rho[1], sig, jam, sigma_w2)
        assert fa + md == pytest.approx(xi_star, abs=1e-12)


def test_quadrature_matches_independent_integrator():
    # E[max(0, 1 - X/r)] via fixed-grid Simpson on the exact density
    for params in (SHADOWING_ROWS["light"], SHADOWING_ROWS["average"]):
        for r in (0.5, 2.0, 8.0):
            got = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, params)
            want = simpson(lambda x: (1.0 - x / r) * sr_pdf(x, params),
                           0.0, r, n=20000)
            assert got == pytest.approx(want, abs=2e-9)


def test_quadrature_scale_invariance_and_edges():
    params = SHADOWING_ROWS["light"]
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
    mu = SHADOWING_ROWS["heavy"].mean_power
    for r in np.logspace(-2.0, math.log10(300.0), 60):
        got = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, SHADOWING_ROWS["heavy"])
        want = 1.0 + (mu / r) * math.expm1(-r / mu)
        assert abs(got - want) <= 1e-14, r


def quadrature_on_numpy_scalars(pa, ell_aw, pj_hat, g_uw, p):
    """The series of avg_min_dep_quadrature summed on numpy scalars: 0-d
    exponentials, numpy-scalar arithmetic and an np.all test of the same
    tail bound, t_n while the weight ratio rho_n >= 1 and
    term_n * rho_n/(1 - rho_n) after. Its Poisson weights all run from
    e^(-z); past z ~ 708 the library takes those below the normal
    doubles from logs, which moves no bit unless orders near z carry
    weight, as none do in the cases here."""
    z = np.asarray(pj_hat * g_uw / (pa * ell_aw) / (2.0 * p.b))
    pmf, lower = np.exp(-z), -np.expm1(-z)
    y = p.omega / (2.0 * p.b * p.m + p.omega)
    w = (2.0 * p.b * p.m / (2.0 * p.b * p.m + p.omega)) ** p.m
    total = 0.0
    for n in range(100_000):
        k = n + 1
        pmf = pmf * z / k
        upper = lower - pmf
        t = lower - k / z * upper
        term = w * t
        total = total + term
        rho = y * (p.m + n) / (n + 1.0)
        tail = t if rho >= 1.0 else term * rho / (1.0 - rho)
        if np.all(tail <= np.finfo(float).eps * total):
            break
        lower = upper
        w *= rho
    else:
        raise AssertionError("reference series did not settle")
    return min(1.0, max(0.0, float(total)))


def quadrature_at_m1(pa, ell_aw, pj_hat, g_uw, p):
    """The m = 1 average on Python floats: the exponential law's closed
    form 1 + (mu/r) * expm1(-r/mu), mu = 2b + omega."""
    r = float(pj_hat * g_uw / (pa * ell_aw))
    mu = 2.0 * p.b + p.omega
    return min(1.0, max(0.0, 1.0 + mu / r * math.expm1(-r / mu)))


@pytest.mark.parametrize("params", list(SHADOWING_ROWS.values()) + [
    SRParams(b=0.25, m=2.5, omega=1.0), SRParams(b=0.05, m=5.0, omega=3.0),
    SRParams(b=SHADOWING_ROWS["heavy"].b, m=float(np.nextafter(1.0, 2.0)),
             omega=SHADOWING_ROWS["heavy"].omega)],
    ids=list(SHADOWING_ROWS) + ["b0.25-m2.5", "b0.05-m5", "heavy-m1+ulp"])
def test_quadrature_float_series_has_numpy_scalar_bits(params):
    # the m = 1 row sums no series: its bits are the closed form's
    want = quadrature_at_m1 if params.m == 1.0 else quadrature_on_numpy_scalars
    for r in np.geomspace(1e-3, 1e4, 240):
        for args in ((1.0, 1.0, float(r), 1.0),
                     (np.float64(0.7), np.float64(1.3), r, np.float64(2.0))):
            got = avg_min_dep_quadrature(*args, params)
            assert type(got) is float
            assert got == want(*args, params), (r, args)


def test_series_convergence_error():
    # slowly mixing series (tiny scatter, huge LOS spread: y = 0.9999, about
    # 10^6 terms needed) must refuse to return a silently wrong value
    with pytest.raises(SeriesConvergenceError,
                       match=r"after 100000 terms \(tail bound 9\.800e-01, "
                             r"sum 7\.231e-13\)"):
        avg_min_dep_quadrature(1.0, 1.0, 1000.0, 1.0,
                               SRParams(b=1e-4, m=40.0, omega=80.0))


def test_series_stop_meets_the_m1_closed_form():
    # m one ulp above 1 is the exponential law up to rounding, and its
    # weights decay slowly (y = 3/3.1): a truncated tail would show here
    m = float(np.nextafter(1.0, 2.0))
    p = SRParams(b=0.05, m=m, omega=3.0)
    mu = p.mean_power
    for r in (1.0, 10.0, 100.0, 1000.0):
        got = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, p)
        assert abs(got - (1.0 + mu / r * math.expm1(-r / mu))) <= 1e-14, r
    # y = 0.999 puts the weight at orders near z = r/(2b), here from 740 to
    # 1000, across the z ~ 745 where e^(-z) underflows: with e^(-z) lost,
    # every P(n+1, z) read 1 and r = 80 summed to 0.31144 for 0.31166
    p = SRParams(b=0.05, m=m, omega=99.9)
    mu = p.mean_power
    for r in (74.0, 75.0, 80.0, 100.0):
        want = 1.0 + mu / r * math.expm1(-r / mu)
        got = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, p)
        assert abs(got - want) <= 5e-14 * want, r


def float_series_20000(p, z):
    """The DEP series' first 20,000 terms, summed on Python floats by the
    forward incomplete-gamma recurrence from numpy's exponentials, with no
    stop."""
    y = p.omega / (2.0 * p.b * p.m + p.omega)
    w = (2.0 * p.b * p.m / (2.0 * p.b * p.m + p.omega)) ** p.m
    pmf, lower = float(np.exp(-z)), float(-np.expm1(-z))
    total = 0.0
    for n in range(20_000):
        pmf = pmf * z / (n + 1)
        upper = lower - pmf
        total += w * (lower - (n + 1) / z * upper)
        w *= y * (p.m + n) / (n + 1.0)
        lower = upper
    return total


@pytest.mark.parametrize("m", [float(np.nextafter(1.0, 2.0)), 2.0, 5.0],
                         ids=["m1+ulp", "m2", "m5"])
def test_series_stop_loses_no_tail(m):
    # r from half the mean power to 100 times it, with z = r/(2b) at most
    # 700 so the reference's e^(-z) is a normal double (past it, see the
    # m = 1 closed-form test): there the terms past the stop round to less
    # than an ulp of the sum, so only a lost tail can differ
    eps = np.finfo(float).eps
    for y in (0.01, 0.1, 0.5, 0.9, 0.97):
        p = SRParams(b=0.05, m=m, omega=y * 2.0 * 0.05 * m / (1.0 - y))
        for r in np.geomspace(0.5, 100.0, 5) * p.mean_power:
            z = float(r) / (2.0 * p.b)
            if z > 700.0:
                continue
            got = avg_min_dep_quadrature(1.0, 1.0, float(r), 1.0, p)
            want = float_series_20000(p, z)
            assert abs(got - want) <= 2.0 * eps * want, (y, r)


# avg_min_dep_quadrature at dep-sweep's operating points before the series
# stopped on a tail bound: 500-term cap, 20-term floor, last term at most
# machine epsilon times the sum
OPERATING_POINT_VALUES = {
    "light": (0.9990000000000008, 0.9950000000000009, 0.990000000000001,
              0.980000000000001, 0.9500000000000677, 0.9000004157046394,
              0.8009975517871429, 0.637387730440169),
    "average": (0.9990000000000002, 0.9949999999999999, 0.9899999999999998,
                0.9800000000000003, 0.9500000000005084, 0.9000010417388491,
                0.8014275677345711, 0.6419224020562649),
}


@pytest.mark.parametrize("name", sorted(OPERATING_POINT_VALUES))
def test_series_stop_keeps_the_operating_point_values(name):
    params = SHADOWING_ROWS[name]
    g = gamma_from_sr(params)
    for eps, was in zip((1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4),
                        OPERATING_POINT_VALUES[name]):
        ratio = g.theta / phi_inverse(eps, g)
        got = avg_min_dep_quadrature(1.0, 1.0, ratio, 1.0, params)
        assert abs(got - was) <= math.ulp(was), (eps, got, was)


def dep_reference(p, r, digits=60):
    """E[(1 - X/r)^+] for X of the squared-SR law p, in ``decimal`` at
    ``digits`` digits, from the exact binary values of p and r.

    With z = r/(2b), pi_i the Poisson(z) pmf and N the mixture index
    (P(N = n) = w_n, the Gamma(n+1, 2b) weights), the average is the
    positive-term sum T = sum_i pi_i * S_i / (i + 1), S_i = E[(i - N)^+]:
    S_0 = 0 and S_(i+1) = S_i + P(N <= i), so no term cancels. As
    S_i <= i, the terms from i on are at most pi_i each, and past the
    Poisson mode their sum is at most pi_i / (1 - z/(i+1)); the sum stops
    once that bound is 10^-40 of it.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        b, m, om = D(p.b), D(p.m), D(p.omega)
        z = D(r) / (2 * b)
        y = om / (2 * b * m + om)
        w = (2 * b * m / (2 * b * m + om)) ** m
        pmf = (-z).exp()
        cdf = s = total = D(0)
        i = 0
        while True:
            total += pmf * s / (i + 1)
            cdf += w
            s += cdf
            w *= y * (m + i) / (i + 1)
            i += 1
            pmf *= z / i
            if total and i + 1 > z and \
                    pmf / (1 - z / (i + 1)) <= total.scaleb(-40):
                return total


def test_dep_reference_meets_the_m1_closed_form():
    # at m = 1 the law is exponential with mean mu = 2b + omega, and the
    # average is 1 + (mu/r) * (e^(-r/mu) - 1), here at 60 digits too; it
    # cancels about 12 of them at r = 1e-5
    p = SRParams(b=0.05, m=1.0, omega=3.0)
    D = decimal.Decimal
    for r in (1e-5, 0.1, 10.0, 300.0):
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            mu = 2 * D(p.b) + D(p.omega)
            want = 1 + mu / D(r) * ((-D(r) / mu).exp() - 1)
            assert abs(dep_reference(p, r) - want) <= want.scaleb(-40), r


def relative_error(got: float, want) -> float:
    return float(abs(decimal.Decimal(got) - want) / want)


@pytest.mark.parametrize("name", ["light", "average"])
def test_quadrature_accuracy_at_the_operating_ratios(name):
    # dep-sweep's operating ratios, eps from 1e-3 to 0.4: within a few
    # ulps of the 60-digit sum (1.05e-15 at worst on the light row)
    params = SHADOWING_ROWS[name]
    g = gamma_from_sr(params)
    for eps in (1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4):
        ratio = g.theta / phi_inverse(eps, g)
        got = avg_min_dep_quadrature(1.0, 1.0, ratio, 1.0, params)
        assert relative_error(got, dep_reference(params, ratio)) <= 1e-14, eps


@pytest.mark.parametrize("params, ratio, tol", [
    (SHADOWING_ROWS["light"], 1.87e-4, 1e-11),
    (SHADOWING_ROWS["light"], 1e-5, 1e-9),
    (SRParams(b=0.05, m=5.0, omega=3.0), 4.6e-5, 1e-10),
], ids=["light-1.87e-4", "light-1e-5", "m5-4.6e-5"])
def test_quadrature_accuracy_at_small_ratios(params, ratio, tol):
    # the forward incomplete-gamma recurrence cancels where z = r/(2b) is
    # small against the weighted orders: 6.0e-12, 4.5e-10 and 7.7e-11 off
    got = avg_min_dep_quadrature(1.0, 1.0, ratio, 1.0, params)
    assert relative_error(got, dep_reference(params, ratio)) <= tol


@pytest.mark.parametrize("name", sorted(SHADOWING_ROWS))
def test_quadrature_limits_at_degenerate_ratios(name):
    params = SHADOWING_ROWS[name]
    # r underflows to 0, or z = r/(2b) sits below what the series can
    # divide by: the signal dwarfs the jamming
    assert avg_min_dep_quadrature(1e200, 1e200, 1e-300, 1.0, params) == 0.0
    assert avg_min_dep_quadrature(1.0, 1.0, 5e-324, 1.0, params) == 0.0
    # r overflows: the warden can only guess
    assert avg_min_dep_quadrature(1.0, 1.0, 1e300, 1e10, params) == 1.0
    assert avg_min_dep_quadrature(1e-160, 1e-160, 1e300, 1.0, params) == 1.0
    # both powers leave the doubles, the same way, and r = 1 decides
    at_one = avg_min_dep_quadrature(1.0, 1.0, 1.0, 1.0, params)
    assert 0.0 < at_one < 1.0
    assert avg_min_dep_quadrature(1e300, 1e10, 1e300, 1e10, params) == at_one
    assert avg_min_dep_quadrature(1e-200, 1e-200, 1e-200, 1e-200,
                                  params) == at_one


def test_bound_closed_form_and_dominance():
    for name, params in SHADOWING_ROWS.items():
        g = gamma_from_sr(params)
        for rho in np.logspace(math.log10(0.5), math.log10(20.0), 12):
            r = g.theta * rho
            b = avg_min_dep_lower_bound(1.0, 1.0, r, 1.0, g)
            want = 1.0 - g.alpha * math.exp(-g.mu * r / g.theta) \
                - g.alpha * g.theta / r
            assert b.value_lb == pytest.approx(want, rel=1e-12)
            quad = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, params)
            assert b.value_lb <= quad + 1e-12, (name, rho)


@pytest.mark.parametrize("name", sorted(SHADOWING_ROWS))
def test_zero_powers_and_extreme_ratios_give_the_limits(name):
    params = SHADOWING_ROWS[name]
    g = gamma_from_sr(params)

    def values(pa, ell_aw, pj_hat, g_uw):
        return (avg_min_dep_lower_bound(pa, ell_aw, pj_hat, g_uw, g).value_lb,
                avg_min_dep_quadrature(pa, ell_aw, pj_hat, g_uw, params))

    # (pa, ell_aw, pj_hat, g_uw): no signal, or r past the doubles, is a
    # guess; no jamming, or r below the doubles, a sure detection; both
    # products past the doubles the same way leave r = 1
    silent = [(0.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0),
              (1e-200, 1e-200, 1.0, 1.0), (1e-300, 1e-10, 1e300, 1e10)]
    unjammed = [(1.0, 1.0, 0.0, 1.0), (1.0, 1.0, 1.0, 0.0),
                (1.0, 1.0, 1e-300, 1e-300)]
    at_one = [(1e300, 1e10, 1e300, 1e10), (1e-200, 1e-200, 1e-200, 1e-200)]
    for a in silent:
        assert values(*a) == (1.0, 1.0), a
    for a in unjammed:
        assert values(*a) == (-math.inf, 0.0), a
    for a in at_one:
        assert values(*a) == values(1.0, 1.0, 1.0, 1.0), a
    for a in silent + unjammed + at_one:
        bound, exact = values(*a)
        if math.isfinite(bound):
            assert bound <= exact, a


def test_phi_shape_and_inverse_round_trip():
    for name, params in SHADOWING_ROWS.items():
        g = gamma_from_sr(params)
        vals = [phi(x, g) for x in np.linspace(1e-4, 0.2, 50).tolist()]
        assert np.all(np.diff(vals) > 0.0)  # strictly increasing
        for eps in (0.005, 0.01, 0.05, 0.1):
            x0 = phi_inverse(eps, g)
            assert phi(x0, g) == pytest.approx(eps, abs=2e-10)
            assert x0 == pytest.approx(PHI_INV_REF[(name, eps)], rel=1e-7)
        # the largest double on the covert side: one ulp up crosses eps
        for eps in np.geomspace(1e-4, 0.9 * g.alpha, 40):
            x0 = phi_inverse(eps, g)
            assert phi(x0, g) <= eps < phi(np.nextafter(x0, np.inf), g)


def test_phi_float_path_has_array_bits():
    # a float gets the bits numpy's exp gives a 0-d array
    for params in SHADOWING_ROWS.values():
        g = gamma_from_sr(params)
        for x in np.geomspace(1e-6, 50.0, 3000).tolist():
            want = float(g.alpha * (np.exp(-g.mu / np.array(x)) + x))
            got = phi(x, g)
            assert type(got) is float
            assert got == want
            assert phi(np.float64(x), g) == want
        # phi(0) = 0 is the limit from above; inf is a ratio of 0
        assert phi(0.0, g) == phi(-0.0, g) == 0.0
        assert phi(math.inf, g) == math.inf
        for bad in (-1e-300, -2.0, -math.inf, math.nan):
            with pytest.raises(ValueError):
                phi(bad, g)
        with pytest.raises(ValueError):  # one float, not an array
            phi(np.array([1.0, 2.0]), g)


def bisect_phi_inverse(eps, g):
    """Largest double x with phi(x) <= eps by plain bisection from a
    halving bracket below 1, an independent path to phi_inverse's answer."""
    hi, lo = 1.0, 0.5
    while phi(lo, g) > eps:
        hi, lo = lo, 0.5 * lo
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        lo, hi = (mid, hi) if phi(mid, g) <= eps else (lo, mid)


def test_phi_inverse_matches_bisection_in_few_phi_calls(monkeypatch):
    calls = []

    def counted(x, g):
        calls.append(x)
        return phi(x, g)

    for params in SHADOWING_ROWS.values():
        g = gamma_from_sr(params)
        for eps in np.geomspace(1e-4, min(0.49, 0.999 * g.alpha), 300):
            want = bisect_phi_inverse(eps, g)
            calls.clear()
            with monkeypatch.context() as mp:
                mp.setattr(detection, "_phi", counted)
                got = phi_inverse(eps, g)
            assert got == want, (params, eps)
            assert 0 < len(calls) <= 12, (params, eps, len(calls))


def test_phi_inverse_rejects_out_of_range():
    g = gamma_from_sr(SHADOWING_ROWS["light"])
    with pytest.raises(ValueError):
        phi_inverse(0.0, g)
    with pytest.raises(ValueError):
        phi_inverse(g.alpha + 0.1, g)
    # phi(x) >= alpha * x, so no double x > 0 reaches an eps below alpha
    # times the least double
    with pytest.raises(ValueError, match="at least alpha times the least"):
        phi_inverse(math.ulp(0.0), g)


@pytest.mark.parametrize("name", sorted(SHADOWING_ROWS))
def test_phi_inverse_near_the_least_double(name):
    # at eps = 1e-300 the Newton iterate's square underflows to 0; the
    # answer is still the one phi alone decides
    g = gamma_from_sr(SHADOWING_ROWS[name])
    for eps in (1e-300, 1e-310, 3e-323):
        assert phi_inverse(eps, g) == bisect_phi_inverse(eps, g), eps


FINITE_CHECKED = [
    (avg_min_dep_quadrature, SHADOWING_ROWS["light"]),
    (avg_min_dep_lower_bound, gamma_from_sr(SHADOWING_ROWS["light"])),
]


@pytest.mark.parametrize("fn,law", FINITE_CHECKED)
def test_dep_scalar_checks(fn, law):
    # numpy scalars and ints pass the checks and give the float answer
    want = fn(1.0, 2.0, 3.0, 4.0, law)
    assert fn(np.float64(1.0), 2, np.float64(3.0), 4, law) == want
    names = ("pa", "ell_aw", "pj_hat", "g_uw")
    for i, name in enumerate(names):
        for bad in (math.nan, math.inf, -math.inf, -1.0):
            args = [1.0, 2.0, 3.0, 4.0]
            args[i] = bad
            with pytest.raises(ValueError) as e:
                fn(*args, law)
            assert str(e.value) == f"{name} must be finite and nonnegative, got {bad}"


def test_covert_constraint_boundary():
    # at the ratio phi_inverse sets, the bound is 1 - eps to solver
    # precision (which side it falls on is a coin flip at this knife
    # edge); 2% more jamming clears it, 2% less falls short
    g = gamma_from_sr(SHADOWING_ROWS["light"])
    eps = 0.01
    r = g.theta / phi_inverse(eps, g)
    b = avg_min_dep_lower_bound(1.0, 1.0, r, 1.0, g)
    assert b.value_lb == pytest.approx(1.0 - eps, abs=1e-9)
    assert avg_min_dep_lower_bound(1.0, 1.0, 1.02 * r, 1.0, g).value_lb > 1.0 - eps
    assert avg_min_dep_lower_bound(1.0, 1.0, 0.98 * r, 1.0, g).value_lb < 1.0 - eps


def test_quadrature_equals_mc_estimate():
    # cross-check the deterministic integral against a large MC draw
    from skycloak.channel import sample_sr_power
    params = SHADOWING_ROWS["average"]
    r = 2.5
    rng = np.random.default_rng(123)
    x = sample_sr_power(params, rng, 400_000)
    xi = np.maximum(0.0, 1.0 - x / r)
    se = xi.std(ddof=1) / math.sqrt(len(xi))
    quad = avg_min_dep_quadrature(1.0, 1.0, r, 1.0, params)
    assert abs(quad - xi.mean()) < 4.0 * se
