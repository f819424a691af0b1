"""Fading, link-budget, and rate primitives.

High-precision reference values below were computed with a 40-digit
arbitrary-precision evaluation of the same series and moment formulas
and are frozen here; the library, and the test suite's own squared-SR
CDF, must reproduce them in double precision.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import ks_statistic, simpson, sr_cdf, sr_pdf
from skycloak.channel import (SHADOWING_ROWS, SatelliteLink, SRParams,
                              UavPlacement, covert_rate, gamma_from_sr,
                              sample_sr_power, uav_gain, ue_rate)
from skycloak.detection import avg_min_dep_quadrature

# (alpha, theta, mu) of the Gamma surrogate per shadowing row
GAMMA_REF = {
    "light": (2.5768798286004304, 0.6232343402960548, 0.60692801206337719),
    "average": (2.1352003329910363, 0.5090857205315747, 0.68064077094992258),
    "heavy": (1.0, 0.126897, 1.0),
}

# squared-SR CDF on a fixed argument grid
CDF_X = [0.1, 0.5, 1.0, 1.606, 3.0, 8.0]
CDF_REF = {
    "light": [0.010725446236168068, 0.10864171501087126, 0.3112830328084071,
              0.56806352793564985, 0.90503325860622008, 0.99996311505310925],
    "average": [0.02894481634756074, 0.23235540801498233, 0.53083215571900457,
                0.78813753191686164, 0.97925439588292605, 0.9999995528870684],
    "heavy": [0.54526511238176286, 0.98055574202129259, 0.99962192083165747,
              0.9999968114157626, 0.99999999994595591, 1.0],
}

PDF_LIGHT_REF = {0.1: 0.13668514852609208, 1.0: 0.44191967547888916,
                 3.0: 0.11892002341189179}


def sr_moment2(p: SRParams) -> float:
    """Exact second moment of the squared-SR power."""
    return (8.0 * p.b ** 2 + 8.0 * p.b * p.omega
            + (p.m + 1.0) / p.m * p.omega ** 2)


def test_gamma_surrogate_reference_rows():
    for name, params in SHADOWING_ROWS.items():
        g = gamma_from_sr(params)
        want_a, want_t, want_mu = GAMMA_REF[name]
        assert_allclose((g.alpha, g.theta, g.mu), (want_a, want_t, want_mu),
                        rtol=1e-12)
        # mu is exp(-lgamma(alpha+1)/alpha) by construction
        assert g.mu == pytest.approx(
            math.exp(-math.lgamma(g.alpha + 1.0) / g.alpha), rel=1e-13)


def test_gamma_surrogate_moment_matching():
    # alpha*theta matches the mean and alpha*(alpha+1)*theta^2 the second
    # moment of the squared-SR law, for random parameter draws
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = SRParams(b=rng.uniform(0.01, 1.0), m=rng.uniform(1.0, 30.0),
                     omega=rng.uniform(1e-4, 10.0))
        g = gamma_from_sr(p)
        assert g.alpha * g.theta == pytest.approx(p.mean_power, rel=1e-12)
        assert g.alpha * (g.alpha + 1.0) * g.theta ** 2 == pytest.approx(
            sr_moment2(p), rel=1e-11)
        assert g.alpha >= 1.0


def test_gamma_surrogate_nakagami_one_is_exponential():
    # m = 1 must give shape exactly 1 (bit-exact), scale = mean
    g = gamma_from_sr(SRParams(b=0.2, m=1.0, omega=0.7))
    assert g.alpha == 1.0
    assert g.theta == pytest.approx(0.4 + 0.7, rel=1e-15)
    assert g.mu == 1.0


def test_cdf_reference_values():
    for name, params in SHADOWING_ROWS.items():
        got = sr_cdf(np.array(CDF_X), params)
        assert_allclose(got, CDF_REF[name], atol=5e-13, rtol=0)


def test_cdf_basic_shape():
    p = SHADOWING_ROWS["light"]
    assert sr_cdf(0.0, p) == 0.0
    x = np.linspace(0.0, 20.0, 400)
    c = sr_cdf(x, p)
    assert np.all(np.diff(c) >= 0.0)
    assert c[-1] == pytest.approx(1.0, abs=1e-10)


def test_pdf_reference_and_consistency():
    p = SHADOWING_ROWS["light"]
    for x, want in PDF_LIGHT_REF.items():
        assert sr_pdf(x, p) == pytest.approx(want, rel=1e-12)
    # pdf is the derivative of the cdf
    for x in (0.3, 0.9, 1.7, 4.0):
        h = 1e-5 * max(1.0, x)
        deriv = (sr_cdf(x + h, p) - sr_cdf(x - h, p)) / (2.0 * h)
        assert deriv == pytest.approx(sr_pdf(x, p), rel=1e-6)


def test_pdf_normalization_and_mean():
    for params in (SHADOWING_ROWS["light"], SHADOWING_ROWS["average"]):
        total = simpson(lambda x: sr_pdf(x, params), 0.0, 60.0, n=8192)
        mean = simpson(lambda x: x * sr_pdf(x, params), 0.0, 60.0, n=8192)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(params.mean_power, rel=1e-9)


def test_sampler_moments():
    p = SHADOWING_ROWS["light"]
    rng = np.random.default_rng(2024)
    x = sample_sr_power(p, rng, 1_000_000)
    assert np.all(x >= 0.0)
    var = sr_moment2(p) - p.mean_power ** 2
    se_mean = math.sqrt(var / len(x))
    assert abs(x.mean() - p.mean_power) < 4.0 * se_mean
    # second moment as well (moment test, distribution-free)
    m2 = (x ** 2).mean()
    se_m2 = (x ** 2).std(ddof=1) / math.sqrt(len(x))
    assert abs(m2 - sr_moment2(p)) < 4.0 * se_m2


@pytest.mark.parametrize("name", sorted(SHADOWING_ROWS))
def test_sampler_construction_and_stream_use(name):
    # one gamma fill, then two standard-normal fills, no phase; at m = 1
    # one standard-exponential fill times the mean power: pinned bit for
    # bit against a twin generator, which must then be in step
    p = SHADOWING_ROWS[name]
    n = 1_000
    rng, twin = np.random.default_rng([11, 3]), np.random.default_rng([11, 3])
    if p.m == 1.0:
        want = twin.standard_exponential(n) * p.mean_power
    else:
        zeta = twin.gamma(p.m, p.omega / p.m, n)
        n1 = twin.standard_normal(n)
        n2 = twin.standard_normal(n)
        want = (math.sqrt(p.b) * n1 + np.sqrt(zeta)) ** 2 + p.b * n2 ** 2
    assert np.array_equal(sample_sr_power(p, rng, n), want)
    assert rng.standard_normal() == twin.standard_normal()
    with pytest.raises(TypeError):  # size is required: no scalar draw
        sample_sr_power(p, rng)


def test_heavy_row_is_exactly_exponential():
    # m = 1 makes zeta exponential, so the line-of-sight term is a complex
    # Gaussian too and the power is exponential with the total mean power
    p = SHADOWING_ROWS["heavy"]
    scale = p.mean_power
    x = np.linspace(0.01, 1.0, 50)
    assert_allclose(sr_cdf(x, p), 1.0 - np.exp(-x / scale),
                    atol=1e-12, rtol=0)
    rng = np.random.default_rng(5)
    draws = sample_sr_power(p, rng, 100_000)
    ks = ks_statistic(draws, lambda v: 1.0 - np.exp(-v / scale))
    assert ks < 0.006


def test_m1_branch_edge_meets_the_general_law():
    # the m = 1 branch (one exponential fill, the closed-form DEP) and the
    # general path one ulp above it draw and average the same law
    b, omega = 0.37, 2.9
    exact, edge = SRParams(b, 1.0, omega), SRParams(b, np.nextafter(1.0, 2.0), omega)
    scale = 2.0 * b + omega
    for p in (exact, edge):
        x = sample_sr_power(p, np.random.default_rng([13, 2]), 20_000)
        ks = ks_statistic(x, lambda v: 1.0 - np.exp(-v / scale))
        assert ks < 1.628 / math.sqrt(len(x)), (p, ks)
    for r in np.geomspace(1e-4, 1e4, 81) * scale:
        series = avg_min_dep_quadrature(1.0, 1.0, float(r), 1.0, edge)
        closed = avg_min_dep_quadrature(1.0, 1.0, float(r), 1.0, exact)
        assert abs(series - closed) <= 1e-12, r


@pytest.mark.parametrize("fc,d,G", [(2.0e9, 1e203, 1000.0),   # underflows
                                    (1e-300, 1e-300, 1.0),   # 4 pi fc d = 0
                                    (1e-200, 1e-100, 1e10)])  # overflows
def test_satellite_large_scale_outside_the_doubles_raises(fc, d, G):
    with pytest.raises(ValueError, match="outside the positive doubles"):
        SatelliteLink(fc, d, G)


def test_satellite_large_scale_value_and_scaling():
    def ell(fc, d, G):
        return SatelliteLink(fc, d, G).ell

    base = ell(2.0e9, 500.0e3, 1000.0)
    want = 1000.0 * (299_792_458.0 / (4.0 * math.pi * 2.0e9 * 500.0e3)) ** 2
    assert base == pytest.approx(want, rel=1e-15)
    assert base == pytest.approx(5.6914336571490745e-13, rel=1e-12)
    # inverse-square in distance and frequency, linear in gain
    assert ell(2.0e9, 1000.0e3, 1000.0) == pytest.approx(base / 4.0, rel=1e-12)
    assert ell(4.0e9, 500.0e3, 1000.0) == pytest.approx(base / 4.0, rel=1e-12)
    assert ell(2.0e9, 500.0e3, 2000.0) == pytest.approx(2.0 * base, rel=1e-12)


def test_uav_gain_inverse_square():
    beta0 = 1.4125375446227544e-4  # -38.5 dB
    pl = UavPlacement(q=np.array([30.0, -40.0]), H=120.0)
    d2 = 30.0 ** 2 + 40.0 ** 2 + 120.0 ** 2
    assert uav_gain(pl, np.array([0.0, 0.0]), beta0) == pytest.approx(
        beta0 / d2, rel=1e-14)
    # same point directly underneath
    pl0 = UavPlacement(q=np.array([5.0, 5.0]), H=100.0)
    assert uav_gain(pl0, np.array([5.0, 5.0]), beta0) == pytest.approx(
        beta0 / 100.0 ** 2, rel=1e-14)


def test_rate_formulas():
    # covert rate at Bob: log2(1 + Pa g_ab / (varpi Pj g_ub + sigma))
    assert covert_rate(2.0, 0.5, 0.1, 4.0, 0.25, 0.9) == pytest.approx(
        math.log2(1.0 + 1.0 / (0.1 + 0.9)), rel=1e-14)
    # perfect cancellation removes the jamming term entirely
    assert covert_rate(2.0, 0.5, 0.0, 1e9, 0.25, 1.0) == pytest.approx(
        math.log2(2.0), rel=1e-14)
    assert ue_rate(3.0, 0.5, 0.5) == pytest.approx(math.log2(4.0), rel=1e-14)
    # monotone in signal power, antitone in jamming
    assert covert_rate(3.0, 0.5, 0.1, 4.0, 0.25, 0.9) > covert_rate(
        2.0, 0.5, 0.1, 4.0, 0.25, 0.9)
    assert covert_rate(2.0, 0.5, 0.2, 4.0, 0.25, 0.9) < covert_rate(
        2.0, 0.5, 0.1, 4.0, 0.25, 0.9)


def test_srparams_validation():
    with pytest.raises(ValueError):
        SRParams(b=-0.1, m=2.0, omega=1.0)
    with pytest.raises(ValueError):
        SRParams(b=0.1, m=0.5, omega=1.0)  # needs m >= 1
    with pytest.raises(ValueError):
        SRParams(b=0.1, m=2.0, omega=-1.0)
