"""Shared fixtures and independent numerical helpers for the test suite.

The integrator, the KS statistic, the squared-SR density and CDF and the
radiometer's error probabilities here are deliberately written from
scratch (composite Simpson on a fixed grid, textbook two-sided KS, the
confluent-hypergeometric density and a Poisson-weighted survival series,
both summed in log space, uniform CDFs) so the library's own DEP formulas,
series and samplers are checked against an independent path.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from skycloak import planner, solvers
from skycloak.planner import bcd_optimize, perfect_cancellation_optimize
from skycloak.scenario_io import load_scenario
from skycloak.solvers import _barrier_maximize

REPO_ROOT = Path(__file__).resolve().parent.parent


def simpson(f, a, b, n=4096):
    """Composite Simpson rule with n (even) panels on [a, b]."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                      + 2.0 * y[2:-1:2].sum())


def sr_pdf(x, p):
    """Density of the squared shadowed-Rician envelope at x >= 0:

        f(x) = (2bm/(2bm+omega))^m / (2b) * e^(-x/2b)
               * 1F1(m; 1; omega*x / (2b*(2bm+omega))),

    with 1F1(m; 1; z) = sum_n (m)_n z^n / (n!)^2 taken to a fixed 400
    terms, each formed from log-gamma values.
    """
    b, m, omega = p.b, p.m, p.omega
    x = np.asarray(x, dtype=float)
    n = np.arange(400.0)
    z = omega * x / (2.0 * b * (2.0 * b * m + omega))
    log_z = np.log(np.maximum(z, 1e-300))[..., None]
    lgam = np.vectorize(math.lgamma)
    log_terms = (lgam(m + n) - math.lgamma(m) - 2.0 * lgam(n + 1.0)
                 + n * log_z)
    scale = m * math.log(2.0 * b * m / (2.0 * b * m + omega)) - math.log(2.0 * b)
    out = np.exp(log_terms + (scale - x / (2.0 * b))[..., None]).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def sr_cdf(x, p):
    """CDF of the squared shadowed-Rician envelope at x >= 0.

    The law is the mixture of Gamma(n+1, 2b) laws with weights
    w_n = (1-y)^m (m)_n y^n / n!, y = omega/(2bm+omega), and a Gamma(n+1, 2b)
    law exceeds x with the Poisson probability of at most n events at rate
    z = x/(2b). So the survival function is

        1 - F(x) = sum_{j>=0} e^(-z) z^j / j! * (w_j + w_{j+1} + ...),

    a sum of positive terms, each formed from log-gamma values and taken
    to j = z + 12 sqrt(z) + 60, past which the Poisson tail is below 1e-30;
    the weight tails are summed over 400 more weights.
    """
    b, m, omega = p.b, p.m, p.omega
    z = np.asarray(x, dtype=float) / (2.0 * b)
    top = float(np.max(z))
    jmax = int(top + 12.0 * math.sqrt(top)) + 60
    n = np.arange(jmax + 400.0)
    y = omega / (2.0 * b * m + omega)
    lgam = np.vectorize(math.lgamma)
    log_w = (m * math.log1p(-y) + lgam(m + n) - math.lgamma(m)
             - lgam(n + 1.0) + n * math.log(y))
    tails = np.cumsum(np.exp(log_w)[::-1])[::-1]
    log_z = np.log(np.maximum(z, 1e-300))
    survival = np.zeros_like(z)
    for j in range(jmax + 1):
        survival += np.exp(j * log_z - z - math.lgamma(j + 1.0)) * tails[j]
    out = np.where(z > 0.0, 1.0 - survival, 0.0)
    return float(out) if out.ndim == 0 else out


def radiometer_errors(tau, sig, jam, sigma_w2):
    """(false alarm, missed detection) of the warden's test "received
    power > tau" in one slot.

    Without the satellite signal the received power is uniform on
    [sigma_w2, sigma_w2 + jam], with it on [sigma_w2 + sig,
    sigma_w2 + sig + jam]; false alarm is P(power > tau) under the first
    law and missed detection P(power < tau) under the second. Needs
    jam > 0. Accepts scalar or array tau.
    """
    tau = np.asarray(tau, dtype=float)

    def uniform_cdf(lo):
        return np.clip((tau - lo) / jam, 0.0, 1.0)

    return 1.0 - uniform_cdf(sigma_w2), uniform_cdf(sigma_w2 + sig)


def benchmark_corpus(n, varpis):
    """The benchmark's seeded scenario corpus, read from its generator."""
    path = REPO_ROOT / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.base_corpus(n, varpis)


def default_scenario_dict(varpi=0.1, seed=12) -> dict:
    """``scenarios/default.json`` with ``varpi`` and ``rng_seed`` set."""
    d = json.loads((REPO_ROOT / "scenarios" / "default.json").read_text())
    d["varpi"] = varpi
    d["rng_seed"] = seed
    return d


# BCD scenarios with the most SCA rounds of the 24-scenario corpus, and
# varpi = 0 scenarios that run 2 or 3 Dinkelbach rounds
WARM_CASES = [pytest.param((0.01, 0.1, 1.0), base, id=f"bcd-{base}")
              for base in (2, 9, 15)] + [
              pytest.param((0.0,), base, id=f"cancel-{base}")
              for base in (3, 35, 80)]


def plan_with_barrier(monkeypatch, plan, s, barrier=_barrier_maximize):
    """(plan(s), the ``info`` of each barrier solve it makes), with every
    solve made by ``barrier`` in place of ``_barrier_maximize`` in both
    ``solvers`` and ``planner``."""
    infos = []

    def recorded(*args, **kwargs):
        x, info = barrier(*args, **kwargs)
        infos.append(info)
        return x, info

    with monkeypatch.context() as m:
        m.setattr(solvers, "_barrier_maximize", recorded)
        m.setattr(planner, "_barrier_maximize", recorded)
        return plan(s), infos


def cold_barrier(*args, _warm=None, **kwargs):
    """``_barrier_maximize`` with the warm point withheld: with it, a plan
    runs the planners' own loops with every round started cold."""
    return _barrier_maximize(*args, **kwargs)


def ks_statistic(samples, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of samples to cdf."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    F = cdf(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return REPO_ROOT / "scenarios"


@pytest.fixture(scope="session")
def default_loaded(scenarios_dir):
    return load_scenario(scenarios_dir / "default.json")


@pytest.fixture(scope="session")
def perfect_loaded(scenarios_dir):
    return load_scenario(scenarios_dir / "default_perfect.json")


@pytest.fixture(scope="session")
def default_scenario(default_loaded):
    return default_loaded.scenario


@pytest.fixture(scope="session")
def perfect_scenario(perfect_loaded):
    return perfect_loaded.scenario


@pytest.fixture(scope="session")
def bcd_solution(default_scenario):
    sol = bcd_optimize(default_scenario)
    assert sol.status == "converged", sol.message
    return sol


@pytest.fixture(scope="session")
def pc_solution(perfect_scenario):
    sol = perfect_cancellation_optimize(perfect_scenario)
    assert sol.status == "converged", sol.message
    return sol
