"""Shared fixtures and independent numerical helpers for the test suite.

The integrator, the KS statistic, the squared-SR density and the
radiometer's error probabilities here are deliberately written from
scratch (composite Simpson on a fixed grid, textbook two-sided KS, the
confluent-hypergeometric density summed in log space, uniform CDFs) so
the library's own DEP formulas, series and samplers are checked against
an independent path.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from skycloak.planner import bcd_optimize, perfect_cancellation_optimize
from skycloak.scenario_io import load_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent


# (mutation of a default_scenario_dict, regex of the model's message):
# values that parse as numbers but fall outside a model's range checks
OUT_OF_RANGE = [
    pytest.param(lambda d: d.update(eps=0.7),
                 r"eps must be in \(0, 0\.5\), got 0\.7", id="eps"),
    pytest.param(lambda d: d["H_min"].update(value=d["H_max"]["value"]),
                 "need 0 < H_min < H_max", id="H_min=H_max"),
    pytest.param(lambda d: d.update(varpi=2),
                 r"varpi must be in \[0, 1\], got 2", id="varpi"),
    pytest.param(lambda d: d.update(i_max=0),
                 "need delta > 0 and i_max >= 1", id="i_max"),
    pytest.param(lambda d: d["uav"].update(phi_min={"value": 95.0,
                                                    "unit": "deg"}),
                 r"phi_min must lie in \(0, pi/2\)", id="phi_min"),
    pytest.param(lambda d: d.update(shadowing={"b": 0.126, "m": 0.5,
                                               "omega": 0.835}),
                 "m must be >= 1, got 0.5", id="shadowing.m"),
    pytest.param(lambda d: d["satellite"]["d"].update(value=-500.0),
                 "fc, d, G must all be positive", id="satellite.d"),
]


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
