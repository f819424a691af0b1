"""Shared fixtures and independent numerical helpers for the test suite.

The integrator and the KS statistic here are deliberately written from
scratch (composite Simpson on a fixed grid, textbook two-sided KS) so
the library's own DEP series and samplers are checked against
an independent path.
"""

from pathlib import Path

import numpy as np
import pytest

from skycloak.planner import bcd_optimize, perfect_cancellation_optimize
from skycloak.scenario_io import load_scenario

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
