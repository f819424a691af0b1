"""Seeded scenario corpus for the planning workloads.

Each scenario is a scenario-file dict in engineering units, as a user
would write it. The distribution follows the ROADMAP corpus: shadowing
row, ``eps`` log-uniform on [1e-3, 0.4], ``P_tot`` log-uniform on
[0.1, 31.6] W, ``R_tg`` on [1, 8], K in 0..11 UEs on a square with side in
[100, 1200] m, Bob and the warden uniform in +-400 m.

Planning times differ by two orders of magnitude between scenarios, so a
corpus freshly drawn for every seed moves the median by more than any
bound worth keeping (measured: +-15% between seeds at 36 scenarios). A
rigid motion of each problem per seed does not help either: the
Dinkelbach path's time for one problem varies up to 10x between
rotations of its geometry. The problems are therefore drawn once, from
``BASE_SEED``, stratified in blocks of 12 (every K in 0..11 once per
block, each shadowing row and ``varpi`` equally often, continuous fields
one draw per twelfth of their range), and the workload seed only orders
them.
"""

from __future__ import annotations

import copy

import numpy as np

BASE_SEED = 5
BLOCK = 12
SHADOWING = ("light", "average", "heavy")

TEMPLATE = {
    "shadowing": "light",
    "satellite": {
        "fc": {"value": 2.0, "unit": "GHz"},
        "d": {"value": 500.0, "unit": "km"},
        "G": {"value": 30.0, "unit": "dBi"},
    },
    "uav": {
        "beta0_chi": {"value": -38.5, "unit": "dB"},
        "beta0_kappa": {"value": -60.0, "unit": "dB"},
        "phi_min": {"value": 50.0, "unit": "deg"},
    },
    "bob": {"value": [200.0, -100.0], "unit": "m"},
    "willie": {"value": [100.0, -200.0], "unit": "m"},
    "ue_placement": {},
    "noise": {
        "sigma_kappa2": {"value": -114.0, "unit": "dBm"},
        "sigma_b2": {"value": -104.0, "unit": "dBm"},
        "sigma_w2": {"value": -104.0, "unit": "dBm"},
    },
    "varpi": 0.1,
    "eps": 0.01,
    "P_tot": {"value": 1.0, "unit": "W"},
    "Pa_max": {"value": 10.0, "unit": "W"},
    "H_min": {"value": 50.0, "unit": "m"},
    "H_max": {"value": 500.0, "unit": "m"},
    "R_tg": 6.0,
    "delta": 1e-06,
    "i_max": 50,
    "rng_seed": 0,
}


def _strata(rng: np.random.Generator) -> np.ndarray:
    """One uniform draw from each twelfth of [0, 1), shuffled."""
    return (rng.permutation(BLOCK) + rng.uniform(size=BLOCK)) / BLOCK


def _log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def _ue_node(ues: list, side: float = 100.0) -> dict:
    # the file format has no empty explicit list: K = 0 is an empty square
    if not ues:
        return {"uniform_square": {"side": {"value": float(side), "unit": "m"},
                                   "count": 0}}
    return {"explicit": {"value": ues, "unit": "m"}}


def base_corpus(n: int, varpis) -> list:
    """The first ``n`` problems of the stratified draw for ``varpis``."""
    rng = np.random.default_rng([BASE_SEED, len(varpis)])
    varpis = list(varpis)
    out = []
    while len(out) < n:
        ks = rng.permutation(BLOCK)
        rows = rng.permutation(np.repeat(np.arange(len(SHADOWING)), BLOCK // 3))
        vs = rng.permutation(np.resize(np.arange(len(varpis)), BLOCK))
        eps = _log_uniform(_strata(rng), 1e-3, 0.4)
        ptot = _log_uniform(_strata(rng), 0.1, 31.6)
        rtg = 1.0 + 7.0 * _strata(rng)
        side = 100.0 + 1100.0 * _strata(rng)
        for i in range(BLOCK):
            d = copy.deepcopy(TEMPLATE)
            d["shadowing"] = SHADOWING[rows[i]]
            d["varpi"] = float(varpis[vs[i]])
            d["eps"] = float(eps[i])
            d["P_tot"]["value"] = float(ptot[i])
            d["R_tg"] = float(rtg[i])
            half = side[i] / 2.0
            ues = rng.uniform(-half, half, size=(int(ks[i]), 2)).tolist()
            d["ue_placement"] = _ue_node(ues, side[i])
            d["bob"]["value"] = rng.uniform(-400.0, 400.0, 2).tolist()
            d["willie"]["value"] = rng.uniform(-400.0, 400.0, 2).tolist()
            out.append(d)
    return out[:n]


def workload_corpus(seed: int, n: int, varpis) -> list:
    """The corpus one run plans, as (base index, scenario) pairs: the base
    problems in an order, and with ``rng_seed`` fields, drawn from the
    workload seed."""
    base = base_corpus(n, varpis)
    rng = np.random.default_rng([seed, len(varpis)])
    out = []
    for i in rng.permutation(n):
        d = copy.deepcopy(base[i])
        d["rng_seed"] = int(rng.integers(0, 2**31))
        out.append((int(i), d))
    return out
