"""Scenario files: strict unit-tagged JSON in, SI-unit problem instances out.

A scenario file carries every dimensioned quantity as ``{"value": ...,
"unit": "..."}`` so that nothing is ambiguous at the boundary: frequencies
in Hz or GHz, distances in m or km, powers in W or dBm, gains linear or in
dB/dBi, angles in rad or deg. Everything is converted to SI (Hz, m, W,
linear, rad) on load. Unknown keys are rejected at every nesting level; a
typo never silently falls back to a default.

UE positions come either as an explicit list or as a ``uniform_square``
sampler resolved from the scenario's RNG seed at load time; the resolved
positions are part of the returned object so every downstream run is
replayable. The scenario hash is the SHA-256 of the canonical (sorted-key)
JSON encoding of the raw file, so it is stable under field reordering.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import (
    SHADOWING_ROWS,
    SatelliteLink,
    SRParams,
    UavLinkBudget,
)
from .planner import Scenario

__all__ = [
    "ScenarioError",
    "LoadedScenario",
    "load_scenario",
    "scenario_hash",
    "dbm_to_watts",
    "db_to_linear",
]


class ScenarioError(ValueError):
    """Malformed scenario file: unknown field, missing field, bad unit, or a
    value out of the model's range."""


def dbm_to_watts(x: float) -> float:
    return 10.0 ** ((x - 30.0) / 10.0)


def db_to_linear(x: float) -> float:
    return 10.0 ** (x / 10.0)


_FREQ = {"Hz": lambda v: v, "GHz": lambda v: v * 1e9}
_DIST = {"m": lambda v: v, "km": lambda v: v * 1e3}
_POWER = {"W": lambda v: v, "dBm": dbm_to_watts}
_GAIN = {"linear": lambda v: v, "dB": db_to_linear, "dBi": db_to_linear}
_ANGLE = {"rad": lambda v: v, "deg": math.radians}


def _check_keys(node: dict, allowed, required, path: str) -> None:
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(node).__name__}")
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s) {unknown}")
    missing = sorted(set(required) - set(node))
    if missing:
        raise ScenarioError(f"{path}: missing required field(s) {missing}")


def _quantity(node, units: dict, path: str):
    _check_keys(node, ("value", "unit"), ("value", "unit"), path)
    unit = node["unit"]
    if unit not in units:
        raise ScenarioError(
            f"{path}: unit {unit!r} not one of {sorted(units)}")
    return units[unit], node["value"]


def _number(v, path: str) -> float:
    """Read one JSON number; a bool, a non-number, NaN, +-Infinity or an
    int too large for a float raises a ScenarioError naming the field."""
    # bool is an int; abs(v) <= max is False for NaN, +-Infinity and an int
    # too large for a float
    if (not isinstance(v, (int, float)) or isinstance(v, bool)
            or not abs(v) <= sys.float_info.max):
        raise ScenarioError(f"{path}: must be a number (a finite plain "
                            "number, not a bool or a string)")
    return float(v)


def _si(conv, v, path: str) -> float:
    """Read v with _number and convert it to SI; a result past the float
    range raises a ScenarioError naming the field."""
    try:
        x = float(conv(_number(v, path)))
    except OverflowError:  # 10.0 ** x for a dB or dBm value
        x = math.inf
    if not abs(x) <= sys.float_info.max:
        raise ScenarioError(f"{path}: value overflows a float in SI units")
    return x


def _scalar(node, units: dict, path: str) -> float:
    conv, v = _quantity(node, units, path)
    return _si(conv, v, path)


def _point2(node, path: str) -> np.ndarray:
    conv, v = _quantity(node, _DIST, path)
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ScenarioError(f"{path}: value must be a 2-element [x, y]")
    return np.array([_si(conv, c, path) for c in v])


def _model(cls, *args, **kwargs):
    """cls(*args, **kwargs); a ValueError from the model's range checks is
    re-raised as a ScenarioError with the same message."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        raise ScenarioError(str(e)) from e


def _plain_number(raw: dict, key: str, default=None) -> float:
    if key not in raw:
        if default is None:
            raise ScenarioError(f"missing required field '{key}'")
        return default
    return _number(raw[key], key)


@dataclass(frozen=True)
class LoadedScenario:
    """A parsed scenario plus its replay context."""

    scenario: Scenario
    seed: int
    hash: str             # canonical-JSON SHA-256 of the file contents


def scenario_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


_TOP_KEYS = (
    "shadowing", "satellite", "uav", "bob", "willie", "ue_placement", "noise",
    "varpi", "eps", "P_tot", "Pa_max", "H_min", "H_max", "R_tg",
    "delta", "i_max", "rng_seed",
)
_TOP_REQUIRED = tuple(k for k in _TOP_KEYS if k not in ("delta", "i_max", "rng_seed"))


def _parse_shadowing(node, path: str) -> SRParams:
    if isinstance(node, str):
        if node not in SHADOWING_ROWS:
            raise ScenarioError(
                f"{path}: unknown shadowing row {node!r}; "
                f"expected one of {sorted(SHADOWING_ROWS)} or explicit {{b, m, omega}}")
        return SHADOWING_ROWS[node]
    _check_keys(node, ("b", "m", "omega"), ("b", "m", "omega"), path)
    return _model(SRParams, *(_number(node[key], f"{path}.{key}")
                              for key in ("b", "m", "omega")))


def _resolve_ues(node, seed: int, path: str):
    _check_keys(node, ("explicit", "uniform_square"), (), path)
    if ("explicit" in node) == ("uniform_square" in node):
        raise ScenarioError(
            f"{path}: give exactly one of 'explicit' or 'uniform_square'")
    if "explicit" in node:
        conv, v = _quantity(node["explicit"], _DIST, f"{path}.explicit")
        if not isinstance(v, (list, tuple)) or not all(
                isinstance(xy, (list, tuple)) and len(xy) == 2 for xy in v):
            raise ScenarioError(f"{path}.explicit: value must be a list of [x, y] pairs")
        return np.array([[_si(conv, c, f"{path}.explicit") for c in xy]
                         for xy in v]).reshape(-1, 2)
    sq = node["uniform_square"]
    _check_keys(sq, ("side", "count"), ("side", "count"), f"{path}.uniform_square")
    side = _scalar(sq["side"], _DIST, f"{path}.uniform_square.side")
    if side < 0.0:
        raise ScenarioError(f"{path}.uniform_square.side: must be >= 0")
    count = sq["count"]
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ScenarioError(f"{path}.uniform_square.count: must be a nonnegative integer")
    if count == 0:
        return np.empty((0, 2))  # nothing to draw: no generator is built
    rng = np.random.default_rng([1, seed])  # stream 1: UE placement
    return rng.uniform(-side / 2.0, side / 2.0, size=(count, 2))


def load_scenario(source, seed: int | None = None) -> LoadedScenario:
    """Parse a scenario file (path, JSON string content not accepted) or dict.

    ``seed`` overrides the file's ``rng_seed`` for UE sampling and any
    downstream Monte Carlo, and must be a nonnegative integer as well.
    Raises ScenarioError on any unknown field, missing field, unmappable
    unit, negative seed or value out of the model's range.
    """
    if isinstance(source, dict):
        raw = source
    else:
        try:
            raw = json.loads(Path(source).read_text())
        except OSError as e:
            raise ScenarioError(f"cannot read scenario file {source}: {e}") from e
        except json.JSONDecodeError as e:
            raise ScenarioError(f"scenario file {source} is not valid JSON: {e}") from e
    _check_keys(raw, _TOP_KEYS, _TOP_REQUIRED, "scenario")

    sr = _parse_shadowing(raw["shadowing"], "shadowing")
    sat_node = raw["satellite"]
    _check_keys(sat_node, ("fc", "d", "G"), ("fc", "d", "G"), "satellite")
    sat = _model(
        SatelliteLink,
        fc=_scalar(sat_node["fc"], _FREQ, "satellite.fc"),
        d=_scalar(sat_node["d"], _DIST, "satellite.d"),
        G=_scalar(sat_node["G"], _GAIN, "satellite.G"),
    )
    uav_node = raw["uav"]
    _check_keys(uav_node, ("beta0_chi", "beta0_kappa", "phi_min"),
                ("beta0_chi", "beta0_kappa", "phi_min"), "uav")
    budget = _model(
        UavLinkBudget,
        beta0_chi=_scalar(uav_node["beta0_chi"], _GAIN, "uav.beta0_chi"),
        beta0_kappa=_scalar(uav_node["beta0_kappa"], _GAIN, "uav.beta0_kappa"),
        phi_min=_scalar(uav_node["phi_min"], _ANGLE, "uav.phi_min"),
    )
    noise = raw["noise"]
    _check_keys(noise, ("sigma_kappa2", "sigma_b2", "sigma_w2"),
                ("sigma_kappa2", "sigma_b2", "sigma_w2"), "noise")

    rng_seed = raw.get("rng_seed", 0)
    resolved_seed = rng_seed if seed is None else int(seed)
    if (not isinstance(rng_seed, int) or isinstance(rng_seed, bool)
            or min(rng_seed, resolved_seed) < 0):
        raise ScenarioError("rng_seed: must be a nonnegative integer")
    ues = _resolve_ues(raw["ue_placement"], resolved_seed, "ue_placement")

    i_max = raw.get("i_max", 50)
    if not isinstance(i_max, int) or isinstance(i_max, bool):
        raise ScenarioError("i_max: must be an integer")

    scenario = _model(
        Scenario,
        sr=sr,
        sat=sat,
        budget=budget,
        bob=_point2(raw["bob"], "bob"),
        willie=_point2(raw["willie"], "willie"),
        ues=ues,
        sigma_kappa2=_scalar(noise["sigma_kappa2"], _POWER, "noise.sigma_kappa2"),
        sigma_b2=_scalar(noise["sigma_b2"], _POWER, "noise.sigma_b2"),
        sigma_w2=_scalar(noise["sigma_w2"], _POWER, "noise.sigma_w2"),
        varpi=_plain_number(raw, "varpi"),
        eps=_plain_number(raw, "eps"),
        P_tot=_scalar(raw["P_tot"], _POWER, "P_tot"),
        Pa_max=_scalar(raw["Pa_max"], _POWER, "Pa_max"),
        H_min=_scalar(raw["H_min"], _DIST, "H_min"),
        H_max=_scalar(raw["H_max"], _DIST, "H_max"),
        R_tg=_plain_number(raw, "R_tg"),
        delta=_plain_number(raw, "delta", 1e-6),
        i_max=i_max,
    )
    return LoadedScenario(scenario=scenario, seed=resolved_seed,
                          hash=scenario_hash(raw))

