"""Scenario files: strict unit-tagged JSON in, SI-unit problem instances out.

The field table ``_SCENARIO`` and the tables it nests are the one statement
of the file format: each key of each object, how it is read, its default
when optional and the keyword it fills. A quantity is written ``{"value":
..., "unit": "..."}`` and converted to SI (Hz, m, W, linear, rad) on load.
An unknown key is an error at every level, never a fallback to a default.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .channel import SHADOWING_ROWS, SatelliteLink, SRParams, UavLinkBudget
from .planner import Scenario

__all__ = ["ScenarioError", "LoadedScenario", "load_scenario", "scenario_hash",
           "dbm_to_watts", "db_to_linear"]


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


def _check_keys(node, allowed: frozenset, required: frozenset, path: str):
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(node).__name__}")
    keys = node.keys()
    if not keys <= allowed:
        raise ScenarioError(f"{path}: unknown field(s) {sorted(keys - allowed)}")
    if not keys >= required:
        raise ScenarioError(f"{path}: missing required field(s) {sorted(required - keys)}")


_QUANTITY_KEYS = frozenset(("value", "unit"))


def _quantity(node, units: dict, path: str):
    _check_keys(node, _QUANTITY_KEYS, _QUANTITY_KEYS, path)
    unit = node["unit"]
    if unit not in units:
        raise ScenarioError(f"{path}: unit {unit!r} not one of {sorted(units)}")
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


def _model(cls, **kwargs):
    """cls(**kwargs), a model's ValueError re-raised as a ScenarioError."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ScenarioError(str(e)) from e


def _scalar(units: dict, least: float = -math.inf):
    """Reader of a ``{"value", "unit"}`` number, at least ``least`` in SI."""
    def read(node, path: str) -> float:
        conv, v = _quantity(node, units, path)
        x = _si(conv, v, path)
        if x < least:
            raise ScenarioError(f"{path}: must be >= {least:g}")
        return x
    return read


def _point2(node, path: str, many: bool = False) -> np.ndarray:
    """Reader of a ``{"value", "unit"}`` [x, y] pair, or ``many`` of them."""
    conv, v = _quantity(node, _DIST, path)
    rows = v if many and isinstance(v, (list, tuple)) else [v]
    if not all(isinstance(xy, (list, tuple)) and len(xy) == 2 for xy in rows):
        raise ScenarioError(f"{path}: value must be " + (
            "a list of [x, y] pairs" if many else "a 2-element [x, y]"))
    xy = np.array([[_si(conv, c, path) for c in row] for row in rows])
    return xy.reshape(-1, 2) if many else xy[0]


def _integer(v, path: str, nonneg: bool = False) -> int:
    """Read an integer (not a bool); with ``nonneg``, a nonnegative one."""
    if (not isinstance(v, numbers.Integral) or isinstance(v, bool)
            or (nonneg and v < 0)):
        what = "a nonnegative integer" if nonneg else "an integer"
        raise ScenarioError(f"{path}: must be {what}")
    return operator.index(v)


_count = partial(_integer, nonneg=True)
_REQUIRED = object()


class _Field(NamedTuple):
    """One key: ``read(value, path)`` reads it, ``default`` stands in when
    it is absent (none: required), and it fills the keyword ``arg`` (empty:
    the key; ``"**"``: its own keywords fill the enclosing object's)."""

    key: str
    read: Callable
    default: object = _REQUIRED
    arg: str = ""


class _Object:
    """Reader of an object by its field table: checks the keys, reads each
    field in table order and passes the keywords they fill to ``cls``."""

    def __init__(self, cls, *fields: _Field):
        self.cls, self.fields = cls, fields
        self.keys = frozenset(f.key for f in fields)
        self.required = frozenset(f.key for f in fields if f.default is _REQUIRED)

    def __call__(self, node, path: str):
        _check_keys(node, self.keys, self.required, path or "scenario")
        kw = {}
        for f in self.fields:
            v = (f.read(node[f.key], f"{path}.{f.key}" if path else f.key)
                 if f.key in node else f.default)
            if f.arg == "**":
                kw.update(v)
            else:
                kw[f.arg or f.key] = v
        return _model(self.cls, **kw)


_SHADOWING = _Object(SRParams, *(_Field(key, _number) for key in ("b", "m", "omega")))


def _shadowing(node, path: str) -> SRParams:
    """A row of ``SHADOWING_ROWS`` by name, or an explicit object."""
    if not isinstance(node, str):
        return _SHADOWING(node, path)
    if node not in SHADOWING_ROWS:
        raise ScenarioError(f"{path}: unknown shadowing row {node!r}; expected one of "
                            f"{sorted(SHADOWING_ROWS)} or explicit "
                            f"{{{', '.join(f.key for f in _SHADOWING.fields)}}}")
    return SHADOWING_ROWS[node]


def _uniform_square(side: float, count: int):
    """UE positions uniform on a square about the origin, drawn from stream
    1 of the seed; no generator is built for count 0."""
    return lambda seed: np.random.default_rng([1, seed]).uniform(
        -side / 2.0, side / 2.0, size=(count, 2)) if count else np.empty((0, 2))


_UE_MODES = _Object(dict, _Field("explicit", partial(_point2, many=True), None),
                    _Field("uniform_square", _Object(
                        _uniform_square, _Field("side", _scalar(_DIST, 0.0)),
                        _Field("count", _count)), None))


def _ue_placement(node, path: str):
    """Exactly one UE mode, read to the positions as a function of the seed."""
    explicit, draw = _UE_MODES(node, path).values()
    if (explicit is None) == (draw is None):
        raise ScenarioError(f"{path}: give exactly one of "
                            + " or ".join(repr(f.key) for f in _UE_MODES.fields))
    return draw or (lambda seed: explicit)


_SEED = _Field("rng_seed", _count, 0, "seed")

# the file format, read in this order; load_scenario settles the seed
_SCENARIO = _Object(
    dict, _Field("shadowing", _shadowing, arg="sr"),
    _Field("satellite", _Object(
        SatelliteLink, _Field("fc", _scalar(_FREQ)), _Field("d", _scalar(_DIST)),
        _Field("G", _scalar(_GAIN))), arg="sat"),
    _Field("uav", _Object(
        UavLinkBudget, _Field("beta0_chi", _scalar(_GAIN)),
        _Field("beta0_kappa", _scalar(_GAIN)), _Field("phi_min", _scalar(_ANGLE))),
        arg="budget"),
    _Field("noise", _Object(
        dict, _Field("sigma_kappa2", _scalar(_POWER)),
        _Field("sigma_b2", _scalar(_POWER)), _Field("sigma_w2", _scalar(_POWER))),
        arg="**"),
    _SEED,
    _Field("ue_placement", _ue_placement, arg="ues"),
    _Field("i_max", _integer, 50),
    _Field("bob", _point2), _Field("willie", _point2),
    _Field("varpi", _number), _Field("eps", _number),
    _Field("P_tot", _scalar(_POWER)), _Field("Pa_max", _scalar(_POWER)),
    _Field("H_min", _scalar(_DIST)), _Field("H_max", _scalar(_DIST)),
    _Field("R_tg", _number), _Field("delta", _number, 1e-6),
)


@dataclass(frozen=True)
class LoadedScenario:
    """A parsed scenario plus its replay context."""

    scenario: Scenario
    seed: int
    hash: str             # canonical-JSON SHA-256 of the file contents


def scenario_hash(raw: dict) -> str:
    """SHA-256 of the sorted-key JSON, so stable under field reordering."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_scenario(source, seed: int | None = None) -> LoadedScenario:
    """Parse a scenario file (path, JSON string content not accepted) or dict.

    ``seed`` overrides the file's ``rng_seed`` for UE sampling and any
    downstream Monte Carlo, and like it must be a nonnegative integer, not
    a bool. Raises ScenarioError on any unknown field, missing field,
    unmappable unit, bad seed or value out of the model's range."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            raw = json.loads(Path(source).read_text())
        except OSError as e:
            raise ScenarioError(f"cannot read scenario file {source}: {e}") from e
        except json.JSONDecodeError as e:
            raise ScenarioError(f"scenario file {source} is not valid JSON: {e}") from e
    kw = _SCENARIO(raw, "")
    file_seed = kw.pop(_SEED.arg)
    seed = file_seed if seed is None else _SEED.read(seed, _SEED.key)
    kw["ues"] = kw["ues"](seed)
    return LoadedScenario(scenario=_model(Scenario, **kw), seed=seed,
                          hash=scenario_hash(raw))
