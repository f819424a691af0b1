"""Scenario parsing: units, strictness, hashing, UE resolution."""

import copy
import hashlib
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import default_scenario_dict
from skycloak import scenario_io
from skycloak.channel import SHADOWING_ROWS
from skycloak.scenario_io import (ScenarioError, _db_to_linear, _dbm_to_watts,
                                  load_scenario)


def scenario_fields(s):
    return {
        "fc": s.sat.fc, "d": s.sat.d, "G": s.sat.G,
        "beta0_chi": s.budget.beta0_chi, "beta0_kappa": s.budget.beta0_kappa,
        "phi_min": s.budget.phi_min,
        "b": s.sr.b, "m": s.sr.m, "omega": s.sr.omega,
        "sigma_kappa2": s.sigma_kappa2, "sigma_b2": s.sigma_b2,
        "sigma_w2": s.sigma_w2,
        "varpi": s.varpi, "eps": s.eps, "P_tot": s.P_tot,
        "Pa_max": s.Pa_max, "H_min": s.H_min, "H_max": s.H_max,
        "R_tg": s.R_tg, "delta": s.delta, "i_max": s.i_max,
    }


# ---------------------------------------------------------------------------
# unit conversions


def test_unit_conversion_values():
    assert _dbm_to_watts(-114.0) == pytest.approx(3.9810717055349694e-15,
                                                  rel=1e-15)
    assert _dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert _db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-15)
    assert _db_to_linear(-38.5) == pytest.approx(1.4125375446227544e-4,
                                                 rel=1e-15)


def test_golden_unit_table(scenarios_dir):
    # the loader's own unit tables against the golden SI values
    table = json.loads((scenarios_dir / "golden_units.json").read_text())
    units = {**scenario_io._FREQ, **scenario_io._DIST, **scenario_io._POWER,
             **scenario_io._GAIN, **scenario_io._ANGLE}
    assert table["entries"], "golden unit table must not be empty"
    for row in table["entries"]:
        eng, si = row["engineering"], row["si"]
        got = units[eng["unit"]](eng["value"])
        assert got == pytest.approx(si["value"], rel=1e-12), row["name"]


# ---------------------------------------------------------------------------
# loading


def test_default_scenario_loads(default_loaded):
    s = default_loaded.scenario
    assert s.K == 5
    assert default_loaded.seed == 12
    assert s.sat.fc == 2.0e9
    assert s.sat.d == 500.0e3
    assert s.sat.G == pytest.approx(1000.0, rel=1e-15)
    assert s.budget.phi_min == pytest.approx(math.radians(50.0), rel=1e-15)
    assert s.sigma_b2 == pytest.approx(_dbm_to_watts(-104.0), rel=1e-15)
    assert s.sr == SHADOWING_ROWS["light"]


def test_stock_scenes_differ_only_in_varpi(scenarios_dir):
    # default_perfect.json is default.json with the residual jamming
    # fraction set to zero
    default = json.loads((scenarios_dir / "default.json").read_text())
    perfect = json.loads((scenarios_dir / "default_perfect.json").read_text())
    assert default["varpi"] > 0.0
    assert perfect == dict(default, varpi=0.0)


def test_load_from_file(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(default_scenario_dict(0.1, 3)))
    ls = load_scenario(p)
    assert ls.seed == 3
    assert ls.hash == load_scenario(default_scenario_dict(0.1, 3)).hash
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(bad)


def test_mixed_units_load_identically():
    base = default_scenario_dict(0.1, 7)
    alt = copy.deepcopy(base)
    alt["satellite"]["fc"] = {"value": 2.0e9, "unit": "Hz"}
    alt["satellite"]["d"] = {"value": 500.0e3, "unit": "m"}
    alt["satellite"]["G"] = {"value": 1000.0, "unit": "linear"}
    alt["uav"]["phi_min"] = {"value": math.radians(50.0), "unit": "rad"}
    alt["P_tot"] = {"value": 30.0, "unit": "dBm"}
    alt["H_min"] = {"value": 0.05, "unit": "km"}
    a = scenario_fields(load_scenario(base).scenario)
    b = scenario_fields(load_scenario(alt).scenario)
    for key in a:
        assert b[key] == pytest.approx(a[key], rel=1e-12), key


def test_explicit_shadowing_matches_named_row():
    d = default_scenario_dict(0.1, 7)
    row = SHADOWING_ROWS["average"]
    d["shadowing"] = {"b": row.b, "m": row.m, "omega": row.omega}
    s = load_scenario(d).scenario
    assert s.sr == row
    d["shadowing"] = "tropical"
    with pytest.raises(ScenarioError, match="unknown shadowing row"):
        load_scenario(d)


@pytest.mark.parametrize("key", ["b", "m", "omega"])
@pytest.mark.parametrize("value", [True, "x", None, [1.0], math.nan, math.inf,
                                   -math.inf, 10**400])
def test_explicit_shadowing_numbers_checked(key, value):
    d = default_scenario_dict(0.1, 7)
    row = SHADOWING_ROWS["average"]
    d["shadowing"] = {"b": row.b, "m": row.m, "omega": row.omega, key: value}
    with pytest.raises(ScenarioError) as e:
        load_scenario(d)
    assert str(e.value) == (f"shadowing.{key}: must be a number (a finite "
                            "plain number, not a bool or a string)")


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.update(P_tot={"value": "one", "unit": "W"}),
     "must be a number"),
    (lambda d: d.update(P_tot={"value": True, "unit": "W"}),
     "must be a number"),
    (lambda d: d.update(varpi="small"), "plain number"),
    (lambda d: d.update(rng_seed=-1), "nonnegative integer"),
    (lambda d: d.update(rng_seed=True), "nonnegative integer"),
    (lambda d: d.update(i_max=2.5), "must be an integer"),
    (lambda d: d.update(bob={"value": [1.0, 2.0, 3.0], "unit": "m"}),
     "2-element"),
    # one reader for every number: no bool, string or int past the float
    # range gets through, and the error names the field
    (lambda d: d.update(R_tg=10**400), "R_tg: must be a number"),
    (lambda d: d["P_tot"].update(value=10**400), "P_tot: must be a number"),
    (lambda d: d["bob"].update(value=[10**400, 0]), "bob: must be a number"),
    (lambda d: d["bob"].update(value=[True, 0]), "bob: must be a number"),
    (lambda d: d["bob"].update(value=["1", 0]), "bob: must be a number"),
    (lambda d: d.update(ue_placement={"explicit": {
        "value": [["5", 0]], "unit": "m"}}), "ue_placement.explicit: must be"),
    (lambda d: d["satellite"].update(G={"value": 4000.0, "unit": "dB"}),
     "satellite.G: value overflows"),
    (lambda d: d["H_max"].update(value=1e306, unit="km"),
     "H_max: value overflows"),
    (lambda d: d["ue_placement"]["uniform_square"].update(
        side={"value": 1e306, "unit": "km"}), "side: value overflows"),
])
def test_bad_values_rejected(mutate, message):
    d = default_scenario_dict(0.1, 0)
    mutate(d)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(d)


# ---------------------------------------------------------------------------
# UE resolution and seeds


def test_uniform_square_is_deterministic_per_seed():
    a = load_scenario(default_scenario_dict(0.1, 12)).scenario.ues
    b = load_scenario(default_scenario_dict(0.1, 12)).scenario.ues
    c = load_scenario(default_scenario_dict(0.1, 13)).scenario.ues
    assert_allclose(a, b, rtol=0.0, atol=0.0)
    assert not np.allclose(a, c)
    assert a.shape == (5, 2)
    assert np.all(np.abs(a) <= 300.0)


def test_seed_override_wins_over_file_seed():
    d = default_scenario_dict(0.1, 12)
    direct = load_scenario(default_scenario_dict(0.1, 4))
    overridden = load_scenario(d, seed=4)
    assert overridden.seed == 4
    assert_allclose(overridden.scenario.ues, direct.scenario.ues,
                    rtol=0.0, atol=0.0)
    # the hash records the file as written, not the override
    assert overridden.hash == load_scenario(d).hash


def test_explicit_ues_ignore_seed():
    d = default_scenario_dict(0.1, 0)
    d["ue_placement"] = {"explicit": {"value": [[10.0, -5.0], [0.0, 2.0]],
                                      "unit": "m"}}
    a = load_scenario(d, seed=1).scenario.ues
    b = load_scenario(d, seed=2).scenario.ues
    assert_allclose(a, [[10.0, -5.0], [0.0, 2.0]], rtol=0.0, atol=0.0)
    assert_allclose(a, b, rtol=0.0, atol=0.0)


def test_negative_seed_override_rejected():
    # the override gets the same check as the file's rng_seed, also where
    # explicit UEs never draw from it
    sampled = default_scenario_dict(0.1, 0)
    explicit = default_scenario_dict(0.1, 0)
    explicit["ue_placement"] = {"explicit": {"value": [[10.0, -5.0]],
                                             "unit": "m"}}
    for d in (sampled, explicit):
        with pytest.raises(ScenarioError, match="rng_seed: must be a nonnegative"):
            load_scenario(d, seed=-1)
        assert load_scenario(d, seed=0).seed == 0


@pytest.mark.parametrize("side", [math.nan, math.inf, -1.0])
def test_uniform_square_side_must_be_finite_and_nonnegative(tmp_path, side):
    d = default_scenario_dict(0.1, 0)
    d["ue_placement"]["uniform_square"]["side"]["value"] = side
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))  # written as NaN / Infinity
    with pytest.raises(ScenarioError, match=r"uniform_square\.side: must be "
                                            r"(a number \(a finite|>= 0)"):
        load_scenario(p)


def test_zero_ue_count_allowed():
    d = default_scenario_dict(0.0, 0)
    d["ue_placement"]["uniform_square"]["count"] = 0
    s = load_scenario(d).scenario
    assert s.K == 0
    assert s.ues.shape == (0, 2)
    d["ue_placement"] = {"explicit": {"value": [], "unit": "km"}}
    s = load_scenario(d).scenario
    assert s.K == 0
    assert s.ues.shape == (0, 2)


def test_zero_ue_square_builds_no_generator(monkeypatch):
    # an empty square loads without a generator, to the same scenario the
    # draw of 0 points gave and the same hash
    d = default_scenario_dict(0.0, 7)
    d["ue_placement"]["uniform_square"]["count"] = 0
    drawn = np.random.default_rng([1, 7]).uniform(size=(0, 2))

    def no_generator(*args, **kwargs):
        raise AssertionError("generator built for an empty square")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    ls = load_scenario(d)
    assert ls.scenario.ues.shape == drawn.shape
    assert ls.scenario.ues.dtype == drawn.dtype
    assert (ls.seed, ls.hash) == (
        7, "676a7e2c2a150305ccdac532c86cf561b3e3e2cfdcfce2a5af2f376f20d82391")
    # the side and count checks still run
    for side, count in ((-1.0, 0), (100.0, -1), (100.0, 0.0)):
        d["ue_placement"]["uniform_square"] = {
            "side": {"value": side, "unit": "m"}, "count": count}
        with pytest.raises(ScenarioError, match="uniform_square"):
            load_scenario(d)


# ---------------------------------------------------------------------------
# hashing


def test_hash_stable_under_key_order():
    d = default_scenario_dict(0.1, 12)
    shuffled = json.loads(json.dumps(d))
    reordered = {k: shuffled[k] for k in reversed(list(shuffled))}
    assert load_scenario(reordered).hash == load_scenario(d).hash
    assert len(load_scenario(d).hash) == 64


def test_hash_sensitive_to_values():
    d = default_scenario_dict(0.1, 12)
    baseline = load_scenario(d).hash
    d2 = copy.deepcopy(d)
    d2["eps"] = 0.0100001
    assert load_scenario(d2).hash != baseline
    d3 = copy.deepcopy(d)
    d3["rng_seed"] = 13
    assert load_scenario(d3).hash != baseline


def test_loaded_hash_matches_function(default_loaded, scenarios_dir):
    raw = json.loads((scenarios_dir / "default.json").read_text())
    assert default_loaded.hash == load_scenario(raw).hash


# ---------------------------------------------------------------------------
# the one table of scenario faults: each case mutates scenarios/default.json
# in one place, loads from the dict and from a file, and the loader's message
# is pinned byte for byte


def q(value, unit):
    return {"value": value, "unit": unit}


def ue(placement):
    return lambda d: d.update(ue_placement=copy.deepcopy(placement))


GOLDEN_FAULTS = [
    pytest.param(lambda d: d.update(extra=1),
                 "scenario: unknown field(s) ['extra']",
                 id='top-unknown'),
    pytest.param(lambda d: d.pop("noise"),
                 "scenario: missing required field(s) ['noise']",
                 id='top-missing'),
    pytest.param(lambda d: d["satellite"].update(extra=1),
                 "satellite: unknown field(s) ['extra']",
                 id='satellite-unknown'),
    pytest.param(lambda d: d["satellite"].pop("fc"),
                 "satellite: missing required field(s) ['fc']",
                 id='satellite-missing'),
    pytest.param(lambda d: d.update(satellite=[1]),
                 'satellite: expected an object, got list',
                 id='satellite-not-object'),
    pytest.param(lambda d: d["uav"].update(tilt=1),
                 "uav: unknown field(s) ['tilt']",
                 id='uav-unknown'),
    pytest.param(lambda d: d["uav"].pop("phi_min"),
                 "uav: missing required field(s) ['phi_min']",
                 id='uav-missing'),
    pytest.param(lambda d: d["noise"].update(sigma_x=1),
                 "noise: unknown field(s) ['sigma_x']",
                 id='noise-unknown'),
    pytest.param(lambda d: d["noise"].pop("sigma_b2"),
                 "noise: missing required field(s) ['sigma_b2']",
                 id='noise-missing'),
    pytest.param(lambda d: d["ue_placement"].update(grid=1),
                 "ue_placement: unknown field(s) ['grid']",
                 id='ue_placement-unknown'),
    pytest.param(lambda d: d["ue_placement"]["uniform_square"].update(shape="hex"),
                 "ue_placement.uniform_square: unknown field(s) ['shape']",
                 id='uniform_square-unknown'),
    pytest.param(lambda d: d["ue_placement"]["uniform_square"].pop("count"),
                 "ue_placement.uniform_square: missing required field(s) ['count']",
                 id='uniform_square-missing'),
    pytest.param(lambda d: d["P_tot"].update(tol=0.1),
                 "P_tot: unknown field(s) ['tol']",
                 id='quantity-unknown'),
    pytest.param(lambda d: d["P_tot"].pop("unit"),
                 "P_tot: missing required field(s) ['unit']",
                 id='quantity-missing'),
    pytest.param(lambda d: d.update(P_tot=1.0),
                 'P_tot: expected an object, got float',
                 id='quantity-not-object'),
    pytest.param(lambda d: d["satellite"].update(fc=q(2.0, "MHz")),
                 "satellite.fc: unit 'MHz' not one of ['GHz', 'Hz']",
                 id='bad-unit'),
    pytest.param(lambda d: d.update(P_tot=q(1.0, "dB")),
                 "P_tot: unit 'dB' not one of ['W', 'dBm']",
                 id='power-unit'),
    pytest.param(lambda d: d["uav"].update(phi_min=q(50.0, "m")),
                 "uav.phi_min: unit 'm' not one of ['deg', 'rad']",
                 id='angle-unit'),
    pytest.param(lambda d: d.update(P_tot=q(True, "W")),
                 'P_tot: must be a number (a finite plain number, not a bool or a string)',
                 id='bool'),
    pytest.param(lambda d: d.update(varpi="small"),
                 'varpi: must be a number (a finite plain number, not a bool or a string)',
                 id='string'),
    pytest.param(lambda d: d["Pa_max"].update(value=math.nan),
                 'Pa_max: must be a number (a finite plain number, not a bool or a string)',
                 id='nan'),
    pytest.param(lambda d: d["H_max"].update(value=math.inf),
                 'H_max: must be a number (a finite plain number, not a bool or a string)',
                 id='infinity'),
    pytest.param(lambda d: d.update(R_tg=10**400),
                 'R_tg: must be a number (a finite plain number, not a bool or a string)',
                 id='401-digit'),
    pytest.param(lambda d: d["noise"]["sigma_b2"].update(value=math.nan),
                 'noise.sigma_b2: must be a number (a finite plain number, not a bool or a string)',
                 id='sigma_b2-nan'),
    pytest.param(lambda d: d.update(delta=math.inf),
                 'delta: must be a number (a finite plain number, not a bool or a string)',
                 id='delta-infinity'),
    pytest.param(lambda d: d["satellite"]["d"].update(value=math.nan),
                 'satellite.d: must be a number (a finite plain number, not a bool or a string)',
                 id='satellite.d-nan'),
    pytest.param(lambda d: d["satellite"]["G"].update(value=math.inf),
                 'satellite.G: must be a number (a finite plain number, not a bool or a string)',
                 id='satellite.G-infinity'),
    pytest.param(lambda d: d["uav"]["beta0_chi"].update(value=math.nan),
                 'uav.beta0_chi: must be a number (a finite plain number, not a bool or a string)',
                 id='beta0_chi-nan'),
    pytest.param(lambda d: d["noise"].update(sigma_w2=q(4000.0, "dBm")),
                 'noise.sigma_w2: value overflows a float in SI units',
                 id='dBm-overflow'),
    pytest.param(lambda d: d["satellite"].update(G=q(4000.0, "dB")),
                 'satellite.G: value overflows a float in SI units',
                 id='dB-overflow'),
    pytest.param(lambda d: d["H_max"].update(value=1e306, unit="km"),
                 'H_max: value overflows a float in SI units',
                 id='km-overflow'),
    pytest.param(lambda d: d["ue_placement"]["uniform_square"].update(side=q(1e306, "km")),
                 'ue_placement.uniform_square.side: value overflows a float in SI units',
                 id='side-overflow'),
    pytest.param(lambda d: d.update(shadowing="tropical"),
                 "shadowing: unknown shadowing row 'tropical'; expected one of ['average', 'heavy', 'light'] or explicit {b, m, omega}",
                 id='shadowing-row'),
    pytest.param(lambda d: d.update(shadowing={"b": 0.126, "m": 10.1, "omega": 0.835, "k": 1}),
                 "shadowing: unknown field(s) ['k']",
                 id='shadowing-unknown'),
    pytest.param(lambda d: d.update(shadowing={"b": 0.126, "m": 10.1}),
                 "shadowing: missing required field(s) ['omega']",
                 id='shadowing-missing'),
    pytest.param(lambda d: d.update(shadowing={"b": 0.126, "m": "x", "omega": 0.835}),
                 'shadowing.m: must be a number (a finite plain number, not a bool or a string)',
                 id='shadowing-string'),
    pytest.param(lambda d: d.update(shadowing={"b": 0.126, "m": 0.5, "omega": 0.835}),
                 'm must be >= 1, got 0.5',
                 id='shadowing-range'),
    pytest.param(ue({"explicit": q([[0.0, 0.0]], "m"), "uniform_square": {"side": q(1.0, "m"), "count": 1}}),
                 "ue_placement: give exactly one of 'explicit' or 'uniform_square'",
                 id='ue-both'),
    pytest.param(ue({}),
                 "ue_placement: give exactly one of 'explicit' or 'uniform_square'",
                 id='ue-neither'),
    pytest.param(ue({"explicit": q([0.0, 0.0], "m")}),
                 'ue_placement.explicit: value must be a list of [x, y] pairs',
                 id='explicit-flat'),
    pytest.param(ue({"explicit": q([["5", 0]], "m")}),
                 'ue_placement.explicit: must be a number (a finite plain number, not a bool or a string)',
                 id='explicit-string'),
    pytest.param(lambda d: d["ue_placement"]["uniform_square"]["side"].update(value=-1.0),
                 'ue_placement.uniform_square.side: must be >= 0',
                 id='side-negative'),
    pytest.param(lambda d: d["ue_placement"]["uniform_square"]["side"].update(value=math.nan),
                 'ue_placement.uniform_square.side: must be a number (a finite plain number, not a bool or a string)',
                 id='side-nan'),
    pytest.param(lambda d: d["ue_placement"]["uniform_square"].update(count=True),
                 'ue_placement.uniform_square.count: must be a nonnegative integer',
                 id='count-bool'),
    pytest.param(lambda d: d["ue_placement"]["uniform_square"].update(count=-1),
                 'ue_placement.uniform_square.count: must be a nonnegative integer',
                 id='count-negative'),
    pytest.param(lambda d: d.update(rng_seed=-1),
                 'rng_seed: must be a nonnegative integer',
                 id='rng_seed-negative'),
    pytest.param(lambda d: d.update(i_max=2.5),
                 'i_max: must be an integer',
                 id='i_max-float'),
    pytest.param(lambda d: d.update(bob=q([1.0, 2.0, 3.0], "m")),
                 'bob: value must be a 2-element [x, y]',
                 id='bob-3'),
    pytest.param(lambda d: d["bob"].update(value=[10**400, 0]),
                 'bob: must be a number (a finite plain number, not a bool or a string)',
                 id='bob-401-digit'),
    pytest.param(lambda d: d.update(willie=q(5.0, "m")),
                 'willie: value must be a 2-element [x, y]',
                 id='willie-scalar'),
    pytest.param(lambda d: d.update(eps=0.7),
                 'eps must be in (0, 0.5), got 0.7',
                 id='eps-range'),
    pytest.param(lambda d: d["H_min"].update(value=d["H_max"]["value"]),
                 'need 0 < H_min < H_max',
                 id='altitude-range'),
    pytest.param(lambda d: d["uav"].update(beta0_chi=q(0.0, "linear")),
                 'reference gains must be positive and finite',
                 id='gain-range'),
    pytest.param(lambda d: d["satellite"]["d"].update(value=-500.0),
                 'fc, d, G must all be positive and finite',
                 id='satellite-range'),
    pytest.param(lambda d: d.update(varpi=2),
                 'varpi must be in [0, 1], got 2.0',
                 id='varpi-range'),
    pytest.param(lambda d: d.update(i_max=0),
                 'need delta > 0 and i_max >= 1',
                 id='i_max-range'),
    pytest.param(lambda d: d["uav"].update(phi_min=q(95.0, "deg")),
                 'phi_min must lie in (0, pi/2)',
                 id='phi_min-range'),
    pytest.param(lambda d: d["noise"]["sigma_b2"].update(value=0.0, unit="W"),
                 'sigma_b2 must be positive',
                 id='noise-range'),
    pytest.param(lambda d: d["P_tot"].update(value=-1.0),
                 'P_tot and Pa_max must be positive',
                 id='power-range'),
]


@pytest.mark.parametrize("mutate,message", GOLDEN_FAULTS)
def test_single_fault_message_is_pinned(tmp_path, mutate, message):
    d = default_scenario_dict(0.1, 0)
    mutate(d)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))  # NaN and Infinity written as such
    for source in (d, p):
        with pytest.raises(ScenarioError) as e:
            load_scenario(source)
        assert str(e.value) == message


def test_top_level_must_be_an_object(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text("[1]")
    with pytest.raises(ScenarioError) as e:
        load_scenario(p)
    assert str(e.value) == "scenario: expected an object, got list"


# derived constants that leave the double range name their fields, and a
# covertness level near the least double loads
@pytest.mark.parametrize("mutate,message", [
    pytest.param(lambda d: d["satellite"]["d"].update(value=1e200),
                 "fc, d, G give a large-scale gain (c / (4 pi fc d))^2 * G "
                 "outside the positive doubles, got 0.0", id="satellite.d"),
    pytest.param(lambda d: d["satellite"].update(fc=q(1e-300, "Hz"),
                                                 d=q(1e-300, "m")),
                 "fc, d, G give a large-scale gain (c / (4 pi fc d))^2 * G "
                 "outside the positive doubles, got inf", id="fc*d"),
    pytest.param(lambda d: d.update(R_tg=2000),
                 "xi_coeff = (2^R_tg - 1) * sigma_kappa2 / beta0_kappa must "
                 "be a positive double, got inf", id="R_tg"),
    pytest.param(lambda d: d.update(R_tg=1e-300),
                 "xi_coeff = (2^R_tg - 1) * sigma_kappa2 / beta0_kappa must "
                 "be a positive double, got 0.0", id="R_tg-tiny"),
    pytest.param(lambda d: d.update(eps=5e-324),
                 "eps must be at least alpha times the least double, "
                 "1.5e-323, got 5e-324", id="eps-least"),
])
def test_derived_constant_out_of_range_names_the_field(mutate, message):
    d = default_scenario_dict(0.1, 0)
    mutate(d)
    with pytest.raises(ScenarioError) as e:
        load_scenario(d)
    assert str(e.value) == message


def test_tiny_eps_loads():
    d = default_scenario_dict(0.1, 0)
    d["eps"] = 1e-300
    s = load_scenario(d).scenario
    assert 0.0 < s.kappa < math.inf


@pytest.mark.parametrize("seed", [1.9, True, "3", -0.5])
def test_seed_override_must_be_a_nonnegative_integer(seed):
    # no coercion: the override gets the check the file's rng_seed gets
    with pytest.raises(ScenarioError) as e:
        load_scenario(default_scenario_dict(0.1, 12), seed=seed)
    assert str(e.value) == "rng_seed: must be a nonnegative integer"


def test_seed_override_takes_any_integer_type():
    ls = load_scenario(default_scenario_dict(0.1, 12), seed=np.int64(4))
    assert ls.seed == 4 and type(ls.seed) is int


@pytest.mark.parametrize("name,digest", [
    ("default",
     "9611ee74aed1e9160aeca6a607b65d8f99cfd65bb28af129ed8d88f5e336b156"),
    ("default_perfect",
     "16741cc4804244c98626f53c6ba3ac4ebe86c505b5a1752bac0f65d2bd686fc9"),
])
def test_stock_scenario_hashes_are_pinned(scenarios_dir, name, digest):
    path = scenarios_dir / f"{name}.json"
    assert load_scenario(path).hash == digest
    canon = json.dumps(json.loads(path.read_text()), sort_keys=True,
                       separators=(",", ":"))
    assert hashlib.sha256(canon.encode("utf-8")).hexdigest() == digest
