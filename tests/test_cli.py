"""Command-line interface: files, formats, exit codes, determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys

import pytest

from conftest import OUT_OF_RANGE, REPO_ROOT, default_scenario_dict
from skycloak.cli import main

pytestmark = pytest.mark.usefixtures("tmp_path")


def read_records(outdir):
    lines = (outdir / "records.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def read_csv_rows(path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        return header, list(reader)


@pytest.fixture(scope="module")
def default_path(scenarios_dir):
    return str(scenarios_dir / "default.json")


@pytest.fixture(scope="module")
def opt_dir(tmp_path_factory, default_path):
    """One shared optimize run; several tests inspect its outputs."""
    out = tmp_path_factory.mktemp("opt")
    rc = main(["optimize", "--scenario", default_path, "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# optimize


def test_optimize_solution_schema(opt_dir):
    sol = json.loads((opt_dir / "solution.json").read_text())
    assert sol["status"] == "converged"
    assert set(sol) == {"status", "message", "Rb", "iterations", "trace",
                        "placement", "powers"}
    assert sol["Rb"] > 0.0
    assert sol["iterations"] >= 1
    assert len(sol["trace"]) == sol["iterations"] + 1
    assert all(b >= a - 1e-12 for a, b in zip(sol["trace"],
                                              sol["trace"][1:]))
    assert len(sol["placement"]["q"]) == 2
    assert 50.0 <= sol["placement"]["H"] <= 500.0
    assert len(sol["powers"]["Pk"]) == 5
    assert 0.0 <= sol["powers"]["Pa"] <= 10.0


def test_optimize_record_schema(opt_dir):
    records = read_records(opt_dir)
    assert len(records) == 1
    rec = records[0]
    assert set(rec) == {"run_id", "scenario_hash", "command", "seed",
                        "wall_time_s", "outputs"}
    assert rec["command"] == "optimize"
    assert rec["seed"] == 12
    assert len(rec["scenario_hash"]) == 64
    assert rec["outputs"]["files"] == ["solution.json"]


def test_optimize_deterministic(opt_dir, tmp_path, default_path):
    rc = main(["optimize", "--scenario", default_path,
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "solution.json").read_bytes() \
        == (opt_dir / "solution.json").read_bytes()
    a, b = read_records(opt_dir)[0], read_records(tmp_path)[0]
    for rec in (a, b):
        rec.pop("run_id")
        rec.pop("wall_time_s")
    assert a == b


def test_optimize_infeasible_exits_2(tmp_path, capsys):
    d = default_scenario_dict(0.1, 12)
    d["uav"]["phi_min"] = {"value": 89.0, "unit": "deg"}
    p = tmp_path / "steep.json"
    p.write_text(json.dumps(d))
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["status"] == "infeasible"
    assert sol["Rb"] is None  # NaN serializes as null


def test_seed_override_changes_solution(tmp_path, default_path):
    rc = main(["optimize", "--scenario", default_path, "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    assert read_records(tmp_path)[0]["seed"] == 3


def test_negative_seed_override_exits_1(tmp_path, default_path, capsys):
    rc = main(["optimize", "--scenario", default_path, "--seed", "-1",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "rng_seed" in capsys.readouterr().err
    assert not (tmp_path / "solution.json").exists()


@pytest.mark.parametrize("keys,value", [
    (("Pa_max",), math.nan),
    (("Pa_max",), math.inf),
    (("noise", "sigma_b2"), math.nan),
    (("H_max",), math.inf),
])
def test_optimize_non_finite_number_exits_1(tmp_path, capsys, keys, value):
    d = default_scenario_dict(0.1, 12)
    node = d
    for key in keys:
        node = node[key]
    node["value"] = value
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))  # written as NaN / Infinity
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 1
    field = ".".join(keys)
    assert f"scenario error: {field}: must be a number" in capsys.readouterr().err
    assert not (tmp_path / "solution.json").exists()


def test_optimize_huge_integer_exits_1(tmp_path, capsys):
    # a 401-digit JSON integer has no float value
    d = default_scenario_dict(0.1, 12)
    d["R_tg"] = 10**400
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 1
    assert "scenario error: R_tg: must be a number" in capsys.readouterr().err
    assert not (tmp_path / "solution.json").exists()


@pytest.mark.parametrize("mutate,message", OUT_OF_RANGE)
def test_optimize_out_of_range_value_exits_1(tmp_path, capsys, mutate,
                                             message):
    d = default_scenario_dict(0.1, 12)
    mutate(d)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 1
    assert re.search("scenario error: " + message, capsys.readouterr().err)
    assert not (tmp_path / "solution.json").exists()


# a value whose derived constant leaves the double range is a scenario
# error naming the field, never a crash: the large-scale gain underflows at
# d = 1e200 km and 2^R_tg overflows at R_tg = 2000
@pytest.mark.parametrize("mutate,field", [
    (lambda d: d["satellite"]["d"].update(value=1e200),
     "fc, d, G give a large-scale gain"),
    (lambda d: d.update(R_tg=2000), "xi_coeff = (2^R_tg - 1)"),
])
def test_optimize_derived_constant_out_of_range_exits_1(tmp_path, capsys,
                                                        mutate, field):
    d = default_scenario_dict(0.1, 12)
    mutate(d)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {field}")
    assert not (tmp_path / "solution.json").exists()


def test_optimize_tiny_eps_plans_or_proves_infeasible(tmp_path, capsys):
    # eps = 1e-300 puts the covertness root where x * x underflows
    d = default_scenario_dict(0.1, 12)
    d["eps"] = 1e-300
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc in (0, 2)
    assert "error:" not in capsys.readouterr().err


# ground nodes whose squared distances leave the double range: a node at
# [1e300, 0] m proves the cones' verdict, and UEs drawn in a 1e300 m square,
# or two UEs near the largest double, whose centroid's sum overflows, the
# UE floors' verdict, with no crash and no warning at either varpi
@pytest.mark.parametrize("varpi", [0.1, 0.0])
@pytest.mark.parametrize("mutate,verdict", [
    pytest.param(lambda d: d["bob"].update(value=[1e300, 0.0]),
                 "elevation cones", id="bob-1e300"),
    pytest.param(lambda d: d["bob"].update(value=[1e160, 0.0]),
                 "elevation cones", id="bob-1e160"),
    pytest.param(lambda d: d["willie"].update(value=[1e300, 0.0]),
                 "elevation cones", id="willie-1e300"),
    pytest.param(lambda d: d["ue_placement"]["uniform_square"]["side"].update(
        value=1e300), "ue-rate power floors", id="side-1e300"),
    pytest.param(lambda d: d.update(ue_placement={"explicit": {
        "value": [[1e308, 0.0], [1e308, 1.0]], "unit": "m"}}),
                 "ue-rate power floors", id="ues-1e308"),
])
def test_optimize_nodes_past_the_double_range_exit_2(tmp_path, capsys, varpi,
                                                     mutate, verdict):
    d = default_scenario_dict(varpi, 12)
    mutate(d)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"infeasible: {verdict}" in err and "error:" not in err


# the altitude band's slab row rounds at the band's scale, so the planners
# search the band only up to an altitude a plan reaches: raising H_max
# past it moves no plan's rate, whether the band's lower edge is active
# (H_min = 400 m) or not, with UEs or without; each rate is the plan's at
# H_max = 1e3 m
@pytest.mark.parametrize("varpi, h_min, ues, rb", [
    (0.1, 50.0, True, 0.1772684977376482),
    (0.0, 50.0, True, 7.8492332732661625),
    (0.1, 400.0, True, 0.15880119756158295),
    (0.0, 400.0, True, 7.3565609619431),
    (0.1, 400.0, False, 0.16886109593069337),
    (0.0, 400.0, False, 7.79933581963515),
])
def test_optimize_rate_does_not_move_with_h_max(tmp_path, capsys, varpi, h_min,
                                                ues, rb):
    d = default_scenario_dict(varpi, 12)
    d["H_min"]["value"] = h_min
    if not ues:
        d["ue_placement"] = {"explicit": {"value": [], "unit": "m"}}
    p = tmp_path / "scenario.json"
    for h_max in (1e3, 1e5, 1e7, 1e9, 1e11, 1e13, 1e15, 1e17, 1e19, 1e200):
        d["H_max"]["value"] = h_max
        p.write_text(json.dumps(d))
        rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
        sol = json.loads((tmp_path / "solution.json").read_text())
        assert (rc, sol["status"]) == (0, "converged"), h_max
        assert sol["Rb"] == pytest.approx(rb, rel=1e-9), h_max
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("side", [math.nan, math.inf, -1.0])
def test_optimize_bad_square_side_exits_1(tmp_path, capsys, side):
    d = default_scenario_dict(0.1, 12)
    d["ue_placement"]["uniform_square"]["side"]["value"] = side
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))  # written as NaN / Infinity
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 1
    assert "uniform_square.side" in capsys.readouterr().err
    assert not (tmp_path / "solution.json").exists()


@pytest.mark.parametrize("key,value", [("b", math.nan), ("m", math.inf),
                                       ("omega", True), ("b", "x")])
def test_optimize_bad_shadowing_number_exits_1(tmp_path, capsys, key, value):
    d = default_scenario_dict(0.1, 12)
    d["shadowing"] = {"b": 0.126, "m": 10.1, "omega": 0.835, key: value}
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))  # written as NaN / Infinity
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc == 1
    assert f"scenario error: shadowing.{key}:" in capsys.readouterr().err
    assert not (tmp_path / "solution.json").exists()


def test_optimize_explicit_empty_ue_list_matches_empty_square(tmp_path):
    solutions = []
    for name, ues in (
            ("square", {"uniform_square": {"side": {"value": 100.0, "unit": "m"},
                                           "count": 0}}),
            ("explicit", {"explicit": {"value": [], "unit": "m"}})):
        d = default_scenario_dict(0.1, 12)
        d["ue_placement"] = ues
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(d))
        out = tmp_path / name
        rc = main(["optimize", "--scenario", str(p), "--out", str(out)])
        assert rc == 0
        solutions.append((out / "solution.json").read_bytes())
    assert solutions[0] == solutions[1]
    assert json.loads(solutions[1])["powers"]["Pk"] == []


# ---------------------------------------------------------------------------
# validate


def test_validate_report(opt_dir, tmp_path, default_path):
    rc = main(["validate", "--scenario", default_path,
               "--solution", str(opt_dir / "solution.json"),
               "--trials", "4000", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["covert_pass"] is True
    assert rep["trials"] == 4000
    assert 0.98 <= rep["xi_mc"] <= 1.0
    assert rep["rate_mc"] > rep["rb_deterministic"]  # jamming below peak

    rc = main(["validate", "--scenario", default_path,
               "--solution", str(opt_dir / "solution.json"),
               "--trials", "16000", "--out", str(tmp_path)])
    assert rc == 0
    rep4 = json.loads((tmp_path / "report.json").read_text())
    ratio = rep["rate_stderr"] / rep4["rate_stderr"]
    assert 1.6 <= ratio <= 2.5  # 4x the trials halves the noise


def test_validate_deterministic(opt_dir, tmp_path, default_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["validate", "--scenario", default_path,
                   "--solution", str(opt_dir / "solution.json"),
                   "--out", str(out)])
        assert rc == 0
    assert (out1 / "report.json").read_bytes() \
        == (out2 / "report.json").read_bytes()


def test_validate_covert_failure_exits_3(opt_dir, tmp_path, default_path,
                                         capsys):
    sol = json.loads((opt_dir / "solution.json").read_text())
    sol["powers"]["Pa"] = 50.0 * sol["powers"]["Pa"]
    loud = tmp_path / "loud.json"
    loud.write_text(json.dumps(sol))
    rc = main(["validate", "--scenario", default_path,
               "--solution", str(loud), "--trials", "4000",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "FAIL" in capsys.readouterr().out
    assert json.loads((tmp_path / "report.json").read_text())["covert_pass"] \
        is False


def test_validate_rejects_infeasible_solution_file(tmp_path, default_path):
    p = tmp_path / "infeasible.json"
    p.write_text(json.dumps({"status": "infeasible", "message": "x"}))
    rc = main(["validate", "--scenario", default_path, "--solution", str(p),
               "--out", str(tmp_path)])
    assert rc == 1


def test_validate_rejects_malformed_solution_file(tmp_path, default_path,
                                                  capsys):
    p = tmp_path / "garbage.json"
    p.write_text("{]")
    rc = main(["validate", "--scenario", default_path, "--solution", str(p),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "malformed" in capsys.readouterr().err

    p.write_text(json.dumps({"status": "converged"}))  # missing sections
    rc = main(["validate", "--scenario", default_path, "--solution", str(p),
               "--out", str(tmp_path)])
    assert rc == 1


# ---------------------------------------------------------------------------
# dep-sweep


def test_dep_sweep_table(tmp_path, default_path):
    rc = main(["dep-sweep", "--scenario", default_path,
               "--eps-grid", "0.01,0.05", "--shadowing", "light,heavy",
               "--trials", "2000", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv_rows(tmp_path / "dep_sweep.csv")
    assert header == ["eps", "shadowing", "bound", "quadrature",
                      "mc_mean", "mc_stderr"]
    assert len(rows) == 4
    assert [r[1] for r in rows] == ["light", "heavy", "light", "heavy"]
    for r in rows:
        eps = float(r[0])
        bound, quad, mc, se = map(float, r[2:])
        # the sweep evaluates each row at its own covertness boundary,
        # where the closed-form lower bound equals 1 - eps up to the
        # tolerance of the threshold inversion
        assert bound == pytest.approx(1.0 - eps, abs=1e-8)
        assert quad >= bound - 1e-12
        assert 0.0 <= mc <= 1.0
        assert abs(mc - quad) <= 4.0 * se


def test_dep_sweep_deterministic(tmp_path, default_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["dep-sweep", "--scenario", default_path,
                   "--eps-grid", "0.1", "--shadowing", "average",
                   "--trials", "500", "--out", str(out)])
        assert rc == 0
    assert (out1 / "dep_sweep.csv").read_bytes() \
        == (out2 / "dep_sweep.csv").read_bytes()


def test_dep_sweep_rejects_unknown_row(tmp_path, default_path, capsys):
    rc = main(["dep-sweep", "--scenario", default_path,
               "--shadowing", "monsoon", "--out", str(tmp_path)])
    assert rc == 1
    assert "argument --shadowing: unknown shadowing row 'monsoon'" \
        in capsys.readouterr().err


def test_dep_sweep_rejects_an_empty_row_list(tmp_path, default_path, capsys):
    out = tmp_path / "out"
    rc = main(["dep-sweep", "--scenario", default_path,
               "--shadowing", " , ", "--out", str(out)])
    assert rc == 1
    assert "argument --shadowing: empty shadowing list" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rb_monotone_in_eps(tmp_path, default_path):
    rc = main(["sweep", "--scenario", default_path, "--param", "eps",
               "--grid", "0.005,0.02,0.1", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv_rows(tmp_path / "sweep.csv")
    assert header == ["param", "value", "rb", "pa", "pj", "hu", "iters"]
    rbs = [float(r[2]) for r in rows]
    # a looser covertness target buys rate
    assert rbs[0] < rbs[1] < rbs[2]
    assert all(int(r[6]) >= 1 for r in rows)
    assert all(r[0] == "eps" for r in rows)


def test_sweep_records_failures_as_nan_rows(tmp_path, default_path, capsys):
    rc = main(["sweep", "--scenario", default_path, "--param", "eps",
               "--grid", "0.9,0.02", "--out", str(tmp_path)])
    assert rc == 0
    assert "failed" in capsys.readouterr().err
    _, rows = read_csv_rows(tmp_path / "sweep.csv")
    assert math.isnan(float(rows[0][2]))
    assert math.isfinite(float(rows[1][2]))


def test_sweep_rejects_a_non_finite_grid_value(tmp_path, default_path,
                                              capsys):
    rc = main(["sweep", "--scenario", default_path, "--param", "Pa_max",
               "--grid", "nan,10", "--out", str(tmp_path)])
    assert rc == 1
    assert "argument --grid: not a finite number: 'nan'" \
        in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command, flag, grid, why", [
    ("dep-sweep", "--eps-grid", "0.01,0.7", r"eps must be in \(0, 0\.5\), got 0\.7"),
    ("dep-sweep", "--eps-grid", "0.5", r"eps must be in \(0, 0\.5\), got 0\.5"),
    ("dep-sweep", "--eps-grid", "0", r"eps must be in \(0, 0\.5\), got 0\.0"),
    ("dep-sweep", "--eps-grid", "abc", "not a number: 'abc'"),
    ("dep-sweep", "--eps-grid", "0.1,inf", "not a finite number: 'inf'"),
    ("dep-sweep", "--eps-grid", " , ", "empty grid"),
    ("dep-sweep", "--eps-grid", "-0.1,0.2", r"eps must be in \(0, 0\.5\), got -0\.1"),
    ("sweep", "--grid", "0.01,abc", "not a number: 'abc'"),
    ("sweep", "--grid", "1,-inf", "not a finite number: '-inf'"),
    ("sweep", "--grid", "-inf", "not a finite number: '-inf'"),
    ("sweep", "--grid", ",", "empty grid"),
    ("dep-sweep", "--eps", "-0.1,0.2", r"eps must be in \(0, 0\.5\), got -0\.1"),
    ("dep-sweep", "--e", "-0.1", r"eps must be in \(0, 0\.5\), got -0\.1"),
    ("sweep", "--gr", "-inf,1", "not a finite number: '-inf'"),
], ids=["eps-0.7", "eps-0.5", "eps-0", "eps-abc", "eps-inf", "eps-empty",
        "eps-negative", "sweep-abc", "sweep-inf", "sweep-minus-inf",
        "sweep-empty", "eps-abbreviated-negative", "e-negative",
        "gr-minus-inf"])
def test_a_bad_grid_is_a_usage_error(tmp_path, default_path, capsys, command,
                                     flag, grid, why):
    out = tmp_path / "out"
    argv = [command, "--scenario", default_path, flag, grid, "--out", str(out)]
    if command == "sweep":
        argv += ["--param", "eps"]
    assert main(argv) == 1
    # argparse names the option by its full name
    name = "--eps-grid" if command == "dep-sweep" else "--grid"
    assert re.search(f"argument {name}: {why}", capsys.readouterr().err)
    assert not out.exists()


def test_a_grid_may_start_with_a_minus_sign(tmp_path, default_path):
    # the spaced form, also with the option abbreviated as argparse
    # allows, reads the grid as the "=" form does: a failed row for
    # Pa_max = -1 and a plan for 2
    forms = {"spaced": ["--grid", "-1,2"], "joined": ["--grid=-1,2"],
             "g": ["--g", "-1,2"], "gr": ["--gr", "-1,2"],
             "gri": ["--gri", "-1,2"], "gr-joined": ["--gr=-1,2"]}
    for name, grid in forms.items():
        assert main(["sweep", "--scenario", default_path, "--param", "Pa_max",
                     *grid, "--out", str(tmp_path / name)]) == 0
    spaced = (tmp_path / "spaced" / "sweep.csv").read_bytes()
    for name in forms:
        assert (tmp_path / name / "sweep.csv").read_bytes() == spaced
    _, rows = read_csv_rows(tmp_path / "spaced" / "sweep.csv")
    assert [float(r[1]) for r in rows] == [-1.0, 2.0]
    assert math.isnan(float(rows[0][2])) and math.isfinite(float(rows[1][2]))


def test_sweep_deterministic(tmp_path, default_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["sweep", "--scenario", default_path, "--param", "eps",
                   "--grid", "0.005,0.01,0.02", "--out", str(out)])
        assert rc == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_unknown_param_exits_1(tmp_path, default_path, capsys):
    rc = main(["sweep", "--scenario", default_path, "--param", "mass",
               "--grid", "1,2", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown parameter" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plumbing


def test_records_append_across_runs(tmp_path, default_path):
    for _ in range(2):
        rc = main(["dep-sweep", "--scenario", default_path,
                   "--eps-grid", "0.1", "--shadowing", "heavy",
                   "--trials", "200", "--out", str(tmp_path)])
        assert rc == 0
    records = read_records(tmp_path)
    assert len(records) == 2
    assert records[0]["run_id"] != records[1]["run_id"]
    assert all(r["command"] == "dep-sweep" for r in records)


def test_missing_scenario_file_exits_1(tmp_path, capsys):
    rc = main(["optimize", "--scenario", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "scenario error" in capsys.readouterr().err


def test_usage_errors_exit_1(tmp_path, default_path, capsys):
    assert main([]) == 1
    assert main(["optimize"]) == 1  # missing --scenario
    assert main(["launch"]) == 1
    assert main(["optimize", "--scenario", default_path, "--single-sca",
                 "--out", str(tmp_path)]) == 1  # no such option
    assert not (tmp_path / "solution.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("command,output", [("validate", "report.json"),
                                            ("dep-sweep", "dep_sweep.csv")])
@pytest.mark.parametrize("trials", ["0", "1"])
def test_trials_below_2_exit_1(opt_dir, tmp_path, default_path, capsys,
                               command, output, trials):
    # one trial gives no standard error: a usage error, not a NaN row
    argv = [command, "--scenario", default_path, "--trials", trials,
            "--out", str(tmp_path)]
    if command == "validate":
        argv += ["--solution", str(opt_dir / "solution.json")]
    assert main(argv) == 1
    assert "at least 2" in capsys.readouterr().err
    assert not (tmp_path / output).exists()
    assert not (tmp_path / "records.jsonl").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("dep-sweep", "optimize", "validate", "sweep"):
        assert cmd in out


def test_module_entry_point(tmp_path, default_path):
    proc = subprocess.run(
        [sys.executable, "-m", "skycloak.cli", "dep-sweep",
         "--scenario", default_path, "--eps-grid", "0.1",
         "--shadowing", "heavy", "--trials", "200", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "dep_sweep.csv").exists()


def test_package_entry_point(tmp_path, default_path):
    proc = subprocess.run(
        [sys.executable, "-m", "skycloak", "optimize",
         "--scenario", default_path, "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "solution.json").read_text())["status"] \
        == "converged"


def test_import_leaves_scipy_unloaded():
    # numpy and the standard library cover every numerical primitive
    proc = subprocess.run(
        [sys.executable, "-c",
         "import skycloak, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
