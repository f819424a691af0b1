"""Command-line interface: files, formats, exit codes, determinism."""

import ast
import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest

from conftest import REPO_ROOT, default_scenario_dict
from skycloak import cli
from skycloak.cli import main
from skycloak.solvers import SolverError

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


# main's one path for a ScenarioError, once per source: the file read (a
# missing file), a reader (a NaN written to the file), a model's range
# check, a nested model's floor, a derived constant and the --seed
# override; the loader's tests pin every other fault's message. Each
# leaves no output behind, not even the new --out directory
@pytest.mark.parametrize("mutate,argv,message", [
    pytest.param(None, [], "cannot read scenario file {p}: [Errno 2] No such "
                 "file or directory: '{p}'", id="missing"),
    pytest.param(lambda d: d["Pa_max"].update(value=math.nan), [],
                 "Pa_max: must be a number (a finite plain number, not a "
                 "bool or a string)", id="reader"),
    pytest.param(lambda d: d.update(eps=0.7), [],
                 "eps must be in (0, 0.5), got 0.7", id="model"),
    pytest.param(lambda d: d["uav"].update(
                     phi_min={"value": 5.4e-20, "unit": "rad"}), [],
                 "phi_min must be at least 2^-64 rad, got 5.4e-20", id="phi_min"),
    pytest.param(lambda d: d.update(R_tg=2000), [],
                 "xi_coeff = (2^R_tg - 1) * sigma_kappa2 / beta0_kappa must "
                 "be a positive double, got inf", id="derived"),
    pytest.param(lambda d: None, ["--seed", "-1"],
                 "rng_seed: must be a nonnegative integer", id="seed"),
])
def test_optimize_scenario_error_exits_1(tmp_path, capsys, mutate, argv,
                                         message):
    p = tmp_path / "scenario.json"
    if mutate is not None:
        d = default_scenario_dict(0.1, 12)
        mutate(d)
        p.write_text(json.dumps(d))  # NaN written as such
    out = tmp_path / "new" / "out"
    rc = main(["optimize", "--scenario", str(p), *argv, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"scenario error: {message.format(p=p)}\n"
    assert not (tmp_path / "new").exists()


def test_optimize_tiny_eps_plans_or_proves_infeasible(tmp_path, capsys):
    # eps = 1e-300 puts the covertness root where x * x underflows
    d = default_scenario_dict(0.1, 12)
    d["eps"] = 1e-300
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    assert rc in (0, 2)
    assert "error:" not in capsys.readouterr().err


# a budget near the top of the doubles widens the UE-rate balls, and a
# Pa_max near the least double the covertness ball, past any placement the
# band and the cones reach: the capped radii plan as a large finite budget
# does, with no warning, up to the largest double and down to the least
@pytest.mark.parametrize("field, value, rb", [
    ("P_tot", 1e50, 0.18273964702065956),
    ("P_tot", 1e300, 0.18273964702065956),
    ("P_tot", 1e307, 0.18273964702065956),
    ("P_tot", 1.7976931348623157e308, 0.18273964702065956),
    ("Pa_max", 1e-300, 0.0),
    ("Pa_max", 1e-305, 0.0),
    ("Pa_max", 5e-324, 0.0),
])
def test_optimize_ball_radius_past_the_double_range(tmp_path, capsys, field,
                                                    value, rb, varpi=0.1):
    d = default_scenario_dict(varpi, 12)
    d[field]["value"] = value
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))
    rc = main(["optimize", "--scenario", str(p), "--out", str(tmp_path)])
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert (rc, sol["status"], sol["Rb"]) == (0, "converged", rb)
    assert "error:" not in capsys.readouterr().err


# the same on the varpi = 0 scene, planned by Dinkelbach
@pytest.mark.parametrize("field, value, rb", [
    ("P_tot", 1.7976931348623157e308, 7.8492332732661625),
    ("Pa_max", 5e-324, 0.0),
])
def test_optimize_perfect_cancellation_past_the_double_range(tmp_path, capsys,
                                                             field, value, rb):
    test_optimize_ball_radius_past_the_double_range(tmp_path, capsys, field,
                                                    value, rb, varpi=0.0)


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


# each edit spoils default.json's own plan; a string replaces the file
@pytest.mark.parametrize("edit", [
    pytest.param("{]", id="not-json"),
    pytest.param("[]", id="not-an-object"),
    pytest.param('{"status": "converged"}', id="missing-sections"),
    pytest.param(lambda d: d.update(placement=None), id="null-placement"),
    pytest.param(lambda d: d["placement"].update(q="12"), id="q-string"),
    pytest.param(lambda d: d["placement"]["q"].append(0.0), id="q-three-entries"),
    pytest.param(lambda d: d["placement"].update(H="100"), id="H-string"),
    pytest.param(lambda d: d["powers"].update(Pa=True), id="Pa-bool"),
    pytest.param(lambda d: d["powers"].update(Pa=-1e-13), id="Pa-negative"),
    pytest.param(lambda d: d["powers"].update(Pk=[]), id="Pk-empty"),
    pytest.param(lambda d: d["powers"]["Pk"].pop(), id="Pk-one-short"),
    pytest.param(lambda d: d.update(trace="abc"), id="trace-string"),
    pytest.param(lambda d: d.update(Rb=True), id="Rb-bool"),
])
def test_validate_rejects_malformed_solution_file(tmp_path, default_path,
                                                  opt_dir, capsys, edit):
    p = tmp_path / "plan.json"
    if isinstance(edit, str):
        p.write_text(edit)
    else:
        d = json.loads((opt_dir / "solution.json").read_text())
        edit(d)
        p.write_text(json.dumps(d))
    rc = main(["validate", "--scenario", default_path, "--solution", str(p),
               "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "scenario error: malformed solution file: ")
    assert not (tmp_path / "report.json").exists()


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


# a grid entry that starts with "-" is written in the "=" form
@pytest.mark.parametrize("command, grid, why", [
    ("dep-sweep", ["--eps-grid", "0.01,0.7"], r"eps must be in \(0, 0\.5\), got 0\.7"),
    ("dep-sweep", ["--eps-grid", "0.5"], r"eps must be in \(0, 0\.5\), got 0\.5"),
    ("dep-sweep", ["--eps-grid", "0"], r"eps must be in \(0, 0\.5\), got 0\.0"),
    ("dep-sweep", ["--eps-grid", "abc"], "not a number: 'abc'"),
    ("dep-sweep", ["--eps-grid", "0.1,inf"], "not a finite number: 'inf'"),
    ("dep-sweep", ["--eps-grid", " , "], "empty grid"),
    ("dep-sweep", ["--eps-grid=-0.1,0.2"], r"eps must be in \(0, 0\.5\), got -0\.1"),
    ("sweep", ["--grid", "0.01,abc"], "not a number: 'abc'"),
    ("sweep", ["--grid", "1,-inf"], "not a finite number: '-inf'"),
    ("sweep", ["--grid=-inf"], "not a finite number: '-inf'"),
    ("sweep", ["--grid", ","], "empty grid"),
    ("dep-sweep", ["--eps=-0.1,0.2"], r"eps must be in \(0, 0\.5\), got -0\.1"),
    ("dep-sweep", ["--e", "-0.1"], r"eps must be in \(0, 0\.5\), got -0\.1"),
    ("sweep", ["--gr=-inf,1"], "not a finite number: '-inf'"),
], ids=["eps-0.7", "eps-0.5", "eps-0", "eps-abc", "eps-inf", "eps-empty",
        "eps-negative", "sweep-abc", "sweep-inf", "sweep-minus-inf",
        "sweep-empty", "eps-abbreviated-negative", "e-negative",
        "gr-minus-inf"])
def test_a_bad_grid_is_a_usage_error(tmp_path, default_path, capsys, command,
                                     grid, why):
    out = tmp_path / "out"
    argv = [command, "--scenario", default_path, *grid, "--out", str(out)]
    if command == "sweep":
        argv += ["--param", "eps"]
    assert main(argv) == 1
    # argparse names the option by its full name
    name = "--eps-grid" if command == "dep-sweep" else "--grid"
    assert re.search(f"argument {name}: {why}", capsys.readouterr().err)
    assert not out.exists()


def test_dep_sweep_checks_the_operating_ratio_on_chosen_rows(tmp_path,
                                                             default_path):
    # at eps = 1e-309 the light row's operating ratio leaves the doubles
    # and the heavy row's does not
    assert main(["dep-sweep", "--scenario", default_path, "--trials", "2",
                 "--shadowing", "heavy", "--eps-grid", "1e-309",
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv_rows(tmp_path / "dep_sweep.csv")
    assert [r[1] for r in rows] == ["heavy"]
    assert main(["dep-sweep", "--scenario", default_path, "--trials", "2",
                 "--shadowing", "heavy,light", "--eps-grid", "1e-309",
                 "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_dep_sweep_tabulates_every_row_at_eps_1e_308(tmp_path, default_path):
    # an operating ratio past the doubles, an exit 1, starts below this
    # eps (about 1e-310): every row here still tabulates finite values
    assert main(["dep-sweep", "--scenario", default_path, "--trials", "2",
                 "--eps-grid", "1e-308", "--out", str(tmp_path)]) == 0
    _, rows = read_csv_rows(tmp_path / "dep_sweep.csv")
    assert [r[1] for r in rows] == ["light", "average", "heavy"]
    assert all(math.isfinite(float(v)) for r in rows for v in r[2:])


def test_default_dep_sweep_is_finite_and_quiet(tmp_path, default_path):
    # the default grid, every eps on all three rows, the heavy one
    # included, at the default trial count
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["dep-sweep", "--scenario", default_path,
                     "--out", str(tmp_path)]) == 0
    assert caught == []
    _, rows = read_csv_rows(tmp_path / "dep_sweep.csv")
    assert [(float(r[0]), r[1]) for r in rows] == [
        (eps, name) for eps in (0.005, 0.01, 0.02, 0.05, 0.1)
        for name in ("light", "average", "heavy")]
    assert all(math.isfinite(float(v)) for r in rows for v in r[2:])


def test_a_grid_may_start_with_a_minus_sign(tmp_path, default_path):
    # the "=" form, also with the option abbreviated as argparse allows:
    # a failed row for Pa_max = -1 and a plan for 2
    for name in ("grid", "gr"):
        assert main(["sweep", "--scenario", default_path, "--param", "Pa_max",
                     f"--{name}=-1,2", "--out", str(tmp_path / name)]) == 0
    full = (tmp_path / "grid" / "sweep.csv").read_bytes()
    assert (tmp_path / "gr" / "sweep.csv").read_bytes() == full
    _, rows = read_csv_rows(tmp_path / "grid" / "sweep.csv")
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
    # a usage error: argparse rejects it before any directory is made
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", default_path, "--param", "mass",
               "--grid", "1,2", "--out", str(out)])
    assert rc == 1
    assert "argument --param: invalid choice: 'mass'" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# plumbing


# a run that exits 1 before it writes its output file leaves nothing behind,
# not even the new --out directory: validate with a solution file that is
# malformed, missing or an infeasible run's; dep-sweep at an eps whose
# operating ratio leaves the doubles; and sweep ending on a planner error,
# which is no failed point (only a value the scenario rejects, or an
# infeasible verdict, is one) but ends the run as optimize's does
@pytest.mark.parametrize("argv, solution, err", [
    pytest.param(["validate", "--solution", "{p}"], '{"status": "converged"}',
                 "scenario error: malformed solution file: 'placement'\n",
                 id="validate-malformed"),
    pytest.param(["validate", "--solution", "{p}"], None,
                 "io error: [Errno 2] No such file or directory: '{p}'\n",
                 id="validate-missing"),
    pytest.param(["validate", "--solution", "{p}"],
                 '{"status": "infeasible", "message": "x"}',
                 "validate: solution file records an infeasible run\n",
                 id="validate-infeasible"),
    pytest.param(["dep-sweep", "--eps-grid", "1e-310"], None,
                 "dep-sweep: eps 1e-310 puts the light row's operating ratio "
                 "past the doubles\n", id="eps-subnormal"),
    pytest.param(["sweep", "--param", "eps", "--grid", "0.01,0.02"], None,
                 "error: SolverError: barrier failed\n", id="planner-error"),
])
def test_a_failed_run_creates_nothing(tmp_path, default_path, capsys,
                                      monkeypatch, argv, solution, err):
    plan = cli.optimize

    def failing(s):
        if s.eps == 0.02:
            raise SolverError("barrier failed")
        return plan(s)

    monkeypatch.setattr(cli, "optimize", failing)
    p = tmp_path / "plan.json"
    if solution is not None:
        p.write_text(solution)
    rc = main([*(a.format(p=p) for a in argv), "--scenario", default_path,
               "--out", str(tmp_path / "new" / "out")])
    assert rc == 1
    assert capsys.readouterr().err == err.format(p=p)
    assert not (tmp_path / "new").exists()


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


# an output file that already exists is overwritten in place: whether it
# was longer than the new bytes (9 KiB, past one 4 KiB block) or shorter,
# it holds exactly what a fresh --out gets, in the same inode, and
# records.jsonl gains the run's one line
@pytest.mark.parametrize("longer", [True, False], ids=["longer", "shorter"])
@pytest.mark.parametrize("argv, output", [
    pytest.param(["optimize"], "solution.json", id="optimize"),
    pytest.param(["validate", "--solution", "{sol}", "--trials", "2000"],
                 "report.json", id="validate"),
    pytest.param(["dep-sweep", "--eps-grid", "0.1", "--trials", "200"],
                 "dep_sweep.csv", id="dep-sweep"),
    pytest.param(["sweep", "--param", "eps", "--grid", "0.01,0.02"],
                 "sweep.csv", id="sweep"),
])
def test_an_existing_output_file_is_overwritten_in_place(
        opt_dir, tmp_path, default_path, argv, output, longer):
    argv = [*(a.format(sol=opt_dir / "solution.json") for a in argv),
            "--scenario", default_path]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert main([*argv, "--out", str(fresh)]) == 0
    want = (fresh / output).read_bytes()
    junk = b"\x00junk\n" * 1536 if longer else b"{}\n"
    assert (len(junk) > len(want)) is longer
    reused.mkdir()
    (reused / output).write_bytes(junk)
    before = (fresh / "records.jsonl").read_text()
    (reused / "records.jsonl").write_text(before)
    inode = (reused / output).stat().st_ino
    assert main([*argv, "--out", str(reused)]) == 0
    assert (reused / output).read_bytes() == want
    assert (reused / output).stat().st_ino == inode
    after = (reused / "records.jsonl").read_text()
    assert after.startswith(before)
    assert len(after.splitlines()) == len(before.splitlines()) + 1


# an output that cannot be written is an io error, exit 1, and the entry
# in its way is left as it was: an --out that is a regular file, or a
# solution.json that is a directory
@pytest.mark.parametrize("blocker", ["out", "solution.json"])
def test_an_unwritable_output_is_an_io_error(tmp_path, default_path, capsys,
                                             blocker):
    out = tmp_path / "out"
    if blocker == "out":
        out.write_text("a file\n")
    else:
        (out / "solution.json").mkdir(parents=True)
        (out / "solution.json" / "kept").write_text("a file\n")
    rc = main(["optimize", "--scenario", default_path, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("io error: ")
    if blocker == "out":
        assert out.read_text() == "a file\n"
    else:
        assert [p.name for p in out.iterdir()] == ["solution.json"]
        assert [p.name for p in (out / "solution.json").iterdir()] == ["kept"]
        assert (out / "solution.json" / "kept").read_text() == "a file\n"


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
@pytest.mark.parametrize("trials, why", [
    pytest.param("0", "need at least 2 trials, got 0", id="0"),
    pytest.param("1", "need at least 2 trials, got 1", id="1"),
    pytest.param("1e4", "not an integer: '1e4'", id="1e4"),
])
def test_trials_below_2_exit_1(opt_dir, tmp_path, default_path, capsys,
                               command, output, trials, why):
    # one trial gives no standard error: a usage error, not a NaN row
    argv = [command, "--scenario", default_path, "--trials", trials,
            "--out", str(tmp_path)]
    if command == "validate":
        argv += ["--solution", str(opt_dir / "solution.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith(
        f"error: argument --trials: {why}\n")
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


def test_readme_library_use(monkeypatch, capsys):
    # the README's "Library use" block, run as written from the repo root
    text = (REPO_ROOT / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text,
                      re.S).group(1)
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(block, "README.md", "exec"), {})
    plan, check = capsys.readouterr().out.splitlines()
    assert plan.startswith("converged 0.17726849774036732 ")
    assert check.endswith(" True")


def test_every_public_name_has_a_caller():
    # each name in a module's __all__ is referred to by another skycloak
    # module, by perfbench (also as a traced name's string) or by a README
    # code span, unless it is an error or result that a public function
    # raises or returns
    def refs(path, strings=False):
        kinds = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
        if strings:
            kinds[ast.Constant] = "value"
        return {getattr(n, kinds[type(n)])
                for n in ast.walk(ast.parse(path.read_text())) if type(n) in kinds}

    readme = (REPO_ROOT / "README.md").read_text()
    known = {"SolverError", "DinkelbachResult", "SeriesConvergenceError",
             "PlannerInfeasible"}
    known |= {w for _, span in re.findall(r"(`+)(.+?)\1", readme, re.S)
              for w in re.findall(r"\w+", span)}
    for path in (REPO_ROOT / "perfbench").glob("*.py"):
        known |= refs(path, strings=True)
    package = sorted((REPO_ROOT / "src" / "skycloak").glob("*.py"))
    uncalled = []
    for path in package:
        public = getattr(importlib.import_module(f"skycloak.{path.stem}"),
                         "__all__", ())
        called = known.union(*(refs(p) for p in package if p != path))
        uncalled += [f"{path.stem}.{name}" for name in public if name not in called]
    assert uncalled == []


def test_import_leaves_scipy_unloaded():
    # numpy and the standard library cover every numerical primitive
    proc = subprocess.run(
        [sys.executable, "-c",
         "import skycloak, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
