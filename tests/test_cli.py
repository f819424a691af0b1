"""Command-line interface: files, formats, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, default_scenario_dict
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


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["optimize"]) == 1  # missing --scenario
    assert main(["launch"]) == 1
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


def test_import_leaves_scipy_unloaded():
    # numpy and the standard library cover every numerical primitive
    proc = subprocess.run(
        [sys.executable, "-c",
         "import skycloak, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
