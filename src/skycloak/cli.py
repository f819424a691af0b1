"""Command-line front end for the planner and the detection analysis.

Four subcommands, all reading a JSON scenario file and writing results
under ``--out`` (default: current directory):

- ``dep-sweep``: tabulate the closed-form detection-error-probability
  lower bound, the exact average, and a Monte Carlo estimate over a
  grid of covertness levels and shadowing rows (``dep_sweep.csv``).
- ``optimize``: plan with ``skycloak.planner.optimize`` (the Dinkelbach
  placement solver when the cancellation coefficient is zero, block
  coordinate descent otherwise) and persist the solution with its rate
  trace (``solution.json``).
- ``validate``: Monte Carlo check of a persisted solution against the
  covertness target (``report.json``); exits 3 when the check fails.
- ``sweep``: re-plan with ``skycloak.planner.optimize`` over a grid of
  one scalar scenario field and tabulate rate, powers, and altitude per
  point (``sweep.csv``).

``main`` takes four steps: argparse reads argv, the scenario is loaded,
the subcommand runs, and the run's one record is appended to
``records.jsonl`` (run id, scenario hash, command, seed, wall time,
outputs). The one file writer makes ``--out``, so nothing is created until
the subcommand writes its output file; a run that writes none records
nothing. An output file that already exists is overwritten in place and
holds exactly the new bytes, with no stale tail; ``records.jsonl`` is
appended to.
With a fixed scenario and seed all outputs are bit-identical across runs
except the run id and wall time. CSV floats use 17 significant digits;
JSON floats use Python repr (shortest exact round trip) with non-finite
values as null.

Exit codes: 0 success, 1 usage/input/other error, 2 infeasible scenario,
3 failed validation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
import uuid
from pathlib import Path

import numpy as np

from .channel import SHADOWING_ROWS, gamma_from_sr, sample_sr_power
from .detection import (avg_min_dep_lower_bound, avg_min_dep_quadrature,
                        min_dep, phi_inverse)
from .planner import (PowerAllocation, Solution, UavPlacement, _check_eps,
                      _mc_estimate, optimize, validate_solution)
from .scenario_io import ScenarioError, _number, load_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION_FAIL = 3

DEFAULT_EPS_GRID = "0.005,0.01,0.02,0.05,0.1"
DEFAULT_SHADOWING = "light,average,heavy"

# scalar Scenario fields the sweep command may vary
SWEEPABLE = ("eps", "varpi", "P_tot", "Pa_max", "R_tg", "H_min", "H_max")


# ---------------------------------------------------------------------------
# serialization helpers


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _open_in_place(path, flags: int) -> int:
    # without O_TRUNC: on a file system that discards freed blocks,
    # truncating a non-empty file at open costs more than the write
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(path: Path, text: str) -> None:
    """Write an output file as UTF-8, making its directory first; a line
    ends in a bare newline on every platform.

    An existing file is overwritten in place: the new bytes go over the
    old ones from the start, and the file is then cut at their end, so no
    stale tail is left. The file keeps its inode; a new one gets the mode
    ``open`` gives.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb", opener=_open_in_place) as f:
        f.write(text.encode())
        f.truncate()


def _write_csv(path: Path, header, rows) -> None:
    _write(path, "".join(",".join(map(_csv_cell, row)) + "\n"
                         for row in (header, *rows)))


def _jsonable(obj):
    """Plain-Python copy of obj with NaN/inf mapped to None."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def _write_json(path: Path, data: dict) -> None:
    """Write plain data, as ``_jsonable`` returns it, in one call."""
    _write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _append_record(outdir: Path, command: str, loaded, outputs: dict,
                   wall_time: float) -> None:
    """Append the run's record; ``outputs`` is plain data, as
    ``_jsonable`` returns it."""
    record = {
        "run_id": uuid.uuid4().hex,
        "scenario_hash": loaded.hash,
        "command": command,
        "seed": loaded.seed,
        "wall_time_s": wall_time,
        "outputs": outputs,
    }
    with open(outdir / "records.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def _solution_dict(sol: Solution) -> dict:
    return {
        "status": sol.status,
        "message": sol.message,
        "Rb": sol.Rb,
        "iterations": sol.iterations,
        "trace": list(sol.trace),
        "placement": None if sol.placement is None else {
            "q": [float(sol.placement.q[0]), float(sol.placement.q[1])],
            "H": float(sol.placement.H),
        },
        "powers": None if sol.powers is None else {
            "Pk": [float(p) for p in sol.powers.Pk],
            "Pj_hat": float(sol.powers.Pj_hat),
            "Pa": float(sol.powers.Pa),
        },
    }


def _numbers(v, n: int, path: str) -> list:
    """The n numbers of the JSON list v, each read with ``_number``."""
    if not isinstance(v, list) or len(v) != n:
        raise ValueError(f"{path}: must be a list of {n} numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _rate(v, path: str) -> float:
    """A rate as ``solution.json`` holds it: a number, or null for NaN."""
    return math.nan if v is None else _number(v, path)


def _read_solution(path, K: int) -> Solution | None:
    """The plan in a ``solution.json`` for a scenario with K UEs, or None
    when the file records an infeasible run.

    Every number is read as a scenario number is: finite, not a bool or a
    string; only Rb and the trace's rates may be null, as NaN is written.
    ``q`` holds two numbers, ``Pk`` one per UE, and ``trace`` is a list.
    Anything else raises a ScenarioError, "malformed solution file".
    """
    with open(path) as f:
        try:
            data = json.load(f)
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
            if data.get("status") == "infeasible":
                return None
            pl, pw = data["placement"], data["powers"]
            if not (isinstance(pl, dict) and isinstance(pw, dict)):
                raise ValueError("placement and powers must be JSON objects")
            trace = data.get("trace", [])
            if not isinstance(trace, list):
                raise ValueError("trace: must be a list")
            placement = UavPlacement(q=np.array(_numbers(pl["q"], 2, "placement.q")),
                                     H=_number(pl["H"], "placement.H"))
            powers = PowerAllocation(Pk=np.array(_numbers(pw["Pk"], K, "powers.Pk")),
                                     Pj_hat=_number(pw["Pj_hat"], "powers.Pj_hat"),
                                     Pa=_number(pw["Pa"], "powers.Pa"))
            return Solution(placement=placement, powers=powers,
                            Rb=_rate(data["Rb"], "Rb"),
                            trace=[_rate(r, f"trace[{i}]")
                                   for i, r in enumerate(trace)],
                            status=str(data.get("status", "converged")),
                            message=str(data.get("message", "")))
        except (KeyError, ValueError) as e:
            raise ScenarioError(f"malformed solution file: {e}") from e


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments, the loaded scenario and the
# output directory, writes its file, prints, and returns (exit code, the
# record's outputs, or None for a run that records nothing)


def cmd_dep_sweep(args, loaded, outdir: Path):
    rows = []
    for ie, eps in enumerate(args.eps_grid):
        for ir, name in enumerate(args.shadowing):
            params = SHADOWING_ROWS[name]
            gamma = gamma_from_sr(params)
            # the jamming-to-signal ratio where the bound is 1 - eps
            ratio = gamma.theta / phi_inverse(eps, gamma)
            if ratio == math.inf:
                print(f"dep-sweep: eps {eps} puts the {name} row's operating "
                      "ratio past the doubles", file=sys.stderr)
                return EXIT_ERROR, None
            bound = avg_min_dep_lower_bound(1.0, 1.0, ratio, 1.0,
                                            gamma).value_lb
            quad = avg_min_dep_quadrature(1.0, 1.0, ratio, 1.0, params)
            rng = np.random.default_rng([3, loaded.seed, ie, ir])
            x = sample_sr_power(params, rng, args.trials)
            mc_mean, mc_stderr = _mc_estimate(min_dep(x, ratio))
            rows.append((eps, name, bound, quad, mc_mean, mc_stderr))

    path = outdir / "dep_sweep.csv"
    _write_csv(path, ("eps", "shadowing", "bound", "quadrature",
                      "mc_mean", "mc_stderr"), rows)
    print(f"dep-sweep: wrote {len(rows)} rows -> {path}")
    return EXIT_OK, {"files": [path.name], "trials": args.trials,
                     "rows": _jsonable(rows)}


def cmd_optimize(args, loaded, outdir: Path):
    sol = optimize(loaded.scenario)
    payload = _jsonable(_solution_dict(sol))
    path = outdir / "solution.json"
    _write_json(path, payload)
    outputs = {"files": [path.name], "solution": payload}
    if sol.status == "infeasible":
        print(f"optimize: {sol.message}", file=sys.stderr)
        return EXIT_INFEASIBLE, outputs
    print(f"optimize: {sol.status} after {sol.iterations} iterations, "
          f"Rb={sol.Rb:.6g} bps/Hz -> {path}")
    return EXIT_OK, outputs


def cmd_validate(args, loaded, outdir: Path):
    sol = _read_solution(args.solution, loaded.scenario.K)
    if sol is None:
        print("validate: solution file records an infeasible run",
              file=sys.stderr)
        return EXIT_ERROR, None
    rng = np.random.default_rng([2, loaded.seed])
    report = validate_solution(loaded.scenario, sol, trials=args.trials,
                               rng=rng)
    payload = _jsonable(report._asdict())
    path = outdir / "report.json"
    _write_json(path, payload)
    verdict = "pass" if report.covert_pass else "FAIL"
    print(f"validate: covertness {verdict} "
          f"(xi_mc={report.xi_mc:.6f} +- {report.xi_stderr:.6f}, "
          f"target {1.0 - loaded.scenario.eps:.6f}) -> {path}")
    code = EXIT_OK if report.covert_pass else EXIT_VALIDATION_FAIL
    return code, {"files": [path.name], "report": payload}


def cmd_sweep(args, loaded, outdir: Path):
    rows = []
    for value in args.grid:
        # a rejected value or an infeasible verdict is a NaN row; any other
        # error ends the sweep
        try:
            s = dataclasses.replace(loaded.scenario, **{args.param: value})
        except ValueError as e:
            failure = e
        else:
            sol = optimize(s)
            failure = sol.message if sol.status == "infeasible" else None
        if failure is None:
            rows.append((args.param, value, sol.Rb, sol.powers.Pa,
                         sol.powers.Pj_hat, sol.placement.H, sol.iterations))
        else:
            print(f"sweep: {args.param}={value:g} failed: {failure}",
                  file=sys.stderr)
            rows.append((args.param, value, math.nan, math.nan, math.nan,
                         math.nan, 0))

    path = outdir / "sweep.csv"
    _write_csv(path, ("param", "value", "rb", "pa", "pj", "hu", "iters"),
               rows)
    print(f"sweep: wrote {len(rows)} rows -> {path}")
    return EXIT_OK, {"files": [path.name], "param": args.param,
                     "rows": _jsonable(rows)}


# ---------------------------------------------------------------------------
# argument parsing


def _trials(text: str) -> int:
    """A Monte Carlo trial count; a standard error needs at least 2."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 trials, got {n}")
    return n


def _grid(text: str) -> list:
    """A comma-separated list of at least one finite number."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty grid")
    values = []
    for item in items:
        try:
            v = float(item)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {item!r}") from None
        if not math.isfinite(v):
            raise argparse.ArgumentTypeError(f"not a finite number: {item!r}")
        values.append(v)
    return values


def _eps_grid(text: str) -> list:
    """A grid of covertness levels, each one a scenario accepts."""
    values = _grid(text)
    for eps in values:
        try:
            _check_eps(eps)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return values


def _shadowing_rows(text: str) -> list:
    """A comma-separated list of at least one known shadowing row."""
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty shadowing list")
    for name in names:
        if name not in SHADOWING_ROWS:
            known = ", ".join(sorted(SHADOWING_ROWS))
            raise argparse.ArgumentTypeError(
                f"unknown shadowing row {name!r} (known: {known})")
    return names


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skycloak",
        description="Planner and detection-analysis experiments for "
                    "UAV-jammer-assisted covert satellite downlinks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="path to a JSON scenario file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's rng_seed")
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")

    p = sub.add_parser("dep-sweep",
                       help="tabulate bound/quadrature/MC detection error "
                            "probability over covertness levels")
    common(p)
    p.add_argument("--eps-grid", type=_eps_grid, default=DEFAULT_EPS_GRID,
                   help="comma-separated covertness levels "
                        f"(default {DEFAULT_EPS_GRID})")
    p.add_argument("--shadowing", type=_shadowing_rows, default=DEFAULT_SHADOWING,
                   help="comma-separated shadowing rows "
                        f"(default {DEFAULT_SHADOWING})")
    p.add_argument("--trials", type=_trials, default=10_000,
                   help="Monte Carlo trials per grid point (default 10000)")
    p.set_defaults(func=cmd_dep_sweep)

    p = sub.add_parser("optimize", help="run the planner on a scenario")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validate",
                       help="Monte Carlo covertness check of a saved solution")
    common(p)
    p.add_argument("--solution", required=True,
                   help="path to a solution.json written by optimize")
    p.add_argument("--trials", type=_trials, default=10_000,
                   help="Monte Carlo trials (default 10000)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep",
                       help="re-optimize over a grid of one scalar field")
    common(p)
    p.add_argument("--param", required=True, choices=SWEEPABLE,
                   help="field to vary")
    p.add_argument("--grid", type=_grid, required=True,
                   help="comma-separated finite values")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors, which would collide with the
        # infeasible exit code; fold usage problems into the generic failure
        # code and let --help keep its clean exit
        return EXIT_OK if e.code == 0 else EXIT_ERROR
    try:
        t0 = time.perf_counter()
        loaded = load_scenario(args.scenario, args.seed)
        outdir = Path(args.out)
        code, outputs = args.func(args, loaded, outdir)
        if outputs is not None:
            _append_record(outdir, args.command, loaded, outputs,
                           time.perf_counter() - t0)
        return code
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # keep the contract: any other failure exits 1
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
