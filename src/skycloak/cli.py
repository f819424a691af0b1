"""Command-line front end for the planner and the detection analysis.

Four subcommands, all reading a JSON scenario file and writing results
under ``--out`` (default: current directory):

- ``dep-sweep``: tabulate the closed-form detection-error-probability
  lower bound, the exact average, and a Monte Carlo estimate over a
  grid of covertness levels and shadowing rows (``dep_sweep.csv``).
- ``optimize``: run the planner (the Dinkelbach placement solver when
  the cancellation coefficient is zero, block coordinate descent
  otherwise) and persist the solution with its rate trace
  (``solution.json``).
- ``validate``: Monte Carlo check of a persisted solution against the
  covertness target (``report.json``); exits 3 when the check fails.
- ``sweep``: re-optimize over a grid of one scalar scenario field and
  tabulate rate, powers, and altitude per point (``sweep.csv``).

Every invocation appends one record to ``records.jsonl`` (run id,
scenario hash, command, seed, wall time, outputs). With a fixed scenario
and seed all outputs are bit-identical across runs except the run id and
wall time. CSV floats use 17 significant digits; JSON floats use Python
repr (shortest exact round trip) with non-finite values as null.

Exit codes: 0 success, 1 usage/input/other error, 2 infeasible scenario,
3 failed validation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
import time
import uuid
from pathlib import Path

import numpy as np

from .channel import SHADOWING_ROWS, gamma_from_sr, sample_sr_power
from .detection import (avg_min_dep_lower_bound, avg_min_dep_quadrature,
                        min_dep, phi_inverse)
from .planner import (PowerAllocation, Solution, UavPlacement, bcd_optimize,
                      _check_eps, _mc_estimate, perfect_cancellation_optimize,
                      validate_solution)
from .scenario_io import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION_FAIL = 3

DEFAULT_EPS_GRID = "0.005,0.01,0.02,0.05,0.1"
DEFAULT_SHADOWING = "light,average,heavy"

# scalar Scenario fields the sweep command may vary
SWEEPABLE = ("eps", "varpi", "P_tot", "Pa_max", "R_tg", "H_min", "H_max")

# options whose one value may start with "-" (a negative grid entry)
GRID_OPTIONS = ("--grid", "--eps-grid")


# ---------------------------------------------------------------------------
# serialization helpers


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_csv_cell(v) for v in row) + "\n")


def _jsonable(obj):
    """Plain-Python copy of obj with NaN/inf mapped to None."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def _write_json(path: Path, data: dict) -> None:
    """Write plain data, as ``_jsonable`` returns it, in one call."""
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


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


def _solution_dict(sol: Solution, iterations: int) -> dict:
    return {
        "status": sol.status,
        "message": sol.message,
        "Rb": sol.Rb,
        "iterations": iterations,
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


def _solution_from_dict(data: dict) -> Solution:
    try:
        pl = data["placement"]
        pw = data["powers"]
        if pl is None or pw is None:
            raise KeyError("placement/powers")
        placement = UavPlacement(q=np.array([float(pl["q"][0]),
                                             float(pl["q"][1])]),
                                 H=float(pl["H"]))
        powers = PowerAllocation(Pk=np.array([float(p) for p in pw["Pk"]]),
                                 Pj_hat=float(pw["Pj_hat"]),
                                 Pa=float(pw["Pa"]))
        rb = data["Rb"]
        rb = math.nan if rb is None else float(rb)
        return Solution(placement=placement, powers=powers, Rb=rb,
                        trace=list(data.get("trace", [])),
                        status=str(data.get("status", "converged")),
                        message=str(data.get("message", "")))
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ScenarioError(f"malformed solution file: {e}") from e


def _run_planner(scenario) -> tuple[Solution, int]:
    """Dispatch to the right optimizer; return (solution, iteration count).

    The iteration count is outer rounds: Dinkelbach rounds when the
    cancellation coefficient is zero, otherwise coordinate-descent
    rounds. Either trace holds the starting rate and then one rate per
    round, so the count is its length less one (0 for an empty trace).
    """
    if scenario.varpi == 0.0:
        sol = perfect_cancellation_optimize(scenario)
    else:
        sol = bcd_optimize(scenario)
    return sol, max(0, len(sol.trace) - 1)


# ---------------------------------------------------------------------------
# subcommands


def _operating_ratio(eps: float, gamma) -> float:
    """The jamming-to-signal ratio where the closed-form bound is 1 - eps."""
    return gamma.theta / phi_inverse(eps, gamma)


def cmd_dep_sweep(args, outdir: Path) -> int:
    t0 = time.perf_counter()
    loaded = load_scenario(args.scenario, args.seed)
    rows = []
    for ie, eps in enumerate(args.eps_grid):
        for ir, name in enumerate(args.shadowing):
            params = SHADOWING_ROWS[name]
            gamma = gamma_from_sr(params)
            ratio = _operating_ratio(eps, gamma)
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
    _append_record(outdir, "dep-sweep", loaded,
                   {"files": [path.name], "trials": args.trials,
                    "rows": _jsonable(rows)},
                   time.perf_counter() - t0)
    print(f"dep-sweep: wrote {len(rows)} rows -> {path}")
    return EXIT_OK


def cmd_optimize(args, outdir: Path) -> int:
    t0 = time.perf_counter()
    loaded = load_scenario(args.scenario, args.seed)
    sol, iterations = _run_planner(loaded.scenario)
    payload = _jsonable(_solution_dict(sol, iterations))
    path = outdir / "solution.json"
    _write_json(path, payload)
    _append_record(outdir, "optimize", loaded,
                   {"files": [path.name], "solution": payload},
                   time.perf_counter() - t0)
    if sol.status == "infeasible":
        print(f"optimize: {sol.message}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"optimize: {sol.status} after {iterations} iterations, "
          f"Rb={sol.Rb:.6g} bps/Hz -> {path}")
    return EXIT_OK


def cmd_validate(args, outdir: Path) -> int:
    t0 = time.perf_counter()
    loaded = load_scenario(args.scenario, args.seed)
    try:
        with open(args.solution) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"malformed solution file: {e}") from e
    if not isinstance(data, dict):
        raise ScenarioError("malformed solution file: not a JSON object")
    if data.get("status") == "infeasible":
        print("validate: solution file records an infeasible run",
              file=sys.stderr)
        return EXIT_ERROR
    sol = _solution_from_dict(data)
    rng = np.random.default_rng([2, loaded.seed])
    report = validate_solution(loaded.scenario, sol, trials=args.trials,
                               rng=rng)
    payload = _jsonable(dataclasses.asdict(report))
    path = outdir / "report.json"
    _write_json(path, payload)
    _append_record(outdir, "validate", loaded,
                   {"files": [path.name], "report": payload},
                   time.perf_counter() - t0)
    verdict = "pass" if report.covert_pass else "FAIL"
    print(f"validate: covertness {verdict} "
          f"(xi_mc={report.xi_mc:.6f} +- {report.xi_stderr:.6f}, "
          f"target {1.0 - loaded.scenario.eps:.6f}) -> {path}")
    return EXIT_OK if report.covert_pass else EXIT_VALIDATION_FAIL


def cmd_sweep(args, outdir: Path) -> int:
    t0 = time.perf_counter()
    loaded = load_scenario(args.scenario, args.seed)
    if args.param not in SWEEPABLE:
        print(f"sweep: unknown parameter {args.param!r} "
              f"(recognized: {', '.join(SWEEPABLE)})", file=sys.stderr)
        return EXIT_ERROR
    rows = []
    for value in args.grid:
        try:
            s_v = dataclasses.replace(loaded.scenario, **{args.param: value})
            sol, iterations = _run_planner(s_v)
            if sol.status == "infeasible":
                raise RuntimeError(sol.message)
            rows.append((args.param, value, sol.Rb, sol.powers.Pa,
                         sol.powers.Pj_hat, sol.placement.H, iterations))
        except Exception as e:  # record the failure, keep sweeping
            print(f"sweep: {args.param}={value:g} failed: {e}",
                  file=sys.stderr)
            rows.append((args.param, value, math.nan, math.nan, math.nan,
                         math.nan, 0))

    path = outdir / "sweep.csv"
    _write_csv(path, ("param", "value", "rb", "pa", "pj", "hu", "iters"),
               rows)
    _append_record(outdir, "sweep", loaded,
                   {"files": [path.name], "param": args.param,
                    "rows": _jsonable(rows)},
                   time.perf_counter() - t0)
    print(f"sweep: wrote {len(rows)} rows -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _trials(text: str) -> int:
    """A Monte Carlo trial count; a standard error needs at least 2."""
    n = int(text)
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
    p.set_defaults(func=cmd_dep_sweep, usage_error=p.error)

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
    p.add_argument("--param", required=True,
                   help=f"field to vary; one of: {', '.join(SWEEPABLE)}")
    p.add_argument("--grid", type=_grid, required=True,
                   help="comma-separated finite values")
    p.set_defaults(func=cmd_sweep)
    return parser


def _join_grid_values(argv) -> list:
    """argv with each grid option and the token after it joined into
    ``--grid=VALUE``, the form in which argparse reads a value that
    starts with "-" as a value rather than as an option; nothing after a
    bare "--" is touched.

    A grid option is its full name or any abbreviation of it, as argparse
    reads one: "--" and at least one more character. Joining leaves the
    verdict on the option to argparse, which reads "--gr=V" as it reads
    "--gr V" when V does not start with "-"."""
    out, tokens = [], iter(argv)
    for tok in tokens:
        if tok == "--":
            out.append(tok)
            out.extend(tokens)
            break
        if len(tok) > 2 and any(opt.startswith(tok) for opt in GRID_OPTIONS):
            value = next(tokens, None)
            if value is not None:
                tok = f"{tok}={value}"
        out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_join_grid_values(argv))
        if args.command == "dep-sweep":
            for eps, name in itertools.product(args.eps_grid, args.shadowing):
                gamma = gamma_from_sr(SHADOWING_ROWS[name])
                if _operating_ratio(eps, gamma) == math.inf:
                    args.usage_error(f"argument --eps-grid: eps {eps} puts the "
                                     f"{name} row's operating ratio past the doubles")
    except SystemExit as e:
        # argparse exits 2 on usage errors, which would collide with the
        # infeasible exit code; fold usage problems into the generic failure
        # code and let --help keep its clean exit
        return EXIT_OK if e.code == 0 else EXIT_ERROR
    try:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return args.func(args, outdir)
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
