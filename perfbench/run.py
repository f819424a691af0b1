"""skycloak benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-bcd --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

- ``plan-bcd``     plan a corpus scenario with residual jamming (BCD path)
                   through ``skycloak optimize``, in process;
- ``plan-cancel``  the same with perfect cancellation (Dinkelbach path);
- ``dep-mc``       one DEP table row (bound, quadrature, Monte Carlo) and
                   one Monte Carlo validation of a stock plan, in process.

There is no fresh-process workload per CLI command: the calibration kernel
does not follow the start-up cost of fresh interpreters well enough for
its times to be steady between seeds. Interpreter start and import time
show in every workload's ``setup_s`` and in the traced ``cli.import_*``.

``--trace 0`` times the operations with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` runs the same operations once untraced and
once with spans on every layer's public names, and reports per-layer
metrics and the tracing overhead. Times are wall-clock seconds scaled to a
reference machine speed (see calibration.py); each operation's time is the
fastest of its repeats.

Every run checks the program's outputs. An operation that raises is a
failed operation; a wrong output (constraint residual above 1e-8, outputs
that differ between repeats, a DEP row out of line, an exit code the
README does not give for the outcome, the oracle check on the stock
scenarios) is a failed operation too and also makes the run incorrect and
its exit code 1. ``optimize`` exiting 1 on a corpus scenario (the README's
"anything else") is a planner defect the figures record: it scores 0 in
``rate_vs_oracle`` and is listed under ``planner_errors``. The line
before the last holds every figure of the workload by name
(``plan_p50_s``, ``dep_rows_per_s``, ``validate_false_fail_rate``, ...);
the last line of standard output is the result as one JSON object.
"""

import os

# pin BLAS/OpenMP threads before numpy loads, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import (REFERENCE_S, START_REFERENCE_S, Clock,  # noqa: E402
                         kernel_seconds, start_seconds)

ROOT = Path.cwd()
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 7

E2E_UNITS = {"setup_s": "s", "op_gmean_s": "s", "ops_per_s": "1/s",
             "rate_vs_oracle": "ratio"}

# per-layer metric -> (kind, tracer key, unit); values are per operation
LAYER = {}
for _name, _extra in (
        ("scenario_io.load_scenario", ()),
        ("channel.sample_sr_power", ("draws",)),
        ("channel.sr_pdf", ("points",)),
        ("channel.sr_cdf", ()),
        ("detection.avg_min_dep_quadrature", ()),
        ("detection.avg_min_dep_lower_bound", ()),
        ("detection.phi_inverse", ()),
        ("solvers.solve_lp", ()),
        ("solvers.max_slack_point", ()),
        ("solvers.dinkelbach", ("rounds",)),
        ("planner.bcd_optimize", ("outer_iters",)),
        ("planner.placement_subproblem", ()),
        ("planner.power_subproblem", ()),
        ("planner.perfect_cancellation_optimize", ()),
        ("planner.constraint_residuals", ()),
        ("planner.validate_solution", ("trials",))):
    LAYER[f"{_name}.calls"] = ("calls", _name, "count/op")
    LAYER[f"{_name}.self_s"] = ("self_s", _name, "s/op")
    for _e in _extra:
        LAYER[f"{_name}.{_e}"] = ("extra", f"{_name}.{_e}", "count/op")
LAYER["channel.uav_gain.calls"] = ("calls", "channel.uav_gain", "count/op")
LAYER["planner.placement_subproblem.moved_share"] = (
    "share", "planner.placement_subproblem", "ratio")
LAYER["solvers.constraint_evals"] = ("counts", "solvers.constraint_evals", "count/op")
# the workloads reach the cli layer only through ``optimize``
LAYER["cli.optimize.self_s"] = ("self_s", "cli.cmd_optimize", "s/op")
for _imp in ("import_s", "import_numpy_s", "import_scipy_s"):
    LAYER[f"cli.{_imp}"] = ("import", _imp, "s")
LAYER["trace.overhead_ratio"] = ("overhead", None, "ratio")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    """Commit (when the checkout is a git repository), source digest,
    interpreter and library versions, processor count."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "skycloak").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# set-up time


def _spawn_until_ready(cmd) -> tuple:
    """(seconds from spawning the set-up probe ``cmd`` until it prints its
    ready line, seconds of that spent in the workload's own set-up)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=150)
    word, _, own = line.partition(" ")
    if code != 0 or word != "ready":
        raise RuntimeError(f"set-up probe {cmd[-4:]} exited {code}")
    return elapsed, float(own)


def setup_seconds(workload: str, seed: int) -> list:
    """Set-up times at reference speed, one per fresh process.

    Interpreter start and imports are scaled by a bare interpreter start,
    the workload's own set-up (corpus build, stock plans) by the in-process
    kernel; both readings are taken just before the probe starts."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_REPEATS):
        start, kernel = start_seconds(), kernel_seconds()
        total, own = _spawn_until_ready(cmd)
        out.append((total - own) * START_REFERENCE_S / start
                   + own * REFERENCE_S / kernel)
    return out


def import_times() -> dict:
    """Fresh-process ``-X importtime`` totals for skycloak, numpy, scipy
    (medians of three interpreters)."""
    samples = {"import_s": [], "import_numpy_s": [], "import_scipy_s": []}
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import skycloak"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150)
        total = {"import_s": 0.0, "import_numpy_s": 0.0, "import_scipy_s": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            name, us = name.strip(), float(self_us) * 1e-6
            total["import_s"] += us
            top = name.split(".")[0]
            if top in ("numpy", "scipy"):
                total[f"import_{top}_s"] += us
        for key, v in total.items():
            samples[key].append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------
# timed loops


def call(wl, op):
    """Run one operation; an exception is its outcome, not the run's end."""
    try:
        return wl.run(op)
    except Exception as e:  # the workload records it as a failed operation
        return e


def timed_loop(wl, seconds: float) -> Clock:
    """Run the operations in order, pass after pass, for ``seconds``.

    The first pass always completes; after it, the loop ends at the first
    operation whose last wall time would overrun the budget. The clock's
    samples are keyed by operation index.
    """
    clock = Clock()
    last = {}
    start = time.perf_counter()
    while True:
        for i, op in enumerate(wl.ops):
            if len(last) == len(wl.ops) and (
                    time.perf_counter() - start + last[i] > seconds):
                return clock
            t0 = time.perf_counter()
            wl.record(op, clock.time(i, call, wl, op))
            last[i] = time.perf_counter() - t0


def traced_passes(wl, seconds: float, tracer) -> tuple:
    """One untraced pass over the operations that fit in half the budget,
    then the same operations with tracing on. Returns (traced times by
    index, operation count, traced/untraced - 1)."""
    untraced, done = Clock(), []
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if done and time.perf_counter() - start > seconds / 2.0:
            break
        wl.record(op, untraced.time(i, call, wl, op))
        done.append(i)
    traced = Clock()
    try:
        for i in done:
            tracer.enabled = True
            out = traced.time(i, call, wl, wl.ops[i])
            tracer.enabled = False          # bookkeeping is not the program's
            wl.record(wl.ops[i], out)
    finally:
        tracer.enabled = False

    def total(clock):
        return sum(t for ts in clock.scaled().values() for t in ts)

    return traced, len(done), total(traced) / total(untraced) - 1.0


def layer_metrics(totals: dict, n_ops: int, overhead: float, imports: dict) -> dict:
    out = {}
    for name, (kind, key, unit) in LAYER.items():
        if kind == "overhead":
            value = overhead
        elif kind == "import":
            value = imports[key]
        elif kind == "share":
            calls = totals["calls"].get(key, 0)
            moved = totals["extra"].get(f"{key}.moved", 0.0)
            value = moved / calls if calls else 0.0
        else:
            value = totals[kind].get(key, 0) / n_ops
        out[name] = {"value": float(value), "unit": unit}
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.seed %= 2**31                      # numpy seeds must be nonnegative
    if hasattr(os, "sched_setaffinity"):
        # one processor for the benchmark and every child it starts, so the
        # calibration kernel runs where the operations run
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "skycloak" / "__init__.py").is_file():
        print(f"error: no skycloak sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = child_env()["PYTHONPATH"]
    warnings.simplefilter("ignore")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    import skycloak
    if not Path(skycloak.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: skycloak imported from {skycloak.__file__}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload]()
        if args.setup_probe:
            t0 = time.perf_counter()
            wl.setup(ROOT, args.seed, workdir)
            print(f"ready {time.perf_counter() - t0!r}", flush=True)
            return 0
        return measure(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, workdir: Path) -> int:
    from tracing import Tracer
    from workloads import op_time
    setups = setup_seconds(args.workload, args.seed)
    wl.setup(ROOT, args.seed, workdir)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    for op in wl.ops[:wl.warmup_ops]:
        wl.record(op, call(wl, op))
    if args.trace:
        clock, n_ops, overhead = traced_passes(wl, args.seconds, tracer)
        tracer.uninstall()
        tracer.write_spans(SCRATCH / f"spans-{args.workload}.jsonl")
        metrics = layer_metrics(tracer.totals(), n_ops, overhead, import_times())
    else:
        clock = timed_loop(wl, args.seconds)
    times, raw = clock.scaled(), clock.wall()
    result = wl.finish(times)

    # an operation that errs or returns a wrong output fails every time it
    # ran; checks of the whole run (keys that are not operations) count once
    attempted = sum(len(t) for t in times.values())
    bad = {**result["errors"], **result["wrong"]}
    failed = sum(len(times.get(key, ())) or 1 for key in bad)
    def typical(samples):
        # operations that erred have no useful time; if all did, use them all
        ok = [op_time(t) for i, t in samples.items() if i not in result["errors"]]
        return ok or [op_time(t) for t in samples.values()]

    if not args.trace:
        per_op = typical(times)
        values = {"setup_s": statistics.median(setups),
                  "op_gmean_s": statistics.geometric_mean(per_op),
                  "ops_per_s": len(per_op) / sum(per_op),
                  "rate_vs_oracle": result["rate_vs_oracle"]}
        metrics = {k: {"value": float(v), "unit": E2E_UNITS[k]}
                   for k, v in values.items()}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "operations": len(times),
              "samples": attempted, "setup_samples_s": setups,
              "wall_op_p50_s": statistics.median(typical(raw)),
              "figures": result["report"],
              "wrong": {str(k): v for k, v in result["wrong"].items()},
              "errors": {str(k): v for k, v in result["errors"].items()},
              "absent": tracer.absent, "env": environment()}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps(report, default=str))
    # exceptions are failed operations; only a wrong output makes the run
    # incorrect
    correct = not result["wrong"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
