"""The three benchmark workloads.

Every workload builds its inputs from the workload seed in ``setup``,
exposes a fixed list of operations, times ``run(op)`` and nothing else,
and checks the outputs it kept in ``record`` once the timed loop is over
(``finish``). Workloads call skycloak only through entry points
the ROADMAP keeps: ``skycloak.cli.main``, ``load_scenario``,
``validate_solution``, ``avg_min_dep_quadrature``,
``avg_min_dep_lower_bound``, ``sample_sr_power`` and ``phi_inverse``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import skycloak.cli
import skycloak.detection
import skycloak.planner
import skycloak.scenario_io
from skycloak.channel import SHADOWING_ROWS, UavPlacement, gamma_from_sr

import corpus
import oracle

RESIDUAL_TOL = 1e-8
# the quadrature's absolute tolerance: the bound may exceed it by this much
QUAD_TOL = 1e-8
# |quadrature - MC| may reach this many standard errors; at 4 a run of
# 72 rows has a 0.5% chance of a false alarm, so 92 runs would see one
MC_Z = 5.0
STOCK = ("default.json", "default_perfect.json")
# optimize's exit code (None: it raised) -> the plan workloads' verdict
VERDICTS = {None: "raised", 0: "plan", 1: "error", 2: "infeasible"}


def op_time(samples) -> float:
    """One operation's time: the fastest of its repeats, the one least
    disturbed by other load on the machine."""
    return min(samples)


def _quiet_main(argv) -> tuple:
    """``skycloak.cli.main`` with its console output captured; returns
    (exit code, output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = skycloak.cli.main(argv)
    return code, sink.getvalue()


def _solution(data: dict):
    """Rebuild a planner Solution from a parsed solution.json."""
    pl, pw = data["placement"], data["powers"]
    return skycloak.planner.Solution(
        placement=UavPlacement(q=np.array(pl["q"], dtype=float), H=float(pl["H"])),
        powers=skycloak.planner.PowerAllocation(Pk=np.array(pw["Pk"], dtype=float),
                                          Pj_hat=float(pw["Pj_hat"]),
                                          Pa=float(pw["Pa"])),
        Rb=float(data["Rb"]), trace=list(data["trace"]), status=data["status"])


def _worst_residual(s, sol) -> float:
    res = skycloak.planner.constraint_residuals(s, sol.placement, sol.powers)
    return max(res.values())


def _oracle(s):
    rate, _ = oracle.oracle_rate(s, skycloak.detection.phi_inverse(s.eps, s.gamma))
    return rate


def _dep_row_failures(bound, quad, mc_mean, mc_se) -> list:
    out = []
    if not bound <= quad + QUAD_TOL:
        out.append(f"bound {bound!r} above quadrature {quad!r}")
    if abs(quad - mc_mean) > MC_Z * mc_se:
        out.append(f"quadrature {quad!r} and MC {mc_mean!r} differ by more "
                   f"than {MC_Z} standard errors ({mc_se!r})")
    return out


def _tail(values):
    """(percentile, value) of the highest whole percentile with at least
    ten samples above it, or (None, None) below eleven samples. With the
    24 scenarios of a plan workload that is the 58th percentile."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None, None
    best = None
    for p in range(1, 100):
        k = math.ceil(p / 100.0 * n) - 1        # nearest-rank percentile
        if n - 1 - k >= 10:
            best = (p, xs[k])
    return best if best else (None, None)


def stock_oracle_check(scen: dict, rates: dict) -> list:
    """The oracle must beat stock BCD by more than 5% and match stock
    Dinkelbach within 1e-6 relative."""
    out = []
    for name, rb in rates.items():
        ref = _oracle(scen[name])
        if ref is None:
            out.append(f"oracle finds {name} infeasible")
        elif name == "default.json" and not rb < 0.95 * ref:
            out.append(f"oracle {ref!r} not 5% above BCD {rb!r} on {name}")
        elif name == "default_perfect.json" and abs(rb - ref) > 1e-6 * abs(ref):
            out.append(f"oracle {ref!r} differs from Dinkelbach {rb!r} on {name}")
    return out


def rate_ratio(rb, ref) -> float | None:
    """min(1, R_plan / R_oracle); an infeasible verdict scores 0; None when
    the oracle found nothing to compare against."""
    if ref is None or ref <= 0.0:
        return None
    if rb is None or not math.isfinite(rb):
        return 0.0
    return min(1.0, rb / ref)


def stock_inputs(root: Path, seed: int, workdir: Path) -> dict:
    """Copies of the stock scenarios with their UEs written out and the
    workload seed as ``rng_seed``: the stock geometry, seeded Monte Carlo."""
    paths = {}
    for name in STOCK:
        raw = json.loads((root / "scenarios" / name).read_text())
        ues = skycloak.scenario_io.load_scenario(raw).scenario.ues
        gen = copy.deepcopy(raw)
        gen["ue_placement"] = {"explicit": {"value": ues.tolist(), "unit": "m"}}
        gen["rng_seed"] = seed % 2**31
        path = workdir / name
        path.write_text(json.dumps(gen, indent=2))
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# plan-bcd, plan-cancel


class PlanWorkload:
    """Plan every scenario of the corpus through ``skycloak optimize``."""

    warmup_ops = 2

    def __init__(self, varpis, size: int):
        self.varpis, self.size = list(varpis), size

    def setup(self, root: Path, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.ops, self.scenarios = [], []
        self.base_index = []
        for i, (b, d) in enumerate(corpus.workload_corpus(seed, self.size, self.varpis)):
            path = workdir / f"scenario_{i:03d}.json"
            path.write_text(json.dumps(d))
            self.scenarios.append(skycloak.scenario_io.load_scenario(d).scenario)
            self.base_index.append(b)
            self.ops.append(i)
        # op -> list of (exit code, solution.json bytes or error message)
        self.outputs = {}

    def run(self, op):
        out = self.workdir / f"out_{op:03d}"
        return _quiet_main(["optimize", "--scenario",
                            str(self.workdir / f"scenario_{op:03d}.json"),
                            "--out", str(out)])

    def record(self, op, outcome) -> None:
        if isinstance(outcome, Exception):
            # ``main`` promises an exit code for every failure
            code, data = None, f"{type(outcome).__name__}: {outcome}".encode()
        elif outcome[0] in (0, 2):
            code = outcome[0]
            data = (self.workdir / f"out_{op:03d}" / "solution.json").read_bytes()
        else:
            code, data = outcome[0], outcome[1].strip().encode()
        self.outputs.setdefault(op, []).append((code, data))

    def finish(self, times: dict) -> dict:
        """Check every planned scenario; return failures and figures."""
        wrong, errors = {}, {}
        gaps, ratios = [], []
        false_infeasible = oracle_missed = converged = infeasible = 0
        planner_errors = {}
        for op, outs in self.outputs.items():
            errs = []
            code, data = outs[0]
            if any(o != outs[0] for o in outs[1:]):
                errs.append("exit code or output differ between repeats")
            s = self.scenarios[op]
            if code is None:
                errors[op] = [f"optimize raised {data.decode()}"]
                continue
            if code == 1:
                # the README's exit for "anything else": the program failed
                # on a valid scenario. A known defect of the planner, not of
                # the benchmark: it scores 0 in rate_vs_oracle whatever the
                # oracle finds, and is listed in the report.
                planner_errors[self.base_index[op]] = data.decode()
                ratios.append(0.0)
                if errs:
                    wrong[op] = errs
                continue
            if code != 0 and code != 2:
                wrong[op] = errs + [f"optimize exited {code}, not a README code"]
                continue
            payload = json.loads(data)
            feasible = payload["status"] != "infeasible"
            if feasible != (code == 0):
                errs.append(f"exit {code} with status {payload['status']}")
            rb = None
            if feasible:
                converged += 1
                sol = _solution(payload)
                worst = _worst_residual(s, sol)
                if not worst <= RESIDUAL_TOL:
                    errs.append(f"constraint residual {worst!r}")
                rb = sol.Rb
            else:
                infeasible += 1
            ref = _oracle(s)
            if ref is None:
                oracle_missed += feasible
            else:
                false_infeasible += not feasible
                if feasible:
                    gaps.append(max(0.0, (ref - rb) / ref))
            r = rate_ratio(rb, ref)
            if r is not None:
                ratios.append(r)
            if errs:
                wrong[op] = errs

        per_op = [op_time(t) for i, t in times.items() if i not in errors]
        pct, tail = _tail(per_op)
        report = {
            "plan_p50_s": statistics.median(per_op),
            "plan_tail_s": tail, "plan_tail_percentile": pct,
            # the ROADMAP's tail target is a p95, which ten samples above
            # the percentile cannot reach at this corpus size
            "plan_p95_s": sorted(per_op)[math.ceil(0.95 * len(per_op)) - 1],
            "plan_max_s": max(per_op),
            "plans_per_s": len(per_op) / sum(per_op),
            "rate_gap_median": statistics.median(gaps) if gaps else None,
            "rate_gap_max": max(gaps) if gaps else None,
            "false_infeasible": false_infeasible,
            "oracle_missed": oracle_missed,
            "scenarios": len(per_op), "converged": converged,
            "infeasible": infeasible, "rated": len(ratios),
            # base scenario -> message, for scenarios optimize exits 1 on
            "planner_errors": planner_errors,
            # per base scenario: (verdict, seconds at reference speed)
            "per_scenario": {self.base_index[i]: (
                VERDICTS.get(self.outputs[i][0][0], "other exit"), op_time(t))
                for i, t in times.items()},
        }
        return {"wrong": wrong, "errors": errors, "report": report,
                "rate_vs_oracle": statistics.fmean(ratios) if ratios else 1.0}


# ---------------------------------------------------------------------------
# dep-mc


class DepMcWorkload:
    """One operation: a DEP table row as ``dep-sweep`` writes it, then one
    Monte Carlo validation of a stock plan.

    No barrier solve runs in the timed region, but the stock plans are made
    at set-up by the current planner: ``setup_s``, ``rate_vs_oracle`` and
    the validation verdicts follow planner changes."""

    warmup_ops = 2
    EPS_CELLS = 24
    TRIALS = 10_000

    def setup(self, root: Path, seed: int, workdir: Path) -> None:
        self.seed = seed
        paths = stock_inputs(root, seed, workdir)
        self.stock, self.plans = {}, {}
        for name, path in paths.items():
            out = workdir / name.replace(".json", "")
            code, _ = _quiet_main(["optimize", "--scenario", str(path),
                                   "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"stock optimize of {name} exited {code}")
            self.stock[name] = skycloak.scenario_io.load_scenario(path).scenario
            self.plans[name] = _solution(json.loads((out / "solution.json").read_text()))
        rng = np.random.default_rng([seed, 7])
        edges = np.linspace(math.log(1e-3), math.log(0.4), self.EPS_CELLS + 1)
        eps = np.exp(edges[:-1] + rng.uniform(size=self.EPS_CELLS) * np.diff(edges))
        self.ops = []
        for ie, e in enumerate(eps):
            for ir, row in enumerate(("light", "average", "heavy")):
                params = SHADOWING_ROWS[row]
                self.ops.append((ie, ir, float(e), row, params, gamma_from_sr(params)))
        self.rows, self.validations = {}, []
        self.repeat, self.errors = {}, {}

    def run(self, op):
        ie, ir, eps, row, params, gamma = op
        ratio = gamma.theta / skycloak.detection.phi_inverse(eps, gamma)
        bound = skycloak.detection.avg_min_dep_lower_bound(
            1.0, 1.0, ratio, 1.0, gamma).value_lb
        quad = skycloak.detection.avg_min_dep_quadrature(1.0, 1.0, ratio, 1.0, params)
        rng = np.random.default_rng([3, self.seed, ie, ir])
        x = skycloak.channel.sample_sr_power(params, rng, self.TRIALS)
        xi = np.maximum(0.0, 1.0 - x / ratio)
        row_out = (eps, row, bound, quad, float(xi.mean()),
                   float(xi.std(ddof=1) / math.sqrt(self.TRIALS)))
        # the validation seed list is fixed by (seed, repeat, op) alone
        k = self.repeat.get(op[:2], 0)
        name = STOCK[(ie * 3 + ir) % 2]
        t0 = time.perf_counter()
        rep = skycloak.planner.validate_solution(
            self.stock[name], self.plans[name], trials=self.TRIALS,
            rng=np.random.default_rng([2, self.seed, k, ie, ir]))
        return row_out, name, rep, time.perf_counter() - t0

    def record(self, op, outcome) -> None:
        key = op[:2]
        self.repeat[key] = self.repeat.get(key, 0) + 1
        if isinstance(outcome, Exception):
            self.errors[key[0] * 3 + key[1]] = [f"{type(outcome).__name__}: {outcome}"]
            return
        row, name, rep, seconds = outcome
        self.rows.setdefault(key, []).append(row)
        self.validations.append((key, name, rep, seconds))

    def finish(self, times: dict) -> dict:
        failures = {}
        for key, rows in self.rows.items():
            errs = _dep_row_failures(*rows[0][2:])
            if any(r != rows[0] for r in rows[1:]):
                errs.append("DEP row differs between repeats")
            if errs:
                failures[key[0] * 3 + key[1]] = errs
        sound = {name: _worst_residual(self.stock[name], plan) <= RESIDUAL_TOL
                 for name, plan in self.plans.items()}
        for name, ok in sound.items():
            if not ok:
                failures[name] = [f"stock plan {name} breaks a constraint"]
        rejected = sum(1 for _, name, rep, _ in self.validations
                       if sound[name] and not rep.covert_pass)
        checked = sum(1 for _, name, _, _ in self.validations if sound[name])
        for msg in stock_oracle_check(self.stock,
                                      {n: p.Rb for n, p in self.plans.items()}):
            failures.setdefault("oracle", []).append(msg)
        ratios = [rate_ratio(p.Rb, _oracle(self.stock[n]))
                  for n, p in self.plans.items()]

        per_op = [op_time(t) for i, t in times.items() if i not in self.errors]
        n_val = len(self.validations)
        report = {
            "dep_rows_per_s": len(per_op) / sum(per_op),
            "dep_op_p50_s": statistics.median(per_op),
            # two fading draws per trial (warden and Bob), wall clock
            "mc_draws_per_s": 2 * sum(r.trials for _, _, r, _ in self.validations)
            / sum(t for _, _, _, t in self.validations),
            "validate_false_fail_rate": rejected / checked if checked else None,
            "validations": n_val, "validations_rejected": rejected,
            "rows": len(per_op),
        }
        return {"wrong": failures, "errors": self.errors, "report": report,
                "rate_vs_oracle": statistics.fmean(r for r in ratios if r is not None)}


WORKLOADS = {
    "plan-bcd": lambda: PlanWorkload((0.01, 0.1, 1.0), 24),
    "plan-cancel": lambda: PlanWorkload((0.0,), 24),
    "dep-mc": DepMcWorkload,
}
