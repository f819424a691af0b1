"""Spans and counters around the public names of each skycloak layer.

The tracer wraps functions from outside: the wrapper replaces the function
in every ``skycloak`` module namespace that binds it, so calls are seen
wherever they are looked up (``skycloak.planner.solve_lp`` as well as
``skycloak.solvers.solve_lp``). A name that no longer exists is reported
as absent and skipped. Each span records its name, start, end and parent;
spans stay in memory and are written out when the run ends. A layer's
self time is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

# (module, function, extra counter) for every traced public name
SPANNED = [
    ("scenario_io", "load_scenario", None),
    ("channel", "sample_sr_power", "draws"),
    ("channel", "sr_pdf", "points"),
    ("channel", "sr_cdf", None),
    ("channel", "uav_gain", None),
    ("detection", "avg_min_dep_quadrature", None),
    ("detection", "avg_min_dep_lower_bound", None),
    ("detection", "phi_inverse", None),
    ("solvers", "solve_lp", None),
    ("solvers", "max_slack_point", None),
    ("solvers", "dinkelbach", "rounds"),
    ("planner", "bcd_optimize", "outer_iters"),
    ("planner", "placement_subproblem", "moved"),
    ("planner", "power_subproblem", None),
    ("planner", "perfect_cancellation_optimize", None),
    ("planner", "constraint_residuals", None),
    ("planner", "validate_solution", "trials"),
    ("cli", "cmd_optimize", None),
]
CONSTRAINT_METHODS = ("value", "interior", "margin")
CONSTRAINT_EVALS = "solvers.constraint_evals"


def _extra_count(kind: str, args: dict, out) -> float:
    if kind == "draws":
        size = args.get("size")
        if size is None:
            return 1.0
        return float(math.prod(size) if isinstance(size, tuple) else size)
    if kind == "points":
        x = args.get("x")
        return float(getattr(x, "size", 1))
    if kind == "rounds":
        return float(out.iterations)
    if kind == "outer_iters":
        return float(max(0, len(out.trace) - 1))
    if kind == "moved":
        return 0.0 if out is args.get("q0") else 1.0
    if kind == "trials":
        return float(args.get("trials"))
    raise ValueError(kind)


class Tracer:
    """Wraps the traced names on ``install`` and restores them on
    ``uninstall``; records only while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans = []                 # (id, parent id or -1, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []                # [span id, child time]
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "skycloak" or name.startswith("skycloak.")}
        for modname, fname, kind in SPANNED:
            home = mods.get(f"skycloak.{modname}")
            orig = getattr(home, fname, None) if home is not None else None
            if orig is None:
                self.absent.append(f"{modname}.{fname}")
                continue
            wrapper = self._spanned(f"{modname}.{fname}", orig, kind)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        solvers = mods.get("skycloak.solvers")
        classes = [c for c in vars(solvers).values()
                   if inspect.isclass(c) and c.__module__ == solvers.__name__
                   and c.__name__.endswith("Constraint")] if solvers else []
        if not classes:
            self.absent.append(CONSTRAINT_EVALS)
        for cls in classes:
            for meth in CONSTRAINT_METHODS:
                orig = cls.__dict__.get(meth)
                if orig is not None:
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._counted(orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn, kind):
        sig = inspect.signature(fn) if kind else None
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, 0.0]
            tracer.spans.append(None)   # reserve the id; filled on exit
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans[sid] = (sid, parent, name, t0, t1)
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
            if kind:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.extra[f"{name}.{kind}"] += _extra_count(
                    kind, bound.arguments, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[CONSTRAINT_EVALS] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Plain-dict aggregate: calls, self time, extra counts, counters."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "extra": dict(self.extra), "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        """Write the spans, one JSON object a line."""
        with open(path, "w") as f:
            for sid, parent, name, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": t0, "end": t1}) + "\n")

