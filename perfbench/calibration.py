"""Machine-speed calibration for the benchmark's timings.

The shared 2-core machine this benchmark was tuned on drifts in speed by
up to 2x over seconds to minutes (the same plan took 0.54 to 1.05 s,
with CPU time equal to wall time), so raw times of one run say as much
about the neighbours as about the program. Before each timed operation
the benchmark times a fixed kernel that has nothing to do with skycloak,
a small log-barrier Newton loop over Python constraint objects (the same
mix of interpreter work and tiny numpy calls as the planner), and scales
the operation's wall time by ``REFERENCE_S / kernel time`` (see
``Clock``). A time is thus reported in seconds at the speed where the
kernel takes ``REFERENCE_S``, roughly this machine's fast state. Five
plan-bcd runs gave a median plan time between 0.151 and 0.299 s raw and
between 0.147 and 0.162 s scaled.

That kernel does not follow the cost of starting a fresh interpreter
(loading the interpreter, reading and unmarshalling modules, linking
extension modules), so the start-up part of a fresh process's time is
scaled by a second kernel: the wall time of a bare ``python -c pass``
(``start_seconds``), at reference ``START_REFERENCE_S``. Thirty blocks
of seven plan-bcd set-up probes, taken over four minutes, gave block
medians with a quartile spread of 35% raw and 3% scaled by the bare
start; forty such blocks scaled by the in-process kernel spread 20%.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.008
START_REFERENCE_S = 0.036


class _Ball:
    def __init__(self, center, radius):
        self.c, self.r = np.asarray(center, dtype=float), float(radius)

    def value(self, x):
        d = x - self.c
        return float(d @ d) - self.r * self.r

    def grad(self, x):
        return 2.0 * (x - self.c)

    def interior(self, x):
        return self.value(x) < 0.0


_BALLS = [_Ball(c, 3.0) for c in np.random.default_rng(0).uniform(-1.0, 1.0, (12, 3))]
_OBJ = np.array([1.0, 0.5, -0.3])


def _kernel() -> None:
    x, t = np.zeros(3), 1.0
    for _ in range(6):
        for _ in range(8):
            vals = [b.value(x) for b in _BALLS]
            g, H = -t * _OBJ, np.zeros((3, 3))
            for b, v in zip(_BALLS, vals):
                gi = b.grad(x)
                g = g + gi / -v
                H += np.outer(gi, gi) / (v * v) + 2.0 * np.eye(3) / -v
            np.linalg.cholesky(H)
            step = np.linalg.solve(H, -g)
            a = 1.0
            while not all(b.interior(x + a * step) for b in _BALLS):
                a *= 0.5
            x = x + a * step
        t *= 4.0


def kernel_seconds() -> float:
    """The kernel's wall time now (best of two runs)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def start_seconds() -> float:
    """Wall time of a bare interpreter start now (best of two runs)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls, and the polling interval
        # would show in the reading
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       stdin=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Wall times of operations with a kernel reading before each one.

    A sample is scaled by ``REFERENCE_S`` over the median of three
    readings: the one before it, the one before that and the one after.
    The median follows the machine's drift but not a momentary burst that
    one short reading happens to catch.
    """

    def __init__(self):
        self.readings = []
        self.samples = []               # (key, wall seconds, reading index)
        self._final = None

    def time(self, key, fn, *args):
        self.readings.append(kernel_seconds())
        t0 = time.perf_counter()
        out = fn(*args)
        self.samples.append((key, time.perf_counter() - t0, len(self.readings) - 1))
        return out

    def wall(self) -> dict:
        out = {}
        for key, dt, _ in self.samples:
            out.setdefault(key, []).append(dt)
        return out

    def scaled(self) -> dict:
        """Samples at reference speed, keyed like ``wall``."""
        if self._final is None:
            self._final = kernel_seconds()
        readings = self.readings + [self._final]
        out = {}
        for key, dt, k in self.samples:
            c = sorted(readings[max(0, k - 1):k + 2])
            out.setdefault(key, []).append(dt * REFERENCE_S / c[len(c) // 2])
        return out
