"""Machine speed probe: a fixed slice of work timed after every op.

On a shared 2-core Xeon VM (2.0 GHz), identical ops drift by +-30% over
seconds to minutes, and CPU time tracks wall time: the host, not the
process, sets the pace.  No bound of 25% can hold over such drift, so
after every op, outside the op, the loop times a fixed slice that uses no
spindle code, and states each op's time at a reference speed: the op's
time times the reference slice time over the slice time measured right
after it.  A change to spindle cannot move the slice; a slow host slows
both.  The interpreter slice runs once untimed before its timed run, so
that its time depends on the host and not on what the op left in the
caches.  The array slice runs once, cold: like an mc_area op it faults in
a fresh result array, and the host's slow phases slow page faults too.

Interpreter-bound workloads get an interpreter slice; `mc_area`, which
streams megabyte arrays through numpy, gets an array slice, because the
host's slow phases hit the two kinds of work differently.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

ARRAY_SLICE = 1_000_000  # elements per array, as in an mc_area op
# seconds per timed slice on a quiet 2-core Xeon (2.0 GHz), Python 3.11,
# numpy 2.4
REFERENCE_SLICE_S = {"interpreter": 1.0e-3, "array": 6.5e-3}


class _P(NamedTuple):
    x: float
    y: float
    z: float


def _step(a: _P, b: _P, k: int) -> float:
    if k == 0:
        return math.hypot(b.x - a.x, b.y - a.y)
    d = a.x * b.x + a.y * b.y - a.z * b.z
    return math.acosh(max(-d, 1.0)) if k < 0 else math.asin(min(1.0, abs(d)))


def interpreter_slice() -> float:
    """Tuple construction, attribute reads, branches and libm calls."""
    s = 0.0
    a = _P(0.1, 0.2, 1.0)
    for i in range(600):
        s += _step(a, _P(0.3 + 1e-4 * i, -0.1, 1.05), i % 3 - 1)
    return s


def array_slice(stream: np.ndarray) -> int:
    """Elementwise passes over an array the size of an mc_area op's,
    faulting in a fresh result array as the op does."""
    x = stream * stream
    x += stream
    return int(np.count_nonzero(x <= 1.0))


SLICES = {"interpreter": interpreter_slice, "array": array_slice}


class Speedometer:
    def __init__(self, kind: str):
        self.kind = kind
        self.times: list[float] = []
        self._slice = SLICES[kind]
        self._args: tuple = ()
        if kind == "array":
            self._args = (np.random.default_rng(0).uniform(0.0, 1.0, ARRAY_SLICE),)

    def tick(self) -> None:
        if self.kind == "interpreter":
            self._slice()  # untimed: warms the caches the op has evicted
        t0 = time.perf_counter()
        self._slice(*self._args)
        self.times.append(time.perf_counter() - t0)

    def scale(self, i: int) -> float:
        """Reference speed over the speed measured after op i."""
        return REFERENCE_SLICE_S[self.kind] / self.times[i]

    def factor(self) -> float:
        """Reference speed over the run's mean speed."""
        return REFERENCE_SLICE_S[self.kind] * len(self.times) / sum(self.times)
