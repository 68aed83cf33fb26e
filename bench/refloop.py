"""Fixed reference loop that measures how fast this process runs right now.

The loop mixes what the measured program spends its time on: interpreter
work (arithmetic, dict and tuple traffic, small function calls) and many
NumPy calls on 16-element arrays.  It belongs to the benchmark alone, so no
change to the library can move it.  Dividing a measured time by the loop time
taken in the same process, around the same pass, cancels most of the drift
in machine speed between processes and between moments.
"""

from __future__ import annotations

import math
import time

import numpy as np

ITERATIONS = 3000
SAMPLE_LOOPS = 4


def _step(vec: np.ndarray, i: int) -> float:
    v = vec * (1.0 + (i % 7)) - 0.25
    return float(np.maximum(v, 0.0).sum()) + float(v.min())


def reference_loop_s() -> float:
    """Wall seconds taken by one run of the fixed loop."""
    vec = np.linspace(0.1, 1.6, 16)
    table: dict = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(ITERATIONS):
        acc += _step(vec, i)
        acc = math.log1p(acc) if acc > 1e6 else acc
        table[i % 97] = (acc, i, f"k{i % 13}")
    return time.perf_counter() - t0


def reference_sample_s() -> float:
    """Mean of SAMPLE_LOOPS back-to-back loops.

    On the shared 2-vCPU VM where the benchmark was built, machine speed
    switches between phases a few tenths of a second long; a mean over about
    0.1 s follows the average speed that a measured stretch of work sees
    better than any single loop does.
    """
    return sum(reference_loop_s() for _ in range(SAMPLE_LOOPS)) / SAMPLE_LOOPS
