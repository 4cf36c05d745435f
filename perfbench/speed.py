"""A machine-speed reference timed at several points of every run.

The shared 2-vCPU machine the bounds were set on ran about 1.8x slower
for an hour and then fast again, with its neighbours' load.  The period
moved B8, B64, the CLI and the server's CPU per request by the same
factor as this reference kernel: a pure-Python loop and a NumPy pass over
32 MiB, combined by geometric mean.  The kernel belongs to the benchmark,
not the program, so no change to the program can move it.  End-to-end
timings are reported at the reference speed: the raw time multiplied by
``NOMINAL_S / median(samples)``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median reference time inside a run on the machine the bounds were set
#: on, in a calm period (2 vCPUs at 2.0 GHz).
NOMINAL_S = 0.053

_LOOP = 400_000
_WORDS = 1 << 22


class SpeedReference:
    """Samples of the reference kernel taken during one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._buf = np.arange(_WORDS, dtype=np.uint64)

    def sample(self) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(_LOOP):
            x += (i * i) % 7
        loop = time.perf_counter() - t0
        t0 = time.perf_counter()
        a = self._buf
        for _ in range(6):
            a = (a ^ (a >> np.uint64(3))) + np.uint64(1)
        self.samples.append(math.sqrt(loop * (time.perf_counter() - t0)))

    @property
    def scale(self) -> float:
        """The factor that turns a raw time of this run into reference-speed time."""
        return NOMINAL_S / statistics.median(self.samples)
