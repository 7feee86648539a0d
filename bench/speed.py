"""Correction of task times for the machine's own speed drift.

On a shared host the same computation runs at varying speed: on a 2-vCPU
2.1 GHz VM, stretches of fractions of a second to seconds ran up to 1.9x
slower, and the spread of raw task times across otherwise identical runs
was 10-35%.  Such drift would swamp any change in the library, so the
benchmark times a fixed reference computation of its own every REF_EVERY_S
seconds and scales each task's latency by

    (REF_NOMINAL_S / mean of the references just before and after it) ** SENSITIVITY.

SENSITIVITY is how strongly the workloads' times follow the reference's.
The slope of log pass time on log reference time ranged from 0.68 to about
1.0 over the workloads and over two batches of ten runs each; 0.85 is the
compromise, and the correction leaves a spread of the end-to-end times
across ten seeds of about 3-13%, against 10-35% uncorrected.  The
reference calls nothing in ellipsegas, so a change to the library cannot
move it.
"""

from __future__ import annotations

import bisect
import math
from time import perf_counter

import numpy as np
from scipy.special import ive, jv

REF_NOMINAL_S = 0.0025      # typical time of the reference on that VM
REF_EVERY_S = 0.1
SENSITIVITY = 0.85


def reference_work() -> None:
    """A fixed mix of the instruction kinds the workloads run: an interpreter
    loop, numpy on tiny and on long arrays, and scipy Bessel calls."""
    s = 0.0
    for i in range(1500):
        s += math.sin(i * 1e-3) * 1.0001
    a, b = np.ones(3, complex), np.zeros(3, complex)
    for _ in range(150):
        a, b = a * (1.0001 + 1e-3j) - 0.5 * b, a
        np.abs(a).max()
    x = np.linspace(0.0, 1.0, 4000) + 0j
    for _ in range(4):
        x = np.exp(0.1j * x) * np.cos(x)
    for i in range(150):
        ive(1.5, 0.1 + 0.01 * i)
        jv(1.5, 0.3 + 1e-3j * i)


class SpeedProbe:
    """Timestamped reference timings and the correction factor they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        """Time the reference (best of two, against interrupts)."""
        best = math.inf
        for _ in range(2):
            t0 = perf_counter()
            reference_work()
            best = min(best, perf_counter() - t0)
        self.times.append(perf_counter())
        self.refs.append(best)

    def sample_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Correction for work done in [t0, t1]; needs a sample before t0
        and one after t1."""
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        ref = 0.5 * (self.refs[before] + self.refs[after])
        return (REF_NOMINAL_S / ref) ** SENSITIVITY
