"""The machine's speed, from a fixed calibration kernel run next to the work.

On a shared cloud machine the CPU runs 30-70% slower in phases that last from
seconds to minutes (measured on a 2-CPU VM: no steal time, and CPU time slows
alike), so raw times from two sets of runs can differ by more than any usable
bound.  The benchmark therefore runs ``kernel`` right before every request
and before and after every set-up, and scales each time it reports by
``REF_S / k``, where ``k`` is the median kernel time measured around it: a
time in *reference seconds*, as it would read on a machine that runs the
kernel in ``REF_S``.  The kernel is the benchmark's own code, a pure-Python
loop and small complex numpy solves like the program's own mix, so a change
to the program moves the scaled times and leaves ``k`` alone.

In two stretches of 32-34 passes of one grid_scan input that crossed slow
phases, the pass time as measured spread 24-26% (IQR/median) and the scaled
one 3-6%.  Work that starts a process and imports (cli_cold's commands, the
set-ups) slows less than the kernel does, so in a slow phase its scaled time
reads somewhat low; over ten seeds cli_cold's scaled wall time still spread
7% against 20% as measured.  A fresh-process kernel (``python3 -c "import
numpy"``) tracked cli_cold better over one five-minute stretch, but on later
runs its times came in 25-50 ms steps, so it is not used.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel's time on the machine the bounds were set on, in a fast phase
#: (Intel Xeon, 2 vCPUs); it only sets the scale of the reported times.
REF_S = 0.75e-3

_A = np.random.default_rng(0).normal(size=(4, 4)) + 1j * np.eye(4)
_B = np.ones(4, dtype=complex)


def kernel():
    """One run of the calibration kernel; returns its seconds."""
    t = time.perf_counter()
    s = 0
    for i in range(4000):
        s += i * i
    d = {}
    for i in range(500):
        d[i] = str(i)
    for _ in range(40):
        np.linalg.solve(_A, _B)
        np.abs(_A).sum()
    return time.perf_counter() - t


def samples(n):
    return [kernel() for _ in range(n)]


def factor(kernel_s):
    """The scale for times measured next to the kernel times ``kernel_s``."""
    return REF_S / statistics.median(kernel_s)
