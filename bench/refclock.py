"""Reference clock: puts every measured time on one machine speed.

The speed of a small shared machine drifts by tens of percent within a
minute, and the drift moves all code alike.  So the benchmark times a fixed
piece of reference code next to the ops, often enough to follow the drift,
and reports each time multiplied by ``nominal / local reference time``: the
time the op would have taken while the reference ran at its nominal speed.
The reference code lives here and never calls the program, so a change to
the program moves the scaled times and leaves the reference alone.

Two references, one per kind of work:

``kernel``   in-process: a small Newton loop in numpy, the same mix of
             interpreter work and small array calls as the solver
``startup``  a fresh interpreter that imports numpy, for work that starts
             processes (CLI commands, set-up in a fresh interpreter); a bare
             ``python -c pass`` tracks them worse, because under load process
             creation slows more than module loading does

The local reference time of a moment is the median of the samples taken
within ``WINDOW_S`` of it (the nearest sample when there is none).
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

#: seconds the reference takes at nominal speed (about its median on a
#: 2-core x86-64 VM with Python 3.11 and numpy 2.4)
NOMINAL_S = {"kernel": 1.5e-3, "startup": 0.2}
#: half-width of the window of samples that gives the local reference time
WINDOW_S = {"kernel": 0.3, "startup": 1.0}
#: the reference is sampled before an op once this much time has passed
EVERY_S = {"kernel": 0.05, "startup": 0.5}

_A = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1],
               [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 5.0]])


def kernel() -> float:
    """Fixed damped Newton steps on a 4-variable system."""
    x = np.linspace(0.5, 1.5, 4)
    total = 0.0
    for _ in range(60):
        g = np.exp(-x) - 0.3 + _A @ x * 1e-3
        x = x - 0.5 * np.linalg.solve(_A + np.diag(np.exp(-x)), g)
        total += sum(float(v) for v in x)
    return total


def sample(kind: str) -> float:
    """One timing of the reference, in seconds."""
    t0 = time.perf_counter()
    if kind == "kernel":
        kernel()
    else:
        # piped like the CLI children, so the end is seen when the pipes close
        subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                       check=True, timeout=30)
    return time.perf_counter() - t0


def factor(samples: list[tuple[float, float]], t: float, kind: str) -> float:
    """nominal / local reference time at moment t; samples are (moment, time), sorted."""
    moments = [m for m, _ in samples]
    lo = bisect.bisect_left(moments, t - WINDOW_S[kind])
    hi = bisect.bisect_right(moments, t + WINDOW_S[kind])
    if lo < hi:
        local = statistics.median(v for _, v in samples[lo:hi])
    else:
        local = min(samples, key=lambda s: abs(s[0] - t))[1]
    return NOMINAL_S[kind] / local
