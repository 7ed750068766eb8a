"""Machine-speed probe, so that timings read at one fixed machine speed.

The benchmark runs on a few cores of a shared host, where the same code
runs up to 1.7x slower in one minute than in the next (CPU time tracks
wall time, so the host, not the program, sets the pace).  ``probe()`` is
a fixed slice of the kind of work mbint does (numpy over a complex grid,
scalar ``math.lgamma`` and complex arithmetic) that never touches mbint.
The timed loop runs it every PROBE_EVERY_S and scales each call's wall
time by REFERENCE_MS / (the probes' local median), which is the call's
time on this host at its reference pace.  A change to mbint moves the
scaled times as it moves the raw ones; a change of the host's pace moves
the probe too and cancels.  The report keeps the raw times beside them.
"""

import math
import statistics
import time

import numpy as np

# near the probe's median on an Intel Xeon (2 vCPUs) in its fast spells;
# its medians ranged from 0.45 to 0.95 ms
REFERENCE_MS = 0.60
PROBE_EVERY_S = 0.02
PACE_SAMPLES = 25  # probes behind one pace_ms() reading

_GRID = np.linspace(0.1, 5.0, 256) + 0.3j


def probe():
    """The fixed slice of work; returns a value so none of it is dead."""
    s = 0j
    for k in range(10):
        y = np.exp(_GRID * (0.01 * k)) * np.sin(_GRID)
        s += complex(y.sum())
        for j in range(60):
            s += math.lgamma(1.5 + j * 0.01) + abs(complex(j, 1.0) ** 0.5)
    return s


def timed_probe(clock=time.perf_counter_ns):
    """(start_ns, duration_ms) of one probe."""
    t0 = clock()
    probe()
    return t0, (clock() - t0) * 1e-6


def pace_ms(samples=PACE_SAMPLES):
    """Median probe time over ``samples`` probes run now."""
    return statistics.median(timed_probe()[1] for _ in range(samples))


def local_pace(probes, t_ns):
    """Median of the three probes around time ``t_ns``: the last two that
    started before it and the first after.  ``probes`` is a time-ordered
    list of (start_ns, duration_ms) whose first entry precedes every
    call."""
    lo, hi = 0, len(probes)
    while lo < hi:
        mid = (lo + hi) // 2
        if probes[mid][0] <= t_ns:
            lo = mid + 1
        else:
            hi = mid
    window = probes[max(0, lo - 2):lo + 1]
    return statistics.median(d for _, d in window)
