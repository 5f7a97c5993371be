"""A fixed calibration kernel that measures how fast the host runs right now.

The host this benchmark was tuned on, a 2-vCPU VM, runs the same code up
to twice as slow for stretches of seconds to minutes, and thread CPU time
slows by the same factor: other tenants share the cores.  A stretch that
lasts a whole run moves every wall time of the run, and no choice of
sample (fastest, median) inside the run removes it.

So the benchmark times this kernel between tasks and reports each task at
the reference speed: its wall time times REFERENCE_S over the kernel's
time measured next to it.  The kernel mixes what the tasks do (small
complex Hermitian eigensolves, matrix products, Python object churn) and
never calls nclp, so a change to the library moves the reported times and
a change of host speed does not.  Its inputs are fixed, the same for every
workload and seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on the reference host (Intel Xeon at 2.0 GHz,
# Python 3.11, numpy 2.4 with OpenBLAS on one thread), run back to back
# outside a slow stretch.  It only sets the scale of the reported times.
REFERENCE_S = 1.1e-3
SIZES = (2, 3, 4, 6)
PER_SIZE = 4
ROUNDS = 4
WINDOW = 2          # kernel times on each side of a task that set its scale
SETUP_SAMPLES = 5   # kernel times that scale a set-up


class Yardstick:
    """Times the calibration kernel.  Build it before a layer trace is
    installed: it keeps its own reference to numpy's eigensolver, so the
    trace neither counts nor slows its calls."""

    def __init__(self):
        rng = np.random.default_rng(20261018)
        self._mats = []
        for n in SIZES:
            for _ in range(PER_SIZE):
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                self._mats.append(g @ g.conj().T)
        self._eigh = np.linalg.eigh

    def sample(self):
        """Wall time of one run of the kernel, in seconds."""
        start = time.perf_counter()
        acc = 0.0
        for _ in range(ROUNDS):
            for m in self._mats:
                w, v = self._eigh(m)
                acc += float(w[-1]) + float(abs(np.trace(v @ v.conj().T)))
            table = {i: (i, 0.5 * i) for i in range(200)}
            acc += len(table)
        if not acc > 0:
            raise RuntimeError("calibration kernel gave a non-positive checksum")
        return time.perf_counter() - start

    def scale(self):
        """REFERENCE_S over the median of SETUP_SAMPLES fresh kernel times."""
        return REFERENCE_S / statistics.median(self.sample() for _ in range(SETUP_SAMPLES))


def local_scales(cal):
    """Scale of each task from the kernel times around it.

    `cal` has one more entry than there are tasks: cal[i] was measured
    just before task i and cal[i + 1] just after it.  Task i is scaled by
    REFERENCE_S over the median of cal[i - WINDOW + 1 .. i + WINDOW], so a
    single kernel run that a short blip slowed does not set a task's scale.
    """
    return [REFERENCE_S / statistics.median(cal[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(len(cal) - 1)]
