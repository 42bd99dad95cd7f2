"""Host-speed calibration for timings taken on a shared machine.

On a host whose other tenants share the CPU, the same Python code runs
20-40 % slower or faster from one second to the next, in CPU time as much
as in wall time.  The benchmark therefore runs a fixed kernel between
items, about every ``EVERY_S`` seconds, and scales each timing by
``REFERENCE_S / k``, where ``k`` is the median kernel time of the samples
taken within ``WINDOW_S`` of it.  A scaled time reads as the time the work
would take on a host where the kernel takes ``REFERENCE_S``.

The kernel is a transitive closure over a set of integer pairs, the kind of
hashing and allocation the checker spends its time on, so it slows down
with the checker when the host is busy.  It is the benchmark's own code and
calls nothing in ``persistcheck``, so a change to the checker moves scaled
times exactly as it moves raw ones.
"""

import bisect
import statistics
from time import perf_counter

#: Kernel time on an unloaded 2-CPU host (Python 3.11) the benchmark was
#: defined on; it only fixes the unit of the scaled times.
REFERENCE_S = 0.0035
EVERY_S = 0.1
WINDOW_S = 0.5


def kernel():
    n = 40
    rel = {(i, i + 1) for i in range(n)} | {(i, i + 3) for i in range(0, n, 4)}
    while True:
        succ = {}
        for a, b in rel:
            succ.setdefault(a, set()).add(b)
        new = {(a, c) for a, b in rel for c in succ.get(b, ())}
        if new <= rel:
            return len(rel)
        rel = rel | new


class Calibration:
    """Kernel samples taken between timed work, in time order."""

    def __init__(self):
        self.mids = []
        self.samples = []

    def sample(self):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def due(self):
        """Sample if the last sample is older than EVERY_S."""
        if not self.mids or perf_counter() - self.mids[-1] >= EVERY_S:
            self.sample()

    def factor(self, t0, t1):
        """REFERENCE_S over the median kernel time of the samples taken
        within WINDOW_S of the interval [t0, t1]."""
        lo = bisect.bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW_S)
        window = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return REFERENCE_S / statistics.median(window)
