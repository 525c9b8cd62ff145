"""Machine-speed probe: a fixed NumPy/SciPy kernel, independent of cnls,
timed between measurements.

On a shared host the speed of a vCPU drifts by tens of percent within a
minute, and the probe follows it (correlation about 0.8 with classify times
on one vCPU).  ``scale`` returns NOMINAL over the mean probe time around the
interval just measured, so scaled timings are seconds on a machine where the
probe takes NOMINAL seconds.  A workload that keeps several vCPUs busy is
probed on as many: helper processes time the kernel at the same moment.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

#: probe seconds that scaled timings are expressed in
NOMINAL = 0.080


class _Kernel:
    """Vector arithmetic, a weighted dot product and a banded solve at
    n = 2000, the operation mix of one descent iteration."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 2000
        self.x, self.y, self.w = rng.random((3, n + 1))
        ab = np.zeros((2, n))
        ab[1] = 4.0
        ab[0, 1:] = -1.0
        self.factor = cholesky_banded(ab)

    def time(self):
        x, y, w, factor = self.x, self.y, self.w, self.factor
        t0 = time.perf_counter()
        for _ in range(1200):
            a = x * y
            a -= 0.5 * x
            float(np.dot(w, a * a))
            np.maximum(a, 0.0)
            cho_solve_banded((factor, False), a[:-1])
        return time.perf_counter() - t0


def _serve(conn):
    kernel = _Kernel()
    while conn.recv():
        conn.send(kernel.time())
    conn.close()


class SpeedProbe:
    """Probe on ``cpus`` vCPUs: this process plus ``cpus - 1`` helpers."""

    def __init__(self, cpus=1):
        self.kernel = _Kernel()
        self.factors = []
        self._helpers = []
        # fork, not spawn: spawn starts a resource-tracker process that
        # outlives the benchmark
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(cpus - 1):
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(theirs,))
                proc.start()
                theirs.close()
                self._helpers.append((proc, ours))
            self.sample()  # warm-up
            self.last = self.sample()
        except BaseException:
            self.close()
            raise

    def sample(self):
        for _, conn in self._helpers:
            conn.send(True)
        times = [self.kernel.time()] + [conn.recv() for _, conn in self._helpers]
        return sum(times) / len(times)

    def scale(self):
        """Scale factor for the interval since the previous call."""
        now = self.sample()
        factor = NOMINAL / (0.5 * (self.last + now))
        self.last = now
        self.factors.append(factor)
        return factor

    def close(self):
        for proc, conn in self._helpers:
            conn.send(False)
            conn.close()
            proc.join()
        self._helpers = []
