"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed is not steady.
Measured on a 2-core VM: every loop below flips between a fast and a slow
state (the slow one 1.4 to 2 times slower) many times a second, and the
share of time spent slow ranged from a quarter to three quarters between
runs a few minutes apart, so the median round of the same workload moved
by up to 70 % from run to run.  Repetition inside a run cannot average
that away.  So timings are reported in *reference seconds*:

    measured seconds / mean slowness of the calibrations taken next to them

A calibration times three fixed loops that share no code with cpqsd, so a
change to the package cannot move them: a pure-Python integer loop, a loop
of numpy scalar arithmetic (what the interpreted kernels do) and sparse
matrix-vector products (what the spectral layer does), about 7, 3 and 7 ms.
Its slowness is the geometric mean, over the loops a workload names, of
each loop's time over its reference time REF.  A run takes one calibration
per CAL_EVERY_S seconds of timed work, right after the op that did that
work, and scales each round by the calibrations taken during it.  With
the Python and numpy-scalar loops for the Monte Carlo and log workloads
and the sparse loop alone for the exact chain (the loops whose times
correlate best with each workload's rounds), the run-to-run spread of
the median round fell from 16-36 % (unscaled, five seeds per workload) to
3.6-5.8 % (ten seeds per workload).
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse as sp

# Duration of each loop that defines one reference second: the loop's time
# in the fast state of a 2-core x86-64 VM with python 3.11 and numpy 2.4.
LOOPS = ("python", "numpy_scalar", "sparse")
REF = {"python": 0.0064, "numpy_scalar": 0.0032, "sparse": 0.0067}
CAL_EVERY_S = 0.25

_MASK = 0xFFFFFFFFFFFFFFFF


class Calibration:
    def __init__(self):
        # the size and row length of the depth-16 generator's CSR matrix
        rng = np.random.default_rng(0)
        n, per_row = 1 << 15, 16
        self._matrix = sp.csr_matrix(
            (rng.random(n * per_row), rng.integers(0, n, n * per_row, dtype=np.int32),
             np.arange(0, n * per_row + 1, per_row, dtype=np.int32)), shape=(n, n))
        self._vector = rng.random(n)

    @staticmethod
    def _python(n=25_000):
        t0 = time.perf_counter()
        x = 12345
        acc = 0.0
        for _ in range(n):
            x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
            acc += (x >> 11) * 1.1102230246251565e-16
        return time.perf_counter() - t0

    @staticmethod
    def _numpy_scalar(n=2_500):
        t0 = time.perf_counter()
        x = np.uint64(1)
        acc = 0.0
        with np.errstate(over="ignore"):
            for _ in range(n):
                x = x * np.uint64(6364136223846793005) + np.uint64(1442695040888963407)
                acc += float(x >> np.uint64(40))
        return time.perf_counter() - t0

    def _sparse(self, k=10):
        t0 = time.perf_counter()
        v = self._vector.copy()
        for _ in range(k):
            v = self._matrix @ v
            v /= v.sum()
        return time.perf_counter() - t0

    def sample(self):
        """Seconds taken by each loop: (python, numpy scalar, sparse)."""
        return (self._python(), self._numpy_scalar(), self._sparse())


def slowness(sample, loops=LOOPS):
    """How much slower than the reference the machine ran one sample: the
    geometric mean, over the chosen loops, of duration / REF[loop]."""
    ratios = [sample[LOOPS.index(name)] / REF[name] for name in loops]
    return math.prod(ratios) ** (1.0 / len(ratios))


def scale(samples, loops=LOOPS):
    """Factor taking measured seconds to reference seconds: one over the
    mean slowness of the calibration samples taken next to them."""
    return len(samples) / sum(slowness(s, loops) for s in samples)
