"""Machine-speed probe for a shared, noisy host.

On a machine whose neighbours load the same cores, one study's wall time
moves by 20-40% over minutes while the program stays the same (the
unscaled figures in baseline.json show it).  The probe is a fixed piece
of work of the kinds ddcauchy spends its time on (a Python dict/tuple
loop like the band refiner, numpy element arrays like assembly, a sparse
LU with solves and products like the Riesz preconditioner, a small dense
generalized eigenproblem like the spectrum).  It shares no code with
ddcauchy and the benchmark runs it on a collected heap, so a change to
the program reaches it only through the allocator's and the caches'
state.  The benchmark runs it between studies and between set-ups and
scales each wall time by ``REFERENCE_PASS_S`` over the probe's wall pass
time around it, each CPU time by ``REFERENCE_CPU_PASS_S`` over its CPU
pass time: the result reads as the time on this machine when the probe
runs in its reference time.
"""

from __future__ import annotations

from time import perf_counter, process_time

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# About the median pass wall and CPU time (two BLAS threads) on the
# reference machine (see README.md); constants, so scaled times of two
# commits compare directly.
REFERENCE_PASS_S = 0.07
REFERENCE_CPU_PASS_S = 0.14


class Probe:
    """Fixed inputs and one timed pass over them."""

    def __init__(self):
        n = 50
        ones = np.ones(n)
        lap = sp.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], [-1, 0, 1])
        eye = sp.identity(n)
        self.lap = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((20000, 3, 2))
        a = rng.standard_normal((160, 160))
        self.sym = a + a.T
        self.spd = a @ a.T + 160.0 * np.eye(160)

    def one_pass(self) -> tuple:
        """(wall, CPU) seconds of one pass."""
        cpu0, start = process_time(), perf_counter()
        table = {}
        for i in range(40000):
            key = (i % 997, i % 1009)
            table[key] = table.get(key, 0) + i
        p = self.points
        for _ in range(4):
            g = np.einsum("mia,mjb->mij", p, p)
            r = np.hypot(p[..., 0], p[..., 1])
            np.where(r > 1.0, np.sqrt(np.abs(g[:, 0])), 0.0).sum()
        lu = spla.splu(self.lap)
        b = np.ones(self.lap.shape[0])
        for _ in range(30):
            b = self.lap @ lu.solve(b) * 0.5
        la.eigh(self.sym, self.spd, eigvals_only=True)
        return perf_counter() - start, process_time() - cpu0

    def measure(self, passes: int) -> tuple:
        """Mean (wall, CPU) seconds of ``passes`` passes."""
        times = [self.one_pass() for _ in range(passes)]
        return (sum(t[0] for t in times) / passes,
                sum(t[1] for t in times) / passes)
