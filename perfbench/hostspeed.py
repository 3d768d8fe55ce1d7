"""Host speed probe: a fixed piece of work that runs no whframe code.

On a shared host, other tenants' load slows every process, in bursts of
milliseconds whose density changes over minutes, so the same op can take
half as long again in one run as in another. The probe runs after every
op, untimed by it, so it samples the host's load at the same moments as
the ops. Its mean time in a run, against REF_MS, is the run's host
factor, and the end-to-end times are scaled by it to the reference speed.

The probe mixes what a whframe op does: a dense Hermitian eigensolve, an
FFT and an interpreted Python loop. It uses only numpy and fixed inputs,
so a change to whframe cannot change its time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Mean probe time, in ms, on the reference host: a shared 2-CPU x86-64 VM
# under its usual load, with numpy 2.4 on OpenBLAS, one BLAS thread and
# Python 3.11.
REF_MS = 3.7


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.h = a @ a.conj().T
        self.x = rng.standard_normal(4096)
        self.times: list[float] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        np.linalg.eigvalsh(self.h)
        np.fft.fft(self.x)
        s = 0.0
        for i in range(20000):
            s += i * 0.5
        self.times.append(time.perf_counter() - t0)

    def mean_ms(self) -> float:
        return statistics.fmean(self.times) * 1000

    def factor(self) -> float:
        """Reference speed over this run's speed: multiply a time by it."""
        return REF_MS / self.mean_ms()
