"""Host-speed calibration for the timed metrics.

The benchmark runs on shared hosts whose speed changes by up to half
within seconds, as other tenants come and go: a fixed Python loop on a
2-vCPU VM took 15 ms or 23 ms per run depending on the moment, and kept
either speed for a few seconds to tens of seconds. A time measured in
seconds then says as much about the host as about the program, and no
median over a 15-second run removes a level that lasts that long.

So the benchmark times a fixed calibration kernel right before and right
after each short group of program calls, and scales each call's time to
a nominal host speed:

    slowdown    = mean kernel time around the call / NOMINAL_S
    scaled time = measured time / slowdown

A slower host stretches the program and the kernel alike, and the ratio
stays put. The kernels live here and never call ``f4search``, so a change
to the program moves the scaled figures exactly as it moves the raw ones;
only the host's speed cancels. ``NOMINAL_S`` is about each kernel's time
on the 2-vCPU Xeon VM the benchmark was written on when its host was
quiet, so scaled figures read as seconds on that host at that speed. The
constants are fixed: changing them rescales every timed figure.

There are two kernels, for the two kinds of work in the workloads:

* ``python``: interpreter and small-object work, like the ranking,
  encoding, re-ranking and HTTP code: clamp a list of floats, sort
  indices by a tuple key, build a tuple of pairs.
* ``scan``: a float32 matrix-vector product over 8 MiB, like the cosine
  scan over a large index, whose working set does not stay in the core's
  own caches. Memory-bound work slows less than interpreter work when the
  host is busy, so it needs a kernel of its own.

The garbage collector is off while the kernel runs, so the program's heap
does not change the kernel's time.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Kernel time on a quiet 2-vCPU Xeon VM (Python 3.11, numpy 2.4, OpenBLAS).
NOMINAL_S = {"python": 0.002, "scan": 0.001}


class Calibration:
    """Times one kernel on demand and keeps every sample's slowdown."""

    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        n = 2000
        self._ids = [f"c{i:05d}" for i in range(n)]
        self._scores = [float(x) for x in rng.uniform(-1.1, 1.1, n)]
        if kind == "scan":
            self._rows = rng.standard_normal((8192, 256)).astype(np.float32)
            self._q = rng.standard_normal(256).astype(np.float32)
        self._kernel = self._python if kind == "python" else self._scan
        # Slowdown of each sample: kernel time / nominal.
        self.samples: list[float] = []

    def _python(self):
        ids = self._ids
        clamped = [min(1.0, max(-1.0, s)) for s in self._scores]
        order = sorted(range(len(ids)), key=lambda i: (-clamped[i], ids[i]))
        return tuple((ids[i], clamped[i]) for i in order)

    def _scan(self):
        return np.einsum("ij,j->i", self._rows, self._q)

    def sample(self) -> float:
        """Time the kernel once; record and return the slowdown."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        s = elapsed / NOMINAL_S[self.kind]
        self.samples.append(s)
        return s

    def slowdown(self, first: int = 0) -> float:
        """Median slowdown of the samples from ``first`` on."""
        return statistics.median(self.samples[first:])
