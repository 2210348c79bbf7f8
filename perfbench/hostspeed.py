"""Host speed, sampled during a pass, to scale wall time to a reference speed.

The benchmark runs on a few cores of a shared host.  How fast those cores run
changes by 30% and more within seconds and for tens of seconds at a time,
with CPU time equal to wall time: other tenants contend for the same physical
cores and caches.  Longer runs cannot average that away, because the slow and
the fast phases last as long as a run.

``Sampler`` therefore runs a fixed reference kernel every ``PERIOD_S`` seconds
while a pass runs, from a SIGALRM handler in the main thread, and records the
kernel's CPU time.  The kernel does, in four parts, the kinds of work the
program does: exact ``Fraction`` arithmetic in dicts (trees, series), many
small numpy calls (matrixproc), arithmetic on cache-sized vectors
(exp_functional_samples) and normals over a larger block (hyperbolic_radial).
It touches none of the program's state, so the outputs, and their digests,
do not change.

A pass's wall time at reference speed is its wall time, less the time spent
in the handler, times the host speed: ``KERNEL_REF_S`` over the mean kernel
time of the pass.  ``KERNEL_REF_S`` is a fixed constant, so two commits
measured on one host compare directly, and a change to the program cannot
move the kernel.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.25
# mean kernel CPU time on the host the benchmark was tuned on (2-CPU Xeon VM, 2.1 GHz)
KERNEL_REF_S = 0.020

# The kernel writes into fixed buffers: it allocates no large arrays, so its
# cost does not depend on the program's heap, and it adds a constant to the
# peak memory, not a varying one.
_STEP = np.eye(4) + 0.01 * np.arange(16.0).reshape(4, 4) / 16.0
_VEC = np.linspace(0.0, 1.0, 50_000)
_VEC_OUT = np.empty_like(_VEC)
_RNG = np.random.Generator(np.random.Philox(2024))
_DBETA = np.empty((80, 2048))
_INTEGRALS = np.empty((80, 2048))


def _exact() -> float:
    """Fraction arithmetic in dicts, like trees and series."""
    third, two = Fraction(1, 3), Fraction(2, 3)
    dist = {(0, 0): Fraction(1)}
    for _ in range(17):
        nxt = {}
        for (x, top), mass in dist.items():
            for y, p in ((x - 1, third), (x + 1, two)):
                key = (y, max(top, y))
                nxt[key] = nxt.get(key, Fraction(0)) + mass * p
        dist = nxt
    return float(sum(dist.values()))


def _small() -> float:
    """Many numpy calls on 4 x 4 matrices, like matrixproc."""
    m = np.eye(4)
    for _ in range(1_000):
        m = m @ _STEP
        m /= np.abs(m).max()
    return float(m.sum())


def _vector() -> float:
    """Arithmetic on cache-sized vectors, like exp_functional_samples."""
    acc = 0.0
    for _ in range(20):
        np.cumsum(_VEC, out=_VEC_OUT)
        np.multiply(_VEC_OUT, 1e-4, out=_VEC_OUT)
        acc += float(np.exp(_VEC_OUT, out=_VEC_OUT).sum())
    return acc


def _block() -> float:
    """Normals and cumulative sums over a 1.3 MiB block, like hyperbolic_radial."""
    _RNG.standard_normal(out=_DBETA)
    np.cumsum(_DBETA, axis=1, out=_INTEGRALS)
    return float(np.einsum("ij,ij->j", _INTEGRALS, _INTEGRALS).sum())


PARTS = (_exact, _small, _vector, _block)


def kernel() -> list:
    """CPU time of each part; about 20 ms in all on the reference host."""
    out = []
    for part in PARTS:
        c0 = time.thread_time()
        part()
        out.append(time.thread_time() - c0)
    return out


class Sampler:
    """Times ``kernel`` now and every PERIOD_S seconds until ``stop``.

    ``kernel_s`` holds the CPU time of each part of each sample, ``handler_s``
    the wall time the samples took out of the pass.
    """

    def __init__(self):
        self.kernel_s: list = []
        self.handler_s = 0.0

    def _sample(self, *_):
        w0 = time.perf_counter()
        self.kernel_s.append(kernel())
        self.handler_s += time.perf_counter() - w0

    def start(self) -> None:
        self._sample()  # taken before the pass starts, so it costs the pass nothing
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Host speed relative to the reference host: above 1 is faster."""
        return KERNEL_REF_S / (sum(map(sum, self.kernel_s)) / len(self.kernel_s))
