"""Host-speed calibration: timings in seconds at a fixed reference speed.

The benchmark runs on shared virtual machines whose speed moves by a third
within a few seconds, and process CPU time moves with it, so raw latencies
of the same op in two runs can differ by more than any bound worth setting.
A fixed reference kernel -- an interpreter loop, elementwise numpy on an
L2-sized array and small matrix products, none of it isingrg code -- slows
down with the host in step: over 2-second windows its time spread as much
as ``s_hat``, ``cascade_abs2`` and ``partition_brute`` did (interquartile
range ~0.3 of the median), while their ratios to it spread 0.03-0.07.

``sample`` times the kernel a few times and returns the median.  The worker
samples it before the first op and after every op, and a ``Sampler`` takes
further samples on a timer while an op runs; ``Sampler.clock`` leaves the
time of those samples out of the op's latency.  An op's latency is then
scaled by the mean of ``REF_S / sample`` over the samples from its start
to its end: the result reads as the op's seconds on a host where the kernel
takes ``REF_S``.  A change to isingrg moves the op's time and not the
kernel's, so it shows in full.  Raw latencies are kept in the run's details.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

# median kernel time on the 2-core VM the baseline was measured on; a unit
# convention, fixed so that runs of any commit are comparable
REF_S = 0.0043
REPS = 5
# samples while an op runs: every TICK_S of wall time, TICK_REPS kernels each
TICK_S, TICK_REPS = 0.3, 3

_RNG = np.random.default_rng(20240407)
_VEC = _RNG.normal(size=16384)
_MAT = _RNG.normal(size=(96, 96))


def kernel() -> float:
    """The reference work: about 4 ms on the reference VM."""
    s = 0
    for i in range(30000):
        s += i * i
    y = _VEC
    for _ in range(4):
        y = np.cos(y) * np.exp(-0.5 * y * y) + _VEC
    z = _MAT
    for _ in range(3):
        z = np.tanh(z @ _MAT * 0.01)
    return s + float(y.sum()) + float(z.sum())


def sample(reps: int = REPS) -> float:
    """Median seconds of ``reps`` runs of the kernel, now.

    The timer's signal is held back meanwhile, so that a sample taken on the
    timer never lands inside another.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    return statistics.median(times)


def scale(samples: List[float]) -> float:
    """Factor turning seconds spanned by ``samples`` into reference seconds."""
    return sum(REF_S / s for s in samples) / len(samples)


class Sampler:
    """Host-speed samples taken every ``TICK_S`` while ops run.

    ``start`` arms a wall-clock interval timer whose handler runs in the main
    thread at its next bytecode boundary and samples the kernel there.
    """

    def __init__(self):
        self.samples: List[float] = []
        self._spent = 0.0
        self._previous = None

    def clock(self) -> float:
        """``perf_counter`` less the time spent sampling on the timer."""
        return time.perf_counter() - self._spent

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.samples.append(sample(TICK_REPS))
        self._spent += time.perf_counter() - t

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def take(self) -> List[float]:
        """The samples since the last ``take``."""
        out, self.samples = self.samples, []
        return out
