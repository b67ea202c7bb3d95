"""Host-speed probe: rescales a measured time to a fixed machine speed.

On a shared host the same sweep takes anywhere from its fastest time to about
1.5 times that, depending on what other tenants run on the same physical
cores at the moment.  The slow spells come and go within a second and last
for minutes as well, so neither longer runs nor medians over runs remove
them.  A probe does: while a timed call runs, an interval timer interrupts it
every ``INTERVAL_S`` and runs a fixed kernel that does the same kind of work
as the workload's hot loop.  The kernel's mean time over the call tracks how
fast the host ran the program during it (perfbench/README.md gives the
measured agreement).  A time is reported as

    (wall time - time spent in the kernel) * reference / mean kernel time

that is, in seconds at the host speed at which one kernel takes its
``reference``.  A program that does less work reads less; a slow spell on
the host does not move it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: Seconds between kernel samples inside a timed call.
INTERVAL_S = 0.05
#: Kernel samples taken right before and right after a timed call, so a call
#: that holds the interpreter throughout still gets a speed reading.
BRACKET = 5

_SMALL = np.random.default_rng(0).random((16, 16)) + 0j
_LARGE = np.random.default_rng(1).random((256, 256)) + 0j


def small_kernel() -> float:
    """Seconds of 16 x 16 complex products and interpreter work, the mix of
    fig2_left's faithful sub-steps at d = 16 (and of sbqs set-up)."""
    t0 = perf_counter()
    x = _SMALL
    for _ in range(40):
        x = _SMALL @ x
        x = x / np.abs(x).max()
    s = 0
    for i in range(3000):
        s += i
    return perf_counter() - t0


def blas_kernel() -> float:
    """Seconds of one 256 x 256 complex product, ising8_bglobal's step size."""
    t0 = perf_counter()
    _LARGE @ _LARGE
    return perf_counter() - t0


#: name -> (kernel, its time at the reference speed).  The references are
#: about each kernel's time inside a sweep in the fast spells of a 2.1 GHz
#: Xeon VM with numpy 2.4 and OpenBLAS 0.3.31 on one thread.
KERNELS = {
    "small": (small_kernel, 4.0e-4),
    "blas": (blas_kernel, 1.5e-3),
}


class SpeedProbe:
    """``with SpeedProbe(name) as probe: call()``, then ``probe.scaled()``.

    Sampling uses SIGALRM; the previous handler is restored on exit."""

    def __init__(self, kernel: str, interval: float = INTERVAL_S):
        self.kernel, self.reference = KERNELS[kernel]
        self.interval = interval
        self.wall = 0.0
        self.in_call: list[float] = []
        self.bracket: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.in_call.append(self.kernel())

    def __enter__(self) -> SpeedProbe:
        self.bracket = [self.kernel() for _ in range(BRACKET)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.bracket += [self.kernel() for _ in range(BRACKET)]

    def kernel_mean(self) -> float:
        return statistics.fmean(self.in_call + self.bracket)

    def scaled(self) -> float:
        """The call's own time, in seconds at the reference speed."""
        return (self.wall - sum(self.in_call)) * self.reference / self.kernel_mean()
