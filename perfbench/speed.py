"""Host-speed sampling, so that timings do not drift with the host.

On a shared host the CPU's speed drifts by tens of percent over seconds to
minutes, and a whole run can fall into a slow or a fast phase. While a
command runs, a SIGALRM handler times a fixed reference kernel every
``INTERVAL`` seconds. The kernel is the program's own mix in miniature:
interpreter work and numpy calls on arrays small enough to stay in the
L1 cache, so its time follows the core's speed and not the cache state the
command leaves behind. A wall time is reported at the reference speed:
the handler's own time is taken off, and the rest is scaled by
``REFERENCE`` over the kernel's median time during the command.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02       # seconds between samples
REFERENCE = 2.0e-4    # seconds per kernel run at the reference speed

_U = np.arange(16.0)
_V = np.ones(16)


def kernel():
    """One run of the reference kernel; returns its time."""
    start = time.perf_counter()
    x = 0
    for i in range(1000):
        x = (x * 31 + i) & 0xFFFF
    for _ in range(20):
        w = _U * 0.5 - _V
        float(w @ w)
    return time.perf_counter() - start


class SpeedMeter:
    """Context manager around one timed region; ``normalise`` turns a wall
    time measured inside it into seconds at the reference speed."""

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.spent = [kernel()], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(kernel())

    def normalise(self, wall):
        typical = statistics.median(self.samples)
        return (wall - self.spent) * REFERENCE / typical
