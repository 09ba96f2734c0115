"""Host-speed calibration: timings in seconds at a fixed reference speed.

The benchmark runs on a few CPUs of a shared host.  Other tenants slow
this process by up to about 2x for stretches of a second to minutes, in
CPU time as much as in wall time (contention for the core and its caches,
not lost time slices), so two runs of the same code can differ by more
than any change worth gating.

``HostClock`` times a fixed calibration ``kernel`` (numpy and plain Python,
no gielab code) every ``PERIOD_S`` seconds from a ``SIGALRM`` handler while
the workload runs.  The kernel's time over ``KERNEL_REF_S``, its time on
a quiet host, is the local slowdown.  ``reference()`` maps
``time.perf_counter`` stamps onto a clock that runs at the reference speed:
each stretch of workload time between two calibrations is divided by the
median slowdown of the samples around it, and the kernel's own time is left
out.  With ``to_ref = clock.reference()``, ``to_ref(end) - to_ref(start)``
is the time the work would have taken at the reference speed; on a quiet
host it equals the wall time.  Any change in the workload's own cost
shows in full, since the kernel does not run gielab code.
"""

from __future__ import annotations

import math
import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.1       # calibration interval
KERNEL_REF_S = 7.5e-4  # the kernel's time on a quiet 2-vCPU Xeon VM
SMOOTH = 3           # samples on each side of a stretch whose median sets its slowdown

_M = np.array([[1.5, 0.2, 0.4, 0.0], [0.2, 1.5, 0.0, -0.4], [0.4, 0.0, 2.1, 0.3], [0.0, -0.4, 0.3, 2.1]])
_V = np.linspace(0.0, 1.0, 32768)


def kernel() -> float:
    """A fixed mix like gielab's: small symmetric eigenproblems, scalar
    Python arithmetic, and one vectorised pass over a grid-sized array."""
    acc = 0.0
    for i in range(50):
        m = _M + (1e-3 * i) * np.eye(4)
        acc += float(np.linalg.eigvalsh(m)[0]) + float(np.linalg.det(m))
        for j in range(20):
            acc += math.log1p(i + j) * 0.5
    acc += float(np.sum(np.log1p(_V * _V)))
    return acc


class HostClock:
    """Calibration samples taken while the workload runs, and ``to_ref``."""

    def __init__(self):
        self.samples = array("d")  # start, end of each kernel run
        self._busy = False
        self._saved = None
        kernel()  # first calls into numpy's linalg are slower

    def tick(self, *_signal_args) -> None:
        if self._busy:  # a SIGALRM during an explicit tick
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.samples.extend((t0, time.perf_counter()))
        self._busy = False

    def __enter__(self) -> "HostClock":
        self.tick()
        self._saved = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self.tick()

    def slowdowns(self) -> np.ndarray:
        s = np.frombuffer(self.samples, dtype=np.float64)
        return (s[1::2] - s[0::2]) / KERNEL_REF_S

    def reference(self):
        """The map from ``perf_counter`` stamps (arrays too) taken between the
        first and the last sample to seconds at the reference speed."""
        s = np.frombuffer(self.samples, dtype=np.float64).copy()
        starts, ends = s[0::2], s[1::2]
        slow = self.slowdowns()
        n = len(starts)
        # stretch j runs from the end of sample j to the start of sample j+1
        local = np.array([np.median(slow[max(0, j - SMOOTH + 1):j + SMOOTH + 1]) for j in range(n - 1)])
        ref = np.zeros(2 * n)
        ref[2::2] = np.cumsum((starts[1:] - ends[:-1]) / local)
        ref[1::2] = ref[0::2]  # the clock stands still while the kernel runs
        return lambda stamps: np.interp(stamps, s, ref)
