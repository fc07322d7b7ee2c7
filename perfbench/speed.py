"""Speed probe: timings corrected for the speed of a shared machine.

On a shared host the CPU this process runs on slows down by 1.4-1.9x
for spells of a few milliseconds to a quarter of a minute, and drifts
over minutes, as other tenants load it; a raw time then follows the
host's load as much as the program.  While a `SpeedProbe` is active,
SIGALRM fires every INTERVAL seconds, and its handler times `chunk()`,
a fixed piece of work that does not touch wsdist: numpy operations on a
small array.  Of the pieces tried (interpreter integer arithmetic, small
and large numpy arrays, complex numpy functions), its speed followed
that of the package's own calls best as the load changed: over 3-s
windows on a 2-core VM, the log of its mean time correlated 0.97-0.98
with those of an oracle `I_direct` call, a pairing and a density grid,
leaving a standard deviation of 0.03 where theirs was 0.15.  The
handler's own time is left out of the probe's clock, `now()`, so it is
left out of every op timed with that clock.  A stretch of the run is
then scaled by REF_S over the mean chunk time inside it, so that its
times read as on a machine where a chunk takes REF_S.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.02  # seconds between probes: a chunk every 20 ms costs the run about 2.5 %
REF_S = 5e-4  # the reference chunk time, about its median on a 2-core VM
_ARRAY = np.arange(32.0)


def chunk():
    a = _ARRAY
    for _ in range(250):
        a = np.sqrt(a + 1.0)
    return a


class SpeedProbe:
    def __init__(self):
        self.samples = []  # chunk times, in the order taken
        self._busy = 0.0  # seconds spent in the handler
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        chunk()
        self.samples.append(perf_counter() - t0)
        self._busy += perf_counter() - t0

    def now(self):
        """perf_counter() less the time spent probing."""
        return perf_counter() - self._busy

    def scale(self, since):
        """REF_S over the mean chunk time of the samples taken since the
        `since`-th."""
        return REF_S / statistics.fmean(self.samples[since:])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
