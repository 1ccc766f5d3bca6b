"""Wall time at a reference speed, for hosts whose speed drifts.

A shared host's speed can change by ~1.7x for stretches of a second to a
minute, with no steal time to show for it, so that a stage timed a few
times per run reads fast in one run and slow in the next. A fixed probe
slows with the host. Timing a call against the probe, run just before and
after the call and every PROBE_INTERVAL_S during it, and scaling the
call's time by REF_PROBE_S over the mean probe time gives the call's time
at the reference speed: steady across runs where the raw time is not.
Both times are kept, so the raw ones can still be read.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The probe: a fixed interpreter loop over small-array element reads, the
# same mix of work as the package's filter recursions.
_PROBE_ARRAY = np.random.default_rng(0).random((6, 6))
PROBE_LOOPS = 4_000
PROBE_INTERVAL_S = 0.05
# the probe's time at full speed on the 2-vCPU Xeon host the bounds were set
# on: a time at the reference speed is in seconds at that speed
REF_PROBE_S = 0.8e-3


def probe_seconds() -> float:
    """Wall time of one probe call."""
    a = _PROBE_ARRAY
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += float(a[i % 6, i % 5]) * 1.0001
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the enclosed code against the probe.

    The probe runs on entry, on exit, and every PROBE_INTERVAL_S in between
    from a SIGALRM handler, so between the bytecodes of the enclosed code.
    On exit `elapsed` is the enclosed code's wall time less the handler's,
    `mean_probe` the mean probe time and `at_reference_speed` the elapsed
    time scaled by REF_PROBE_S / mean_probe.
    """

    def __enter__(self):
        self.probes = [probe_seconds()]
        self._handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(probe_seconds())
        self._handler_s += time.perf_counter() - t0

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(probe_seconds())
        self.elapsed = wall - self._handler_s
        self.mean_probe = statistics.fmean(self.probes)
        self.at_reference_speed = self.elapsed * REF_PROBE_S / self.mean_probe
        return False
