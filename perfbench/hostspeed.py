"""Host speed probe: times scaled to a reference speed of the host.

On a shared VM the same pure-Python work runs up to twice as fast or as
slow from one minute to the next, with CPU time equal to wall time, so the
slowdowns are not waiting and no median inside a run of a few tens of
seconds removes them.  The probe measures that speed where and when the
timed code runs: a timer signal interrupts the process every INTERVAL_S,
and its handler times a fixed piece of pure-Python work.  Each stretch of
time between two probes is scaled by REFERENCE_S over the duration of the
probe that ends it, and the probes' own time is left out:

    scaled time = sum over stretches of  stretch * REFERENCE_S / probe duration

that is, the time the stretch would have taken on a host where the probe
takes REFERENCE_S.  The probe costs about 1% of the timed code.  The
handler runs between bytecodes, so a long call into C delays a probe but
does not hide time: the stretch grows and is scaled by the next probe.
"""

import signal
import time

INTERVAL_S = 0.02
# The probe's median duration on the 2-core VM the benchmark was defined
# on (Python 3.11.7); a constant, so that scaled times compare across runs.
REFERENCE_S = 0.00025


def _probe_work():
    table = {}
    total = 0
    for i in range(1, 400):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i * 7919
        total += (i * 2654435761) % 1000003
    return total, table


class SpeedProbe:
    """Probes the host's speed from `start` to `stop`; `scaled` converts a
    span of time.monotonic() readings inside that interval."""

    def __init__(self):
        self.marks = []  # (probe start, probe end), time.monotonic()
        self._previous = None

    def _probe(self, signum=None, frame=None):
        start = time.monotonic()
        _probe_work()
        self.marks.append((start, time.monotonic()))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop the timer and probe once more, for the last stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scaled(self, begin, end):
        """The time from `begin` to `end` at the reference speed, without
        the probes' own time.  Time before the first probe is scaled by it."""
        total, previous = 0.0, float("-inf")
        for start, stop in self.marks:
            low, high = max(previous, begin), min(start, end)
            if high > low:
                total += (high - low) * REFERENCE_S / (stop - start)
            previous = stop
            if previous >= end:
                break
        return total
