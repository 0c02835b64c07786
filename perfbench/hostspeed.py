"""A fixed probe of the host's speed, and the adjustment the timings get from it.

On the 2-vCPU VM the bounds were set on, the vCPU switches many times a
second between a fast state and one about 1.5x slower, and the share of slow
time drifts over minutes: a whole run can land mostly in one state or
the other.  No estimator taken from the program's timings alone can tell
those runs apart; README.md gives the figures.

So every timed call is preceded, at most once per ``EVERY`` seconds, by a
probe: fixed work written here, outside the program, of the kind the engines
do (small dicts of tuples, frozensets, numpy operations on 27-entry arrays),
run with the garbage collector off so that the program's heap cannot slow
it.  The run's host factor is ``REF_PROBE_S`` over the mean probe time, and
every timed metric is multiplied by it (a time) or divided by it (a rate):
the result is seconds on a host where the probe takes ``REF_PROBE_S``.  A
change to the program moves the timed metrics by the full amount, since the
probe runs no program code; the raw figures and the factor stay in each
result file.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

EVERY = 0.1  # seconds between probes, at least
# About the probe's time on the reference VM with its vCPU in the fast state;
# it only sets the scale of the adjusted figures.
REF_PROBE_S = 4.5e-3
TRIM = 0.05  # share of the slowest probes left out of the mean: stray interrupts


def _probe_work():
    """About 4.5 ms of work: three rounds, so one probe spans more of the
    host's sub-second switching than a single round does."""
    out = []
    for _ in range(3):
        d: dict[tuple[int, int], tuple[int, ...]] = {}
        for i in range(3000):
            k = (i & 63, i % 7)
            d[k] = d.get(k, ()) + (i,)
        sets = [frozenset(v[:3]) for v in d.values()]
        a = np.arange(27.0).reshape(3, 3, 3)
        for _ in range(60):
            a = (a * 1.0001).sum(axis=1, keepdims=True) * np.ones((1, 3, 1))
        out.append((len(sets), float(a.sum())))
    return out


class HostProbe:
    def __init__(self):
        self.last = float("-inf")
        self.samples: list[float] = []

    def maybe(self):
        """Probe now, unless the last probe was under ``EVERY`` seconds ago."""
        if time.perf_counter() - self.last < EVERY:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.last = time.perf_counter()

    def factor(self):
        """REF_PROBE_S / the trimmed mean probe time: below 1 on a slow host."""
        kept = sorted(self.samples)[: max(1, round(len(self.samples) * (1 - TRIM)))]
        return REF_PROBE_S / statistics.fmean(kept)
