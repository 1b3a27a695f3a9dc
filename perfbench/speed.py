"""Host-speed probe: a fixed slice of work run on a timer during measurement.

The machines this benchmark runs on are small shared VMs whose CPU speed
drifts by tens of percent within a minute, for every kind of code alike.
A raw wall time then mostly measures the neighbours. Every
``INTERVAL_S`` seconds a ``SIGALRM`` handler in the measured process
itself runs a fixed slice of mixed interpreter and NumPy work twice and
times the second pass, so the probe samples the speed the measured code
sees at the same moments. The caller subtracts the probe's own time from
the wall time and scales the rest by ``NOMINAL_SLICE_S / mean slice
time``: the result is the time the work would take on a host where one
slice takes ``NOMINAL_SLICE_S``. ``probe_check.py`` shows that adjusted
times keep a slowdown injected into the measured code.
"""

from __future__ import annotations

import gc
import json
import signal
import time

import numpy as np

INTERVAL_S = 0.25
# Typical timed-pass time on a 2 vCPU 2.1 GHz Xeon VM (Python 3.11, NumPy 2.4),
# so adjusted times read close to wall seconds there.
NOMINAL_SLICE_S = 0.008
RECENT = 8          # slices (2 s) that give the host's speed of the moment

_KEYS = np.random.default_rng(12345).integers(0, 1 << 40, size=12_000)


def work_slice() -> None:
    """The fixed unit of work: a sort and search, dict updates, JSON."""
    order = np.argsort(_KEYS, kind="stable")
    _KEYS[order].searchsorted(_KEYS[:3000])
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    for i in range(1500):
        json.dumps({"src": i, "dst": i + 1, "t": 3 * i, "category": "temporal"})


class SpeedProbe:
    """Accumulates slice times while running; use as a context manager."""

    def __init__(self):
        self.slices: list[float] = []                    # timed pass durations
        self.intervals: list[tuple[float, float]] = []   # (start, end) of each tick

    def _tick(self, signum, frame) -> None:
        # The slice's allocations must not start a collection of the
        # measured program's heap inside the slice: the slice would then
        # time the program's garbage, not the host.
        # The first pass brings the slice's code and data back into the
        # caches the measured program evicted since the last tick, so the
        # timed second pass follows the host's speed, not the program's
        # memory footprint.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        work_slice()
        t1 = time.perf_counter()
        work_slice()
        t2 = time.perf_counter()
        if enabled:
            gc.enable()
        self.slices.append(t2 - t1)
        self.intervals.append((t0, t2))

    def __enter__(self) -> "SpeedProbe":
        self._tick(None, None)      # a speed for intervals that end before the first tick
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.slices)

    def scale(self, since: int) -> float:
        """``NOMINAL_SLICE_S`` over the mean slice time since ``mark()``
        returned ``since``; the recent scale when no slice ran since."""
        taken = self.slices[since:]
        if not taken:
            return self.recent_scale()
        return NOMINAL_SLICE_S * len(taken) / sum(taken)

    def recent_scale(self) -> float:
        """``NOMINAL_SLICE_S`` over the mean of the last ``RECENT`` slice
        times; 1.0 when the probe never ran."""
        taken = self.slices[-RECENT:]
        return NOMINAL_SLICE_S * len(taken) / sum(taken) if taken else 1.0

    def taken(self, since: int) -> float:
        """Seconds the probe's ticks took since ``mark()`` returned ``since``."""
        return sum(b - a for a, b in self.intervals[since:])

    def adjust(self, wall: float, since: int) -> tuple[float, float]:
        """(probe-free wall time, host-speed-adjusted time) of an interval
        that took ``wall`` seconds and began when ``mark()`` returned ``since``."""
        own = wall - self.taken(since)
        return own, own * self.scale(since)
