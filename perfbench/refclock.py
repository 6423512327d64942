"""A clock in reference seconds: host time rescaled by the speed of a
fixed reference probe.

The benchmark runs on a few vCPUs of a shared host whose speed swings
by up to 2x, in spells from under a second to minutes (neighbours
loading the same physical cores), so the plain wall time of whole runs
spreads by tens of percent.  While a :class:`Sampler` runs, an interval
timer interrupts the program every :data:`PERIOD_S` seconds and runs
:func:`probe`, a fixed piece of interpreted Python whose time tracks the
host's speed.  :func:`now` leaves the probes out and advances each
stretch of host time between two probes at the speed the last
:data:`WINDOW` probes measured: in *reference seconds*, the time the
same work takes while one probe takes :data:`REFERENCE_PROBE_S`, its
time on an uncontended core of the host the benchmark was sized on
(2-vCPU Intel Xeon, CPython 3.11, numpy 2).

The probe lives here, outside the package, so no change to the program
can change it; a program that gets faster reads faster in reference
seconds by the same share.
"""

from __future__ import annotations

import heapq
import signal
import time
from collections import deque
from contextlib import contextmanager

import numpy as np

_perf = time.perf_counter

#: Seconds one probe takes on an uncontended core of the reference host.
REFERENCE_PROBE_S = 0.0037
#: Interval between probes while a sampler runs.
PERIOD_S = 0.04
#: Probes whose mean time sets the speed of the stretch after them.
WINDOW = 12


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value

    def weight(self) -> float:
        return self.value * 0.5 + 1.0


_rng = np.random.default_rng(1)
_COLUMNS = [_rng.integers(0, 1 << 20, 192) for _ in range(8)]


def probe() -> float:
    """A fixed mix of the simulator's kinds of work: objects with slots,
    method calls, dict lookups, a heap, and numpy ops on 192-long
    columns."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(2500):
        node = _Node((i * 2654435761) & 0xFFFF, float(i))
        table[node.key & 1023] = node
        heapq.heappush(heap, (node.key, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0] * 1e-3
        other = table.get(i & 511)
        if other is not None:
            acc += other.weight()
    for _ in range(3):
        for column in _COLUMNS:
            order = np.argsort(column, kind="stable")
            run = np.maximum.accumulate(column[order])
            acc += float(np.cumsum(run & 63)[-1]) + int((column >> 6).max())
    return acc


class Sampler:
    """Runs :func:`probe` on a timer and keeps a clock in reference
    seconds."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        #: every probe's host seconds
        self.durations: list[float] = []
        self._recent: deque[float] = deque(maxlen=WINDOW)
        #: reference seconds at host time ``_mark``, which advance at
        #: ``_scale`` reference seconds per host second from there
        self._base = 0.0
        self._mark = _perf()
        self._scale = 1.0
        #: bumped by every probe, so :meth:`now` can detect one that
        #: interrupted it
        self.count = 0

    def now(self) -> float:
        """Reference seconds; host seconds while no sampler runs."""
        while True:
            count = self.count
            value = self._base + (_perf() - self._mark) * self._scale
            if count == self.count:
                return value

    def _probe(self) -> None:
        began = _perf()
        base = self._base + (began - self._mark) * self._scale
        probe()
        ended = _perf()
        self.durations.append(ended - began)
        self._recent.append(ended - began)
        self._base = base
        self._scale = REFERENCE_PROBE_S * len(self._recent) / sum(self._recent)
        self._mark = ended
        self.count += 1

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    @contextmanager
    def running(self):
        """Probe every ``period`` seconds inside the block, after a
        window of probes that sets the starting speed."""
        global _active
        for _ in range(WINDOW):
            self._probe()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        _active = self
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            _active = _IDLE


_IDLE = Sampler()
_active = _IDLE


def now() -> float:
    """Reference seconds of the running sampler, or host seconds."""
    return _active.now()
