"""Wall time rescaled to a fixed host speed.

The benchmark's host is a share of a machine it does not own: the same
code can run at half speed for seconds at a time while a neighbour is
busy, and the share of slow time changes from one run to the next.
:class:`HostClock` takes that out of the timings. It times a fixed
pure-Python reference loop (:func:`reference_loop`, a few dict, list,
attribute and integer operations, about a millisecond) every
``PROBE_EVERY_S`` of a run, from a ``SIGALRM`` interval timer, and
rescales every stretch of wall time between two probes by
``NOMINAL_PROBE_S`` over the mean time of those two probes. A
rescaled time reads as the wall time the same work would take on a
host that runs the reference loop in ``NOMINAL_PROBE_S``; the probes'
own time is left out.

The reference loop is the benchmark's own code, so a change to the
program under test moves the rescaled times as much as the wall
times; only the host's speed is divided out. The raw wall-clock
figures are printed beside the rescaled ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
from contextlib import contextmanager
from time import perf_counter

#: Iterations of the reference loop (about 1.2 ms on the reference host).
PROBE_LOOPS = 4000
#: The reference loop's time on the reference host when nothing else
#: runs on its core (a 2-vCPU KVM guest on an Intel Xeon, Python 3.11);
#: rescaled times read as wall time on that host.
NOMINAL_PROBE_S = 0.0012
#: Wall time between two probes while sampling: a few per cent of a
#: run goes to probes, and a window of any length is rescaled by the
#: speed measured around it, not only at its ends.
PROBE_EVERY_S = 0.02


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 0xFFFF


_POINT = _Point(3, 7)


def reference_loop() -> int:
    """Fixed interpreter work: dict, list, attribute and integer ops."""
    table = {}
    items = []
    acc = 0
    point = _POINT
    for i in range(PROBE_LOOPS):
        key = i & 255
        table[key] = table.get(key, 0) + point.step(i)
        items.append(i * 3 >> 1)
        acc ^= items[-1]
    return acc + len(table)


class HostClock:
    """Reference-loop probes and the rescaled time they give.

    ``probes`` holds ``(start, end)`` ``perf_counter`` pairs in time
    order. ``perf_counter`` is the system-wide monotonic clock, so the
    probes of another process on the same host (a fleet worker) can be
    merged with :meth:`extend` and used to rescale this process's
    stamps.
    """

    def __init__(self, probes=()) -> None:
        self.probes = sorted(probes)
        self._ends = [end for _, end in self.probes]

    def probe(self) -> None:
        """Time one reference loop (garbage collection held off)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_loop()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.probes.append((start, end))
        self._ends.append(end)

    @contextmanager
    def sampling(self):
        """Probe every ``PROBE_EVERY_S`` of wall time inside the block.

        A ``SIGALRM`` interval timer interrupts the main thread between
        two bytecodes; the probe's time is left out of every rescaled
        span. Main thread only; the previous handler is put back.
        """
        busy = False

        def on_alarm(signum, frame):
            nonlocal busy
            if not busy:
                busy = True
                try:
                    self.probe()
                finally:
                    busy = False

        self.probe()
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def extend(self, probes) -> None:
        self.probes = sorted(self.probes + [tuple(p) for p in probes])
        self._ends = [end for _, end in self.probes]

    def speed_factors(self) -> list:
        """Per probe: its time over ``NOMINAL_PROBE_S`` (1 = reference
        speed, 2 = the host ran at half of it)."""
        return [(end - start) / NOMINAL_PROBE_S for start, end in self.probes]

    def span(self, start: float, end: float) -> float:
        """Rescaled length of ``[start, end]``, probe time left out.

        The gap between two consecutive probes is scaled by
        ``NOMINAL_PROBE_S`` over the mean of their times; time before
        the first or after the last probe by that probe's time alone.
        """
        probes = self.probes
        if not probes:
            raise RuntimeError("rescaled time asked of a clock never probed")
        total = 0.0
        # First probe that ends after ``start``.
        k = bisect.bisect_right(self._ends, start)
        cursor = start
        prev = probes[k - 1][1] - probes[k - 1][0] if k else None
        while cursor < end:
            if k < len(probes):
                p_start, p_end = probes[k]
                cost = p_end - p_start
                gap_end = min(end, p_start)
                scale = cost if prev is None else (prev + cost) / 2
            else:
                p_end = end
                gap_end = end
                scale = prev
            if gap_end > cursor:
                total += (gap_end - cursor) * NOMINAL_PROBE_S / scale
            cursor = max(cursor, p_end)
            prev = probes[k][1] - probes[k][0] if k < len(probes) else prev
            k += 1
        return total
