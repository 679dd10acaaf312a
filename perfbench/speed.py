"""CPU-speed probe: rescales a process's elapsed time to a reference CPU speed.

The 2-vCPU host this benchmark was calibrated on (Intel Xeon, 2.0 GHz
nominal) runs the same pure-Python loop up to about 1.6x slower for seconds
to minutes at a time, and process CPU time slows with it (the guest sees no
steal time), so neither wall clock nor CPU time of the same deterministic
work repeats between runs.  A :class:`SpeedProbe` measures that speed inside
the measured process itself:

* :meth:`SpeedProbe.start` arms ``ITIMER_PROF``; every :data:`INTERVAL_S` of
  the process's CPU time a ``SIGPROF`` handler runs :func:`probe_work`, a
  fixed pure-Python loop, and records when it started and how long it took.
  The handler runs between bytecodes of the main thread, on the same CPU and
  in the same speed phase as the program around it.
* :func:`rescale` turns an interval of the process's life into the time it
  would have taken at the speed at which :func:`probe_work` takes
  :data:`REFERENCE_PROBE_S`: the interval minus the probes' own time,
  times the mean of ``REFERENCE_PROBE_S / duration`` over the probes inside
  it.  The mean of the speed samples weights each speed phase by its share
  of the interval, as the program's own progress does.

A change that makes the program do less work lowers the rescaled time by the
same share as the wall clock; only the host's speed phases cancel.  The
probes take about 2% of the process's CPU time and are not counted in the
rescaled time.
"""

from __future__ import annotations

import signal
import time
from typing import List, Sequence, Tuple

#: Process CPU seconds between two probes.
INTERVAL_S = 0.01

#: Loop trips of one probe: 0.17-0.35 ms on the calibration host.
PROBE_LOOPS = 1000

#: Duration of one probe at the reference speed, about its fastest on the
#: calibration host.  Any constant would do; this one makes a rescaled time
#: read close to that host's undisturbed wall clock.
REFERENCE_PROBE_S = 0.00017

#: An interval with fewer probes than this is rescaled by the speed of all
#: the process's probes.
MIN_PROBES = 5

#: One probe: (``time.monotonic()`` at its start, its duration in seconds).
Sample = Tuple[float, float]


def probe_work(loops: int = PROBE_LOOPS) -> int:
    """Fixed interpreter work: integer arithmetic, dict updates and branches."""
    table = {}
    acc = 0
    for i in range(loops):
        acc = (acc * 31 + i) % 1000003
        key = acc & 63
        if key in table:
            table[key] += 1
        else:
            table[key] = 1
    return acc + len(table)


class SpeedProbe:
    """Samples the CPU speed of the current process from a ``SIGPROF`` handler."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_sigprof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _on_sigprof(self, signum, frame) -> None:
        if self._busy:  # a signal that lands while a probe runs is dropped
            return
        self._busy = True
        start = time.monotonic()
        probe_work()
        self.samples.append((start, time.monotonic() - start))
        self._busy = False


def _speed(samples: Sequence[Sample]) -> float:
    return sum(REFERENCE_PROBE_S / duration for _, duration in samples) / len(samples)


def rescale(samples: Sequence[Sample], start: float, end: float) -> float:
    """Seconds ``[start, end)`` of the probed process would take at reference speed.

    ``start`` and ``end`` are ``time.monotonic()`` readings, which are
    system-wide, so the interval may begin before the process did (a parent
    timing the spawn of the probed child).  Without probes the interval is
    returned unscaled.
    """
    inside = [sample for sample in samples if start <= sample[0] < end]
    probed = inside if len(inside) >= MIN_PROBES else samples
    elapsed = end - start - sum(duration for _, duration in inside)
    return elapsed * _speed(probed) if probed else elapsed
