"""Host-speed sampling, so that timings from a shared host can be compared.

The benchmark's host shares its CPUs with other tenants.  For seconds to
minutes at a time every instruction runs up to 1.5 times slower, and that
slowdown is CPU time, not waiting: a fixed loop's thread CPU time grows
with its wall.  A run that falls in a slow stretch then reads slow from end
to end, whatever the estimator.

So the benchmark measures the host's speed while it measures the program.
A tiny fixed probe (a pure-Python loop the program never touches) runs
every :data:`PERIOD` seconds: from a ``SIGALRM`` handler while a part of
the path runs, or between two requests of a serve round, where
:func:`sample` is called and the timer is paused.  Each probe's thread CPU
time is stored with the moment it ran.  :func:`factor` turns the probes
taken during an interval into the ratio :data:`REFERENCE_S` / their
median; a wall times that factor is the wall the same work would have
taken on a host where the probe takes :data:`REFERENCE_S`.  The program's
own work does not move the probe: it is timed in CPU time, so waiting for
a core that worker processes hold is not counted.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: Seconds between two probes.
PERIOD = 0.01
#: The probe's thread CPU time on an uncontended core of the 2-vCPU host the
#: benchmark was built on (its fastest readings were 19-20 µs).
REFERENCE_S = 20e-6
#: Probes an interval needs before :func:`factor` uses them alone.
MIN_PROBES = 5

#: ``(perf_counter at the probe, probe thread CPU seconds)``, in time order.
timeline: List[Tuple[float, float]] = []


def _loop() -> int:
    s = 0
    for i in range(400):
        s += i * i % 7
    return s


def probe() -> float:
    """Thread CPU seconds of a fixed pure-Python loop (about 20 µs).

    The loop runs once untimed first, so the timed pass finds its code and
    data in cache whatever the program was doing when it was interrupted.
    """
    _loop()
    t0 = time.thread_time()
    _loop()
    return time.thread_time() - t0


def sample() -> float:
    """Run one probe now and record it; returns its wall, to leave out."""
    t0 = time.perf_counter()
    timeline.append((t0, probe()))
    return time.perf_counter() - t0


def _on_alarm(signum: int, frame: object) -> None:
    timeline.append((time.perf_counter(), probe()))


def start() -> None:
    """Probe every :data:`PERIOD` seconds from now on."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


@contextmanager
def paused() -> Iterator[None]:
    """No timer probes inside: the caller probes with :func:`sample`."""
    running = signal.getitimer(signal.ITIMER_REAL)[0] > 0
    stop()
    try:
        yield
    finally:
        if running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)


def factor(t0: float, t1: float) -> float:
    """:data:`REFERENCE_S` over the median probe taken in ``[t0, t1]``.

    An interval with fewer than :data:`MIN_PROBES` probes uses every probe
    of the run instead.
    """
    inside = [p for t, p in timeline if t0 <= t <= t1]
    if len(inside) < MIN_PROBES:
        inside = [p for _, p in timeline]
    return REFERENCE_S / statistics.median(inside)


def summary() -> Dict[str, float]:
    """Probes taken, their median and the reference, in µs."""
    return {"probes": len(timeline),
            "median_us": statistics.median(p for _, p in timeline) * 1e6,
            "reference_us": REFERENCE_S * 1e6}
