"""Injectable peak-memory meters for tracing.

The same contract as :mod:`repro.obs.clock`, for allocation peaks: the
determinism contract wants traced runs byte-identical by default, yet the
benchmark harness needs to know how big the distance stage's working set
actually got.  Two implementations:

* :class:`NullMemoryMeter` — measures nothing; every reading stays
  ``None`` and instrumented spans skip their ``peak_bytes`` gauge, so the
  default trace is unchanged byte for byte.
* :class:`TracemallocMeter` — brackets the measured region with
  :mod:`tracemalloc` and reports the peak traced allocation in bytes.
  Python-level allocations only (numpy buffers are counted; the
  interpreter's own baseline is excluded by the reset), with the usual
  tracemalloc overhead — benchmark-harness opt-in, never the default.

Nesting note: tracemalloc keeps one process-global peak counter, and each
``measure()`` resets it on entry.  Nested measurements therefore report
correct peaks for the *innermost* regions, while an enclosing reading
only covers the stretch since the last nested reset.  The pipeline's
instrumented spans are sequential siblings, so this never bites there.
Tracing is on only while a measurement is open: the outermost block that
started it stops it on exit, since tracemalloc left running slows every
later allocation in the process about threefold.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, runtime_checkable


@dataclass
class PeakReading:
    """The result slot a :meth:`MemoryMeter.measure` block fills on exit.

    ``peak_bytes`` is ``None`` until the block exits, and stays ``None``
    forever under the null meter — callers gauge only when it is set.
    """

    peak_bytes: Optional[int] = None


@runtime_checkable
class MemoryMeter(Protocol):
    """Anything whose ``measure()`` context manager yields a reading."""

    name: str

    def measure(self) -> "Iterator[PeakReading]":
        """Context manager bracketing one measured region."""
        ...


class NullMemoryMeter:
    """A meter that never measures: every reading stays ``None``.

    The default on :class:`~repro.obs.Tracer`, keeping traced runs
    bit-identical (no gauge is emitted for an unmeasured region).
    """

    name = "null"

    @contextmanager
    def measure(self) -> Iterator[PeakReading]:
        yield PeakReading()


class TracemallocMeter:
    """Peak traced allocation over the measured region, in bytes.

    Starts :mod:`tracemalloc` if it is not already tracing, and then stops
    it again when that same block exits; a block nested inside it, or run
    while a caller traces on its own, leaves tracing as it found it.  Each
    region resets the peak counter on entry and reads it on exit.
    """

    name = "tracemalloc"

    @contextmanager
    def measure(self) -> Iterator[PeakReading]:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        reading = PeakReading()
        try:
            yield reading
        finally:
            _, peak = tracemalloc.get_traced_memory()
            reading.peak_bytes = int(peak)
            if started:
                tracemalloc.stop()
