"""Injectable time sources for tracing.

This module is the **only** place in ``src/repro`` where reading the host
clock is legal: the pushlint ``no-wallclock`` rule exempts exactly
``repro.obs.clock`` and flags every other call site.  Everything else must
take a :class:`Clock` (or simulation time) as input.

Two implementations cover both worlds:

* :class:`NullClock` — always 0.0.  The default everywhere, so a traced
  run produces the same span tree, byte for byte, on every invocation.
* :class:`PerfClock` — the host's monotonic performance counter, for the
  end-to-end benchmark's traced runs (``perfbench/run.py --trace 1``)
  where wall time is the measurement.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Anything with a ``now() -> float`` (seconds) and a ``name``."""

    name: str

    def now(self) -> float:
        """Current time in (fractional) seconds."""
        ...


class NullClock:
    """A clock that never moves: every read is 0.0.

    With it, span durations are identically zero and the serialized trace
    depends only on the scenario seed — which is what makes
    ``--trace-json`` output bit-identical across repeat runs.
    """

    name = "null"

    def now(self) -> float:
        return 0.0


class PerfClock:
    """Monotonic wall-clock readings, zeroed at construction.

    The single sanctioned host-clock call site in the codebase.  Readings
    are relative to the instant the clock was created so traces from
    different runs are comparable.
    """

    name = "perf"

    def __init__(self) -> None:
        self._epoch = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._epoch
