"""Deterministic observability: injectable clocks, span tracing, reporters.

The reproduction's determinism contract (see ``docs/ANALYSIS.md``) forbids
host-clock reads anywhere in the simulator, yet a production-scale system
needs to know where time and memory go. ``repro.obs`` squares that circle:

* :class:`~repro.obs.clock.Clock` is an injectable time source.  The
  default :class:`~repro.obs.clock.NullClock` always reads 0.0, so traced
  runs stay bit-identical; :class:`~repro.obs.clock.PerfClock` reads the
  host's monotonic performance counter and is the single call site
  pushlint's ``flow-nondet-taint`` pass exempts (``repro/obs/clock.py``).
* :class:`~repro.obs.memory.MemoryMeter` does the same for allocation
  peaks: the default :class:`~repro.obs.memory.NullMemoryMeter` measures
  nothing (so no ``peak_bytes`` gauge appears and traces stay identical),
  while :class:`~repro.obs.memory.TracemallocMeter` brackets the heavy
  pipeline stages with :mod:`tracemalloc` for the benchmark harness.
* :class:`~repro.obs.tracer.Tracer` records a nested span tree with
  per-span counters and gauges (record counts, matrix byte sizes, cluster
  counts, ...) around each pipeline/crawl stage.
* :mod:`repro.obs.reporters` renders a trace as a human-readable tree or
  as canonical JSON (sorted keys, stable float formatting).

``repro.obs`` sits at the bottom of the package DAG (above only
``repro.util``), so every layer — webenv generation, the crawler, the
analysis pipeline — can accept a ``tracer=`` without coupling upward.
"""

from repro.obs.clock import Clock, NullClock, PerfClock
from repro.obs.memory import (
    MemoryMeter,
    NullMemoryMeter,
    PeakReading,
    TracemallocMeter,
)
from repro.obs.reporters import (
    TRACE_SCHEMA,
    format_trace,
    trace_to_dict,
    trace_to_json,
)
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Clock",
    "MemoryMeter",
    "NullClock",
    "NullMemoryMeter",
    "PeakReading",
    "PerfClock",
    "Span",
    "TRACE_SCHEMA",
    "TracemallocMeter",
    "Tracer",
    "format_trace",
    "trace_to_dict",
    "trace_to_json",
]
