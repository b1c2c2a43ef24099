"""Span-tree tracing with per-span counters and gauges.

A :class:`Tracer` maintains a stack of open :class:`Span`\\ s; entering
``tracer.span("stage")`` nests a child under the innermost open span.
The stack is a :class:`contextvars.ContextVar`, so each thread nests
under its own open spans; a thread's first span is a child of the root.
Spans carry two kinds of metrics:

* **counters** — monotonically accumulated with :meth:`Span.count`
  (e.g. sessions run, candidates evaluated);
* **gauges** — point-in-time values set with :meth:`Span.gauge`
  (e.g. record counts, matrix byte sizes, the selected threshold).

Both live in one ``metrics`` mapping and are serialized with sorted keys,
so a trace built under a :class:`~repro.obs.clock.NullClock` from a seeded
run is deterministic down to the byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.clock import Clock, NullClock
from repro.obs.memory import MemoryMeter, NullMemoryMeter

Number = Union[int, float]


@dataclass
class Span:
    """One traced region: a name, a time interval, metrics, children."""

    name: str
    start: float = 0.0
    end: Optional[float] = None
    metrics: Dict[str, Number] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def count(self, name: str, value: Number = 1) -> None:
        """Accumulate ``value`` onto counter ``name`` (creating it at 0)."""
        self.metrics[name] = self.metrics.get(name, 0) + value

    def gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.metrics[name] = value

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in depth-first order, if any."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form with deterministic key order."""
        return {
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Builds one span tree around a run.

    The tracer is cheap enough to be always-on: with the default
    :class:`NullClock` every timestamp read costs a constant and the tree
    only grows by one small object per stage.  Instrumented code does::

        with tracer.span("pipeline.distances") as span:
            matrices = compute_distances(records)
            span.gauge("matrix_bytes", matrices.total.nbytes)

    and never needs to know whether anyone is watching.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        name: str = "trace",
        memory: Optional[MemoryMeter] = None,
    ):
        self.clock: Clock = clock if clock is not None else NullClock()
        self.memory: MemoryMeter = (
            memory if memory is not None else NullMemoryMeter()
        )
        self.root = Span(name=name, start=self.clock.now())
        self._stack: ContextVar[Tuple[Span, ...]] = ContextVar(
            "repro.obs.tracer.stack", default=(self.root,)
        )

    @property
    def current(self) -> Span:
        """The innermost open span of this context (else the root)."""
        return self._stack.get()[-1]

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a child span of the current span for the ``with`` body."""
        span = Span(name=name, start=self.clock.now())
        stack = self._stack.get()
        stack[-1].children.append(span)
        token = self._stack.set(stack + (span,))
        try:
            yield span
        finally:
            span.end = self.clock.now()
            self._stack.reset(token)

    def finish(self) -> Span:
        """Close the root span and return it (idempotent)."""
        if self.root.end is None:
            self.root.end = self.clock.now()
        return self.root
