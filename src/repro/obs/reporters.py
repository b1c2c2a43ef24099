"""Render a trace as a human-readable tree or as canonical JSON.

The JSON form is the machine-readable span tree: ``python -m repro ...
--trace-json PATH`` writes it directly, and the end-to-end benchmark's
per-layer metrics (``perfbench/``) are read off the same spans.
Serialization is canonical — sorted keys, fixed separators, trailing
newline — so a trace recorded under a :class:`~repro.obs.clock.NullClock`
from a seeded run compares equal byte for byte across invocations.

Schema (``"schema": "repro-trace/1"``)::

    {
      "schema":  "repro-trace/1",
      "clock":   "null" | "perf",
      "trace": {
        "name":        str,
        "start_s":     float,
        "duration_s":  float,
        "metrics":     {str: int | float, ...},   # sorted keys
        "children":    [ <span>, ... ]            # recursion
      }
    }
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.tracer import Span, Tracer

TRACE_SCHEMA = "repro-trace/1"


def trace_to_dict(tracer: Tracer) -> Dict[str, object]:
    """The finished trace as a JSON-ready dictionary."""
    root = tracer.finish()
    return {
        "schema": TRACE_SCHEMA,
        "clock": tracer.clock.name,
        "trace": root.to_dict(),
    }


def trace_to_json(tracer: Tracer) -> str:
    """Canonical JSON text for the finished trace (newline-terminated)."""
    payload = trace_to_dict(tracer)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _format_metrics(span: Span) -> str:
    parts = []
    for key in sorted(span.metrics):
        value = span.metrics[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:g}")
        else:
            parts.append(f"{key}={value}")
    return "  ".join(parts)


def format_trace(tracer: Tracer) -> str:
    """An indented span tree with durations and metrics, for terminals."""
    root = tracer.finish()
    lines: List[str] = [f"trace (clock={tracer.clock.name})"]

    def render(span: Span, depth: int) -> None:
        indent = "  " * depth
        line = f"{indent}{span.name}  [{span.duration * 1000.0:.1f} ms]"
        metrics = _format_metrics(span)
        if metrics:
            line += f"  {metrics}"
        lines.append(line)
        for child in span.children:
            render(child, depth + 1)

    render(root, 1)
    return "\n".join(lines)
