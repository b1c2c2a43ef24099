"""The numeric-exactness pass (``flow-dtype-promotion``).

The paper's tables are reproduced bit-for-bit only if every float that
reaches an emit/serialization sink went through a *declared* precision
path. Three silent widenings break that contract:

* **binop** — a float32 array meets a float64 array (numpy promotes the
  pair to float64, so the float32 side's rounding is platform-visible);
  the classic hidden form is a helper *returning* the float32 array, so
  the combination site never mentions a dtype at all. The extractor
  defers those operands as ``call:<ref>`` atoms and this pass chases
  them through callee ``returns_dtype`` facts.
* **div** — integer/integer true division materializing float64 out of
  exact integer counts.
* **accum** — ``sum()`` over Python floats (pairwise vs sequential
  summation gives different roundings than the ``math.fsum``/stable
  kernels the runtime uses).

Events are collected per function by the extractor; this pass propagates
them along the call graph and reports them **at the sink**, exactly like
``flow-nondet-taint`` — but only when the promotion lives in (or is
returned from) the :class:`~repro.analysis.flow.scope.KernelScope`
kernel region, so ad-hoc float math in dense-mode-only code stays quiet.

The pipeline computes in float64 only, so no branch sanctions a mix:
inline ``# pushlint: disable=flow-dtype-promotion`` on the event line
sanctions a site globally; on the sink's ``def`` line it suppresses that
sink's findings.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.finding import Finding, Severity
from repro.analysis.flow.index import CallGraph, FuncKey, ProjectIndex
from repro.analysis.flow.scope import KernelScope, resolve_dtype
from repro.analysis.flow.summary import DtypeEvent
from repro.analysis.flow.taint import FlowFinding, _is_sink

RULE_ID = "flow-dtype-promotion"


class DtypePromotionPass:
    """Report implicit dtype widenings on kernel-region-to-sink paths."""

    def __init__(self, index: ProjectIndex, graph: Optional[CallGraph] = None):
        self.index = index
        self.graph = graph if graph is not None else index.callgraph()
        self.scope = KernelScope(self.index, self.graph)

    def sinks(self) -> List[Tuple[FuncKey, str]]:
        out: List[Tuple[FuncKey, str]] = []
        for module, fn in self.index.all_functions():
            category = _is_sink(fn.qualname)
            if category is not None:
                out.append(((module, fn.qualname), category))
        return out

    def run(self) -> List[FlowFinding]:
        findings: List[FlowFinding] = []
        for sink, category in self.sinks():
            findings.extend(self._check_sink(sink, category))
        return sorted(findings, key=lambda ff: ff.finding)

    # ------------------------------------------------------------------
    def _check_sink(self, sink: FuncKey, category: str) -> List[FlowFinding]:
        sink_summary = self.index.modules[sink[0]]
        sink_fn = sink_summary.functions[sink[1]]
        paths = self.graph.bfs_paths(sink)

        out: List[FlowFinding] = []
        seen: set = set()
        for reached in sorted(paths):
            fn = self.index.function(reached)
            if fn is None:
                continue
            for event in fn.dtype_events:
                detail = self._classify(reached, event)
                if detail is None:
                    continue
                if self._sanctioned(reached[0], event):
                    continue
                identity = (reached, event.kind, event.what, event.line)
                if identity in seen:
                    continue
                seen.add(identity)
                out.append(
                    self._finding(
                        sink, category, sink_fn.line, sink_summary.path,
                        paths[reached], reached, event, detail,
                    )
                )
        return out

    def _classify(
        self, reached: FuncKey, event: DtypeEvent
    ) -> Optional[str]:
        """Firing description for an event, or None when it stays quiet."""
        left, left_via = resolve_dtype(self.index, event.left)
        right, right_via = resolve_dtype(self.index, event.right)
        in_scope = reached in self.scope or any(
            key in self.scope for key in left_via + right_via
        )
        if not in_scope:
            return None
        if event.kind == "binop":
            if {left, right} == {"float32", "float64"}:
                hidden = (
                    " (float32 side returned by "
                    + ", ".join(
                        f"'{k[0]}.{k[1]}'" for k in left_via + right_via
                    )
                    + ")"
                    if left_via or right_via
                    else ""
                )
                return (
                    "implicit float32/float64 mix promotes to float64"
                    + hidden
                )
            return None
        if event.kind == "div":
            if left == "int" and right == "int":
                return (
                    "int/int true division materializes float64 from "
                    "exact integer counts"
                )
            return None
        # accum: builtin sum() over Python floats, always inexact.
        return (
            "builtin sum() accumulates Python floats (sequential rounding; "
            "use the stable summation kernels)"
        )

    def _sanctioned(self, module: str, event: DtypeEvent) -> bool:
        summary = self.index.modules.get(module)
        if summary is None:
            return False
        return summary.suppressions.is_suppressed(RULE_ID, event.line)

    def _finding(
        self,
        sink: FuncKey,
        category: str,
        sink_line: int,
        sink_path: str,
        path: Tuple[FuncKey, ...],
        event_fn: FuncKey,
        event: DtypeEvent,
        detail: str,
    ) -> FlowFinding:
        event_module = self.index.modules[event_fn[0]]
        event_loc = f"{event_module.path}:{event.line}"
        chain = tuple(
            [self.index.describe(key) for key in path]
            + [f"{event.kind} {event.what} ({event_loc})"]
        )
        hops = len(path) - 1
        message = (
            f"{category} '{sink[0]}.{sink[1]}' transitively reaches "
            f"{detail}: {event.what} at {event_loc} "
            f"({hops} call hop(s); --explain prints the chain)"
        )
        summary = self.index.modules[sink[0]]
        finding = Finding(
            path=sink_path,
            line=sink_line,
            column=1,
            rule_id=RULE_ID,
            severity=Severity.ERROR,
            message=message,
            source_line=summary.functions[sink[1]].line_text,
            chain=chain,
        )
        suppressed = summary.suppressions.is_suppressed(RULE_ID, sink_line)
        return FlowFinding(finding=finding, suppressed=suppressed)
