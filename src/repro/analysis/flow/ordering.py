"""The tie-stability pass (``flow-unstable-order``).

Distances, scores, and heights are floats; ties among them are common
(duplicate records, symmetric pairs) and *which* of the tied elements
sorts first is exactly where run-to-run divergence hides. The one
shape unstable under ties is ``np.argsort``/``np.sort`` with the
default ``kind`` — introsort, whose equal keys permute with memory
layout. ``np.lexsort`` and ``sorted()``/``.sort()`` are stable: ties
keep input order, so they reorder nothing that was reproducible.

The extractor records these per function; this pass reports each one
**at the sink** (emit/serialization functions and pipeline stages, the
same sink model as ``flow-nondet-taint``) with the full call chain — an
unstable sort nobody's output depends on is not a finding. Suppression
is dual: ``# pushlint: disable=flow-unstable-order`` on the sort line
sanctions the site everywhere (for sorts whose ties are proven
impossible or harmless); on the sink's ``def`` line it silences the sink.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.finding import Finding
from repro.analysis.flow.index import CallGraph, FuncKey, ProjectIndex
from repro.analysis.flow.summary import SortEvent
from repro.analysis.flow.taint import FlowFinding, _is_sink

RULE_ID = "flow-unstable-order"

_ADVICE = 'default-kind sort is not stable under float ties; pass kind="stable"'


class UnstableOrderPass:
    """Report tie-unstable sorts that can reach merge/emit sinks."""

    def __init__(self, index: ProjectIndex, graph: Optional[CallGraph] = None):
        self.index = index
        self.graph = graph if graph is not None else index.callgraph()

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
            for sort in fn.sorts:
                if self._sanctioned(reached[0], sort):
                    continue
                identity = (reached, sort.kind, sort.what, sort.line)
                if identity in seen:
                    continue
                seen.add(identity)
                out.append(
                    self._finding(
                        sink, category, sink_fn.line, sink_summary.path,
                        paths[reached], reached, sort,
                    )
                )
        return out

    def _sanctioned(self, module: str, sort: SortEvent) -> bool:
        summary = self.index.modules.get(module)
        if summary is None:
            return False
        return summary.suppressions.is_suppressed(RULE_ID, sort.line)

    def _finding(
        self,
        sink: FuncKey,
        category: str,
        sink_line: int,
        sink_path: str,
        path: Tuple[FuncKey, ...],
        sort_fn: FuncKey,
        sort: SortEvent,
    ) -> FlowFinding:
        sort_module = self.index.modules[sort_fn[0]]
        sort_loc = f"{sort_module.path}:{sort.line}"
        chain = tuple(
            [self.index.describe(key) for key in path]
            + [f"{sort.kind} {sort.what} ({sort_loc})"]
        )
        hops = len(path) - 1
        message = (
            f"{category} '{sink[0]}.{sink[1]}' transitively reaches "
            f"{sort.kind} {sort.what} at {sort_loc} — {_ADVICE} "
            f"({hops} call hop(s); --explain prints the chain)"
        )
        summary = self.index.modules[sink[0]]
        finding = Finding(
            path=sink_path,
            line=sink_line,
            column=1,
            rule_id=RULE_ID,
            message=message,
            source_line=summary.functions[sink[1]].line_text,
            chain=chain,
        )
        suppressed = summary.suppressions.is_suppressed(RULE_ID, sink_line)
        return FlowFinding(finding=finding, suppressed=suppressed)
