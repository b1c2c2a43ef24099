"""The interprocedural nondeterminism-taint pass (``flow-nondet-taint``).

Sources — wall-clock reads, global/unseeded RNG, unsorted filesystem
enumeration, ``id()``/``hash()`` object-identity ordering — are collected
per function by the extractor (honouring the same sanctioned-module
exemptions as the per-file rules). This pass propagates them along the
call graph and reports them **at the sink**: an emit/report/serialization
function, or a ``PushAdMiner`` pipeline stage. The finding carries the
full source-to-sink call chain, so ``--explain`` can print exactly how
the nondeterminism flows into reproducible output.

Suppression is sink-oriented: an inline ``# pushlint:
disable=flow-nondet-taint`` on the sink's ``def`` line silences the
interprocedural finding; the same comment on the *source* line sanctions
that source everywhere (for deliberate, reviewed exceptions).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.finding import Finding
from repro.analysis.flow.index import CallGraph, FuncKey, ProjectIndex
from repro.analysis.flow.summary import TaintSource

RULE_ID = "flow-nondet-taint"

#: Function/method names treated as emit/report/serialization sinks.
SINK_NAME_RE = re.compile(
    r"^(emit|report|write|save|dump|render|serialize|format|print)(_|$)"
    r"|_(report|json|markdown|table|svg|human)$"
    r"|^to_(json|dict)$"
)

#: Pipeline-stage sink roots: ``stage_*`` methods anywhere, plus
#: ``PushAdMiner.run`` — everything reachable from a stage feeds the
#: paper's tables, so taint entering a stage is reported at the stage.
STAGE_METHOD_PREFIX = "stage_"
STAGE_CLASS = "PushAdMiner"


@dataclass(frozen=True)
class FlowFinding:
    """A flow finding plus whether an inline directive suppresses it."""

    finding: Finding
    suppressed: bool


def _is_sink(qualname: str) -> Optional[str]:
    """Sink category of a function qualname, or None."""
    name = qualname.rsplit(".", 1)[-1]
    if name.startswith(STAGE_METHOD_PREFIX):
        return "pipeline stage"
    if "." in qualname:
        class_name = qualname.split(".", 1)[0]
        if class_name == STAGE_CLASS and name == "run":
            return "pipeline stage"
    if SINK_NAME_RE.search(name):
        return "emit/serialization sink"
    return None


class NondetTaintPass:
    """Propagate nondeterminism sources to sinks along the call graph."""

    def __init__(self, index: ProjectIndex, graph: Optional[CallGraph] = None):
        self.index = index
        self.graph = graph if graph is not None else index.callgraph()

    def sinks(self) -> List[Tuple[FuncKey, str]]:
        """Every sink root, sorted, with its category label."""
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
            for source in fn.sources:
                if self._source_sanctioned(reached[0], source):
                    continue
                identity = (reached, source.kind, source.what, source.line)
                if identity in seen:
                    continue
                seen.add(identity)
                out.append(
                    self._finding(
                        sink, category, sink_fn.line, sink_summary.path,
                        paths[reached], reached, source,
                    )
                )
        return out

    def _source_sanctioned(self, module: str, source: TaintSource) -> bool:
        """True when the source line itself carries a flow suppression."""
        summary = self.index.modules.get(module)
        if summary is None:
            return False
        return summary.suppressions.is_suppressed(RULE_ID, source.line)

    def _finding(
        self,
        sink: FuncKey,
        category: str,
        sink_line: int,
        sink_path: str,
        path: Tuple[FuncKey, ...],
        source_fn: FuncKey,
        source: TaintSource,
    ) -> FlowFinding:
        source_module = self.index.modules[source_fn[0]]
        source_loc = f"{source_module.path}:{source.line}"
        chain = tuple(
            [self.index.describe(key) for key in path]
            + [f"{source.kind} {source.what} ({source_loc})"]
        )
        hops = len(path) - 1
        message = (
            f"{category} '{sink[0]}.{sink[1]}' transitively reaches "
            f"{source.kind} source {source.what} at {source_loc} "
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
