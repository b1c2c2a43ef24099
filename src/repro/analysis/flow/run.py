"""One-call driver for the whole-program passes."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.finding import Finding
from repro.analysis.flow.dense import DenseAllocPass
from repro.analysis.flow.index import ProjectIndex
from repro.analysis.flow.ordering import UnstableOrderPass
from repro.analysis.flow.purity import ParallelPurityPass
from repro.analysis.flow.races import SharedStateRacePass
from repro.analysis.flow.taint import FlowFinding, NondetTaintPass


@dataclass
class FlowResult:
    """Everything one whole-program run produced."""

    findings: List[Finding] = field(default_factory=list)  # unsuppressed
    suppressed: int = 0
    all_findings: List[FlowFinding] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings


def run_flow(
    paths: Sequence[Path],
    *,
    index: Optional[ProjectIndex] = None,
) -> FlowResult:
    """Run every whole-program pass over a project.

    A pre-built ``index`` skips indexing (:func:`repro.analysis.cli.lint`
    builds it from the files it already parsed).
    """
    if index is None:
        index = ProjectIndex.build(paths)
    graph = index.callgraph()

    collected: List[FlowFinding] = [
        *NondetTaintPass(index, graph).run(),
        *ParallelPurityPass(index, graph).run(),
        *SharedStateRacePass(index, graph).run(),
        *DenseAllocPass(index, graph).run(),
        *UnstableOrderPass(index, graph).run(),
    ]
    collected.sort(key=lambda ff: ff.finding)

    result = FlowResult(all_findings=collected, stats=index.stats())
    for ff in collected:
        if ff.suppressed:
            result.suppressed += 1
        else:
            result.findings.append(ff.finding)
    return result
