"""One-call driver for the whole-program passes (CLI ``--flow``)."""

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
from repro.analysis.rules import FLOW_RULE_IDS


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
    rule_ids: Sequence[str] = FLOW_RULE_IDS,
    index: Optional[ProjectIndex] = None,
) -> FlowResult:
    """Run the taint + purity + race + shape passes over a project.

    ``rule_ids`` selects which passes run (``--select``/``--ignore``
    filtered by the CLI); a pre-built ``index`` can be supplied to skip
    indexing (tests).
    """
    if index is None:
        index = ProjectIndex.build(paths)
    graph = index.callgraph()

    collected: List[FlowFinding] = []
    if "flow-nondet-taint" in rule_ids:
        collected.extend(NondetTaintPass(index, graph).run())
    if "flow-parallel-purity" in rule_ids:
        collected.extend(ParallelPurityPass(index, graph).run())
    if "flow-shared-state-race" in rule_ids:
        collected.extend(SharedStateRacePass(index, graph).run())
    if "flow-dense-alloc" in rule_ids:
        collected.extend(DenseAllocPass(index, graph).run())
    if "flow-unstable-order" in rule_ids:
        collected.extend(UnstableOrderPass(index, graph).run())
    collected.sort(key=lambda ff: ff.finding)

    result = FlowResult(all_findings=collected, stats=index.stats())
    for ff in collected:
        if ff.suppressed:
            result.suppressed += 1
        else:
            result.findings.append(ff.finding)
    return result
