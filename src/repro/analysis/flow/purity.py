"""The parallel-purity pass (``flow-parallel-purity``).

``repro.perf`` promises that any worker count produces bit-identical
output. That holds only if every callable shipped across the process
boundary — the kernel handed to ``ExecutionPlan.stream``/``run`` or
``pool.submit`` — is a *pure* module-level function: its transitive
closure writes no module-level state (workers would each mutate their own
copy, silently diverging from the serial path), captures no closure cells
(unpicklable, and a hidden channel for mutable state), and reaches no
nondeterminism source.

Findings are reported at the **ship site** (the ``stream``/``submit``
call), with the call chain from the shipped callable to the violation;
an inline ``# pushlint: disable=flow-parallel-purity`` on that line
suppresses them.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.analysis.finding import Finding
from repro.analysis.flow.index import (
    CallGraph,
    FuncKey,
    ProjectIndex,
    ShippedCallable,
)
from repro.analysis.flow.taint import FlowFinding

RULE_ID = "flow-parallel-purity"


class ParallelPurityPass:
    """Verify every process-boundary callable is pure and module-level."""

    def __init__(self, index: ProjectIndex, graph: Optional[CallGraph] = None):
        self.index = index
        self.graph = graph if graph is not None else index.callgraph()

    def run(self) -> List[FlowFinding]:
        findings: List[FlowFinding] = []
        for shipped in self.index.shipped_callables():
            findings.extend(self._check_ship(shipped))
        return sorted(findings, key=lambda ff: ff.finding)

    # ------------------------------------------------------------------
    def _check_ship(self, shipped: ShippedCallable) -> List[FlowFinding]:
        site = shipped.site
        if site.arg_kind == "unknown":
            # The shipped expression did not resolve to a project function
            # (e.g. a parameter, as inside ExecutionPlan.stream itself);
            # the ship is checked where the concrete callable is known.
            return []
        if site.arg_kind in ("lambda", "nested"):
            what = (
                "a lambda"
                if site.arg_kind == "lambda"
                else f"the nested function '{site.arg_ref}'"
            )
            return [
                self._finding(
                    shipped,
                    message=(
                        f"callable shipped across the process boundary via "
                        f".{site.method}() is {what}; worker payloads must "
                        f"be module-level functions (picklable, no closure "
                        f"cells)"
                    ),
                    chain=(),
                )
            ]
        if shipped.target is None:
            return []

        out: List[FlowFinding] = []
        seen: Set[Tuple[FuncKey, str, int]] = set()
        paths = self.graph.bfs_paths(shipped.target)
        for reached in sorted(paths):
            fn = self.index.function(reached)
            if fn is None:
                continue
            module = self.index.modules[reached[0]]
            for write in fn.writes:
                if module.suppressions.is_suppressed(RULE_ID, write.line):
                    continue
                identity = (reached, f"write:{write.name}", write.line)
                if identity in seen:
                    continue
                seen.add(identity)
                where = f"{module.path}:{write.line}"
                out.append(
                    self._finding(
                        shipped,
                        message=(
                            f"shipped callable '{_dot(shipped.target)}' "
                            f"transitively writes module-level state "
                            f"'{write.name}' ({write.how}) at {where}; "
                            f"worker processes would each mutate their own "
                            f"copy"
                        ),
                        chain=tuple(
                            [self.index.describe(k) for k in paths[reached]]
                            + [f"writes {write.name} ({where})"]
                        ),
                    )
                )
            for source in fn.sources:
                if module.suppressions.is_suppressed(RULE_ID, source.line):
                    continue
                identity = (reached, f"source:{source.what}", source.line)
                if identity in seen:
                    continue
                seen.add(identity)
                where = f"{module.path}:{source.line}"
                out.append(
                    self._finding(
                        shipped,
                        message=(
                            f"shipped callable '{_dot(shipped.target)}' "
                            f"transitively reaches {source.kind} source "
                            f"{source.what} at {where}; worker outputs "
                            f"would not be bit-reproducible"
                        ),
                        chain=tuple(
                            [self.index.describe(k) for k in paths[reached]]
                            + [f"{source.kind} {source.what} ({where})"]
                        ),
                    )
                )
        return out

    def _finding(
        self,
        shipped: ShippedCallable,
        message: str,
        chain: Tuple[str, ...],
    ) -> FlowFinding:
        shipper_module = self.index.modules[shipped.shipper[0]]
        site = shipped.site
        ship_desc = self.index.describe(shipped.shipper)
        finding = Finding(
            path=shipper_module.path,
            line=site.line,
            column=1,
            rule_id=RULE_ID,
            message=f"{message} [shipped from {ship_desc}]",
            source_line=site.line_text,
            chain=chain,
        )
        suppressed = shipper_module.suppressions.is_suppressed(
            RULE_ID, site.line
        )
        return FlowFinding(finding=finding, suppressed=suppressed)


def _dot(key: Optional[FuncKey]) -> str:
    return f"{key[0]}.{key[1]}" if key is not None else "?"
