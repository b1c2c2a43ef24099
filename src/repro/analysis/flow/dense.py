"""The Theta(n^2) allocation pass (``flow-dense-alloc``).

Statically certifies the memory-complexity contract PR 8 established at
runtime: **no function in the sparse/parallel kernel region allocates a
dense array quadratic in the record count**. The kernel region is
:class:`~repro.analysis.flow.scope.KernelScope` — everything reachable
from an ``ExecutionPlan``-shipped kernel, a ``storage="sparse"``-guarded
call, or a ``Sparse*``-typed surface.

An allocation fires when, after resolving deferred ``param:<name>``
extents through the call-site fixpoint, at least two dimensions are
``big`` (record-count proportional) or any dimension is ``quad`` (a
product of two ``big`` extents — quadratic even one-dimensional). Knob
guards exclude explicitly-dense branches (``if storage == "dense":``,
``if not isinstance(d, SparsePairwise):``); streaming ``tile x n``
allocations never fire because a tile extent is not ``big``.

This is the one guard of the O(n^2) contract. A dense-expansion helper
(an expand-to-square routine) is not a root and carries no sanction,
so kernel code that reaches it is reported with that caller at
``chain[0]``, while dense-mode callers outside the region stay legal.

Findings are **site-reported** — at the allocation, with the root-to-
allocation call chain attached — and an inline ``# pushlint:
disable=flow-dense-alloc`` on the allocation line sanctions the site for
*every* caller (the oracle ``SparsePairwise.to_square`` and the certified
component-bounded work matrices carry one, each with a justification
comment).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.finding import Finding
from repro.analysis.flow.index import CallGraph, FuncKey, ProjectIndex
from repro.analysis.flow.scope import KernelScope, param_extents, resolve_extent
from repro.analysis.flow.summary import AllocSite
from repro.analysis.flow.taint import FlowFinding

RULE_ID = "flow-dense-alloc"


def _on_dense_path(guards: Tuple[str, ...]) -> bool:
    """True when the guards pin the site to an explicitly non-sparse branch."""
    for atom in guards:
        if atom == "!sparse-inst" or atom == "storage!=sparse":
            return True
        if atom.startswith("storage==") and atom != "storage==sparse":
            return True
    return False


class DenseAllocPass:
    """Report quadratic allocations inside the kernel region."""

    def __init__(self, index: ProjectIndex, graph: Optional[CallGraph] = None):
        self.index = index
        self.graph = graph if graph is not None else index.callgraph()

    def run(self) -> List[FlowFinding]:
        scope = KernelScope(self.index, self.graph)
        extents = param_extents(self.index)
        out: List[FlowFinding] = []
        for member in sorted(scope.members):
            fn = self.index.function(member)
            if fn is None:
                continue
            fn_env = extents.get(member)
            for alloc in fn.allocs:
                if _on_dense_path(alloc.guards):
                    continue
                resolved = [
                    resolve_extent(cls, fn_env) for cls in alloc.classes
                ]
                quadratic = any(cls == "quad" for cls in resolved) or (
                    sum(1 for cls in resolved if cls == "big") >= 2
                )
                if not quadratic:
                    continue
                out.append(self._finding(member, alloc, resolved, scope))
        return sorted(out, key=lambda ff: ff.finding)

    def _finding(
        self,
        member: FuncKey,
        alloc: AllocSite,
        resolved: List[str],
        scope: KernelScope,
    ) -> FlowFinding:
        summary = self.index.modules[member[0]]
        root, reason, path = scope.members[member]
        dims = ", ".join(
            f"{ext}:{cls}" for ext, cls in zip(alloc.extents, resolved)
        )
        loc = f"{summary.path}:{alloc.line}"
        hops = len(path) - 1
        message = (
            f"O(n^2) allocation {alloc.what}(({dims})) in the sparse/parallel "
            f"kernel region — {reason}, reachable from "
            f"'{root[0]}.{root[1]}' in {hops} call hop(s); stream O(tile*n) "
            f"rows or keep sparse storage "
            f"(--explain prints the chain)"
        )
        chain = tuple(
            [self.index.describe(key) for key in path]
            + [f"allocation {alloc.what}(({dims})) ({loc})"]
        )
        finding = Finding(
            path=summary.path,
            line=alloc.line,
            column=1,
            rule_id=RULE_ID,
            message=message,
            source_line=alloc.line_text,
            chain=chain,
        )
        suppressed = summary.suppressions.is_suppressed(RULE_ID, alloc.line)
        return FlowFinding(finding=finding, suppressed=suppressed)
