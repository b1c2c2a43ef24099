"""Registry entries for the whole-program flow passes.

The flow passes (:mod:`repro.analysis.flow`) are *interprocedural*: they
need a project-wide index and call graph, so they cannot run inside the
per-module :meth:`Rule.check` protocol. These classes exist to give the
passes first-class rule identities — stable kebab-case ids that work with
inline ``# pushlint: disable=...`` comments at the sink line,
``--list-rules`` and the docs drift test — while their per-module
``check`` is intentionally empty. Every pushlint run also runs the
passes themselves.
"""

from __future__ import annotations

from typing import ClassVar, Iterator

from repro.analysis.finding import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.source import ModuleSource


class FlowRule(Rule):
    """Marker base: a rule implemented by a whole-program pass."""

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        """Whole-program rules produce nothing per module."""
        return iter(())


class FlowNondetTaintRule(FlowRule):
    id: ClassVar[str] = "flow-nondet-taint"
    description: ClassVar[str] = (
        "whole-program: no nondeterminism source — wall-clock, "
        "global RNG, unsorted filesystem enumeration, id()/hash() ordering "
        "— may transitively reach an emit/report/serialization sink or a "
        "PushAdMiner stage"
    )


class FlowParallelPurityRule(FlowRule):
    id: ClassVar[str] = "flow-parallel-purity"
    description: ClassVar[str] = (
        "whole-program: every callable shipped across the process "
        "boundary (ExecutionPlan.stream/run, pool.submit) must be a "
        "module-level function whose transitive closure writes no module "
        "state and reaches no nondeterminism source"
    )


class FlowSharedStateRaceRule(FlowRule):
    id: ClassVar[str] = "flow-shared-state-race"
    description: ClassVar[str] = (
        "whole-program: no module-level location may be written "
        "by one concurrently-shipped kernel while another kernel (or the "
        "orchestrator, between submit and join) reads or writes the same "
        "location — write-write and read-write races"
    )


class FlowDenseAllocRule(FlowRule):
    id: ClassVar[str] = "flow-dense-alloc"
    description: ClassVar[str] = (
        "whole-program: no function in the sparse/parallel kernel "
        "region — ExecutionPlan-shipped kernels, storage=\"sparse\"-guarded "
        "paths, Sparse* surfaces — may allocate or broadcast a dense array "
        "whose symbolic size is quadratic in the record count; stream "
        "O(tile*n) rows or keep sparse storage"
    )


class FlowUnstableOrderRule(FlowRule):
    id: ClassVar[str] = "flow-unstable-order"
    description: ClassVar[str] = (
        "whole-program: no default-kind np.argsort/np.sort "
        "whose tie order can reach a merge or emit sink — pass "
        "kind=\"stable\""
    )

