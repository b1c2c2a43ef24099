"""Whole-program flow analysis for pushlint.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time, so a wall-clock read wrapped in a helper one module away would be
invisible to them at the point where it matters — the reporter that emits
it, or the kernel that ships it into a worker process. This package is
the interprocedural layer:

* :class:`~repro.analysis.flow.index.ProjectIndex` — parses the project
  once, resolves imports (including package re-exports) into a symbol
  table, and builds a conservative call graph;
* :class:`~repro.analysis.flow.taint.NondetTaintPass`
  (rule ``flow-nondet-taint``) — propagates nondeterminism sources along
  the call graph and reports them at emit/report/serialization sinks and
  ``PushAdMiner.stage_*`` roots, with the full source-to-sink chain;
* :class:`~repro.analysis.flow.purity.ParallelPurityPass`
  (rule ``flow-parallel-purity``) — verifies every callable shipped
  across the process boundary (``ExecutionPlan.stream``/``run``,
  ``pool.submit``) is a pure module-level function;
* :class:`~repro.analysis.flow.races.SharedStateRacePass`
  (rule ``flow-shared-state-race``) — reports write-write and read-write
  conflicts on module-level state between concurrently-shipped kernels,
  and between a kernel and its orchestrator between submit and join;
* :class:`~repro.analysis.flow.dense.DenseAllocPass`
  (rule ``flow-dense-alloc``) — tracks symbolic array extents through
  the :mod:`~repro.analysis.flow.shapes` abstract domain and certifies
  no function in the sparse/parallel kernel region allocates a dense
  array quadratic in the record count;
* :class:`~repro.analysis.flow.ordering.UnstableOrderPass`
  (rule ``flow-unstable-order``) — reports default-``kind``
  ``np.argsort``/``np.sort`` calls whose tie order can reach a merge or
  emit sink.

Every ``python -m repro.analysis`` run runs all of them; :func:`run_flow`
runs them alone.
"""

from repro.analysis.flow.dense import DenseAllocPass
from repro.analysis.flow.index import CallGraph, ProjectIndex
from repro.analysis.flow.ordering import UnstableOrderPass
from repro.analysis.flow.purity import ParallelPurityPass
from repro.analysis.flow.races import SharedStateRacePass
from repro.analysis.flow.run import FlowResult, run_flow
from repro.analysis.flow.scope import KernelScope
from repro.analysis.flow.summary import FunctionSummary, ModuleSummary
from repro.analysis.flow.taint import NondetTaintPass

__all__ = [
    "CallGraph",
    "DenseAllocPass",
    "FlowResult",
    "FunctionSummary",
    "KernelScope",
    "ModuleSummary",
    "NondetTaintPass",
    "ParallelPurityPass",
    "ProjectIndex",
    "SharedStateRacePass",
    "UnstableOrderPass",
    "run_flow",
]
