"""pushlint: determinism & hygiene static analysis for this reproduction.

The validity of the whole repo rests on the DESIGN.md claim that every live
dependency of PushAdMiner is replaced by a *deterministic* simulator. This
package machine-checks the invariants that claim depends on, with
per-line suppression. Three per-file rules check each module alone: no
network imports, a clean package DAG, and no set iteration frozen into
ordered output. Whole-program passes (``repro.analysis.flow``) check the
rest across modules: nondeterminism taint (wall-clock reads, global RNG,
unsorted filesystem enumeration, ``id()``/``hash()`` order) reaching an
emit sink or pipeline stage, parallel-purity of callables shipped across
the process boundary, shared-state races between concurrent parties,
quadratic dense allocations in the kernel region and tie-unstable sorts.

Every run applies all of them: ``python -m repro.analysis src/repro``
(see docs/ANALYSIS.md), or programmatically::

    from repro.analysis import lint
    result, _ = lint([Path("src/repro")])
    assert result.ok, result.findings

The static passes are cross-validated dynamically by
``repro.analysis.sanitizer`` (DetSan), a runtime harness that shuffles
every order the codebase promises not to depend on and checksums kernel
outputs (see docs/ANALYSIS.md).

``repro.analysis`` sits near the bottom of the package DAG: its only
repro dependency is ``repro.perf`` (DetSan hooks its ``ExecutionPlan``),
so it can judge every other layer without being entangled with any.
"""

from repro.analysis.cli import lint
from repro.analysis.engine import AnalysisEngine, AnalysisResult, iter_python_files
from repro.analysis.finding import Finding
from repro.analysis.flow import ProjectIndex, run_flow
from repro.analysis.flow.run import FlowResult
from repro.analysis.rules import ALL_RULES, FLOW_RULE_IDS, Rule, default_rules
from repro.analysis.source import ModuleSource, SourceError

__all__ = [
    "ALL_RULES",
    "FLOW_RULE_IDS",
    "AnalysisEngine",
    "AnalysisResult",
    "Finding",
    "FlowResult",
    "ModuleSource",
    "ProjectIndex",
    "Rule",
    "SourceError",
    "default_rules",
    "iter_python_files",
    "lint",
    "run_flow",
]
