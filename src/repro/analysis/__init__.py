"""pushlint: determinism & hygiene static analysis for this reproduction.

The validity of the whole repo rests on the DESIGN.md claim that every live
dependency of PushAdMiner is replaced by a *deterministic* simulator. This
package machine-checks the invariants that claim depends on — no wall-clock
reads, no unseeded RNG, no network imports, a clean package DAG — plus a
few hygiene rules, with per-line suppression.

Run it as ``python -m repro.analysis src/repro`` (see docs/ANALYSIS.md),
or programmatically::

    from repro.analysis import AnalysisEngine
    result = AnalysisEngine().run([Path("src/repro")])
    assert result.ok, result.findings

The per-file rules are complemented by *whole-program* passes
(``repro.analysis.flow``): cross-module nondeterminism taint,
parallel-purity of callables shipped across the process boundary,
shared-state races between concurrent parties, quadratic dense
allocations in the kernel region and tie-unstable sorts. Run them with
``python -m repro.analysis --flow`` or::

    from repro.analysis import run_flow
    flow = run_flow([Path("src/repro")])
    assert flow.ok, flow.findings

The static passes are cross-validated dynamically by
``repro.analysis.sanitizer`` (DetSan), a runtime harness that shuffles
every order the codebase promises not to depend on and checksums kernel
outputs (see docs/ANALYSIS.md).

``repro.analysis`` sits near the bottom of the package DAG: its only
repro dependency is ``repro.perf`` (DetSan hooks its ``ExecutionPlan``),
so it can judge every other layer without being entangled with any.
"""

from repro.analysis.engine import AnalysisEngine, AnalysisResult, iter_python_files
from repro.analysis.finding import Finding, Severity
from repro.analysis.flow import ProjectIndex, run_flow
from repro.analysis.flow.run import FlowResult
from repro.analysis.rules import (
    ALL_RULES,
    FLOW_RULE_IDS,
    Rule,
    default_rules,
    select_rules,
)
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
    "Severity",
    "SourceError",
    "default_rules",
    "iter_python_files",
    "run_flow",
    "select_rules",
]
