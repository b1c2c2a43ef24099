"""The tier-1 gate: ``src/repro`` must be pushlint-clean.

This is the machine-checked version of the DESIGN.md determinism claim:
no wall-clock reads, no unseeded RNG, no network imports, a clean package
DAG — across every module, forever. A finding here means a change
reintroduced a nondeterminism (or hygiene) bug; fix it, or suppress it
inline with a reason where the rule is wrong about that line.
"""

from pathlib import Path

from repro.analysis import ALL_RULES, AnalysisEngine
from repro.analysis.reporters import format_human

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_rule_catalog_is_complete():
    assert len(ALL_RULES) >= 8
    ids = {rule.id for rule in ALL_RULES}
    assert ids >= {
        "no-wallclock",
        "no-unseeded-rng",
        "no-network-imports",
        "import-layering",
        "no-mutable-default",
        "no-bare-except",
        "deterministic-emit",
        "public-api-annotations",
    }


def test_src_repro_has_zero_findings():
    engine = AnalysisEngine()  # all rules
    result = engine.run([SRC])
    assert result.files_checked > 50, "gate must actually see the codebase"
    assert result.ok, "\n" + format_human(result)


def test_benchmarks_and_scripts_have_zero_findings():
    # The gate covers everything that ships or measures: benchmark
    # drivers and repo scripts feed the paper's numbers too, so they hold
    # to the same per-file ruleset as src/repro.
    roots = [
        path
        for path in (REPO_ROOT / "benchmarks", REPO_ROOT / "scripts")
        if path.exists() and any(path.rglob("*.py"))
    ]
    assert roots, "benchmarks/ must exist and contain Python files"
    result = AnalysisEngine().run(roots)
    assert result.files_checked >= 1
    assert result.ok, "\n" + format_human(result)


def test_gate_runs_deterministically():
    first = AnalysisEngine().run([SRC])
    second = AnalysisEngine().run([SRC])
    assert first.findings == second.findings
    assert first.files_checked == second.files_checked
