"""The tier-1 gate: ``src/repro`` and ``benchmarks`` are pushlint-clean.

This is the machine-checked version of the DESIGN.md determinism claim,
and it runs what ``scripts/check.sh`` runs: every rule, the per-file ones
and the whole-program flow passes, over ``src/repro`` and the paper
benchmarks. A finding here means a change reintroduced a nondeterminism
(or layering) bug; fix it, or suppress it inline with a reason where the
rule is wrong about that line.
"""

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, FLOW_RULE_IDS, lint
from repro.analysis.reporters import format_human

REPO_ROOT = Path(__file__).resolve().parents[2]
ROOTS = [REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"]


@pytest.fixture(scope="module")
def gate():
    return lint(ROOTS)


def test_rule_catalog_is_complete():
    assert sorted(rule.id for rule in ALL_RULES) == [
        "deterministic-emit",
        "flow-dense-alloc",
        "flow-nondet-taint",
        "flow-parallel-purity",
        "flow-shared-state-race",
        "flow-unstable-order",
        "import-layering",
        "no-network-imports",
    ]


def test_src_repro_has_zero_findings(gate):
    result, _ = gate
    assert result.files_checked >= 50, "gate must actually see the codebase"
    assert result.flow_stats["modules"] > 100, "gate must see the whole tree"
    assert result.ok, "\n" + format_human(result)


def test_benchmarks_and_scripts_have_zero_findings(gate):
    # The benchmark drivers feed the paper's numbers too, so the gate
    # holds them to the same rule set as src/repro.
    result, _ = gate
    bench = sorted((REPO_ROOT / "benchmarks").rglob("*.py"))
    assert bench, "benchmarks/ must exist and contain Python files"
    assert not [f for f in result.findings if f.path.startswith("benchmarks/")]


def test_gate_exercises_every_flow_pass(gate):
    # The zero-findings gate only means something if every pass ran.
    result, _ = gate
    assert FLOW_RULE_IDS == (
        "flow-nondet-taint",
        "flow-parallel-purity",
        "flow-shared-state-race",
        "flow-dense-alloc",
        "flow-unstable-order",
    )
    assert set(FLOW_RULE_IDS) <= set(result.rule_ids)


def test_no_sanctioned_flow_suppressions_accumulate(gate):
    # Inline suppressions are allowed but must stay rare and deliberate;
    # this ratchet stops silent accumulation. The 3 sanctioned sites are
    # flow-dense-alloc ones: SparsePairwise.to_square (oracle
    # densification) and the two component-budget work matrices in the
    # sparse linkage.
    result, flow = gate
    assert result.suppressed <= 3, (
        "unexpected growth in suppressions; justify or fix instead"
    )
    assert {ff.finding.rule_id for ff in flow.all_findings} <= {
        "flow-dense-alloc"
    }


def test_gate_runs_deterministically(gate):
    first, first_flow = gate
    second, second_flow = lint(ROOTS)
    assert first.findings == second.findings
    assert first.files_checked == second.files_checked
    assert first.suppressed == second.suppressed
    assert first.flow_stats == second.flow_stats
    assert [ff.finding for ff in first_flow.all_findings] == [
        ff.finding for ff in second_flow.all_findings
    ]
