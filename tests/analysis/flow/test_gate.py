"""The tier-1 flow gate: ``src/repro`` is clean under every flow pass.

Companion to ``tests/analysis/test_gate.py`` (the per-file gate): the
whole-program taint, purity, race, dense-allocation and
sort-stability passes must all report nothing on the real
tree, so neither nondeterminism nor a quadratic densification can hide
behind a call hop — or behind the composition of two individually-clean
kernels.
"""

from pathlib import Path

from repro.analysis.flow import run_flow
from repro.analysis.rules import FLOW_RULE_IDS

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src" / "repro"


def test_src_repro_has_zero_flow_findings():
    result = run_flow([SRC])
    assert result.stats["modules"] > 100, "gate must see the whole tree"
    assert result.ok, "\n".join(
        f"{f.location} [{f.rule_id}] {f.message}\n  "
        + "\n  ".join(f.chain)
        for f in result.findings
    )


def test_gate_exercises_every_flow_pass():
    # The zero-findings gate only means something if every pass ran;
    # each flow rule id must be selected by default, including the race
    # pass.
    assert FLOW_RULE_IDS == (
        "flow-nondet-taint",
        "flow-parallel-purity",
        "flow-shared-state-race",
        "flow-dense-alloc",
        "flow-unstable-order",
    )
    result = run_flow([SRC])
    for rule_id in FLOW_RULE_IDS:
        assert not any(
            ff.finding.rule_id == rule_id and not ff.suppressed
            for ff in result.all_findings
        ), rule_id


def test_no_sanctioned_flow_suppressions_accumulate():
    # Inline flow suppressions in src/repro are allowed but must stay
    # rare and deliberate; this ratchet stops silent accumulation.
    result = run_flow([SRC])
    # The 3 sanctioned flow-dense-alloc sites: SparsePairwise.to_square
    # (oracle densification) and the two component-budget work matrices
    # in the sparse linkage.
    assert result.suppressed <= 3, (
        "unexpected growth in flow suppressions; justify or fix instead"
    )


def test_flow_gate_is_deterministic():
    first = run_flow([SRC])
    second = run_flow([SRC])
    assert first.findings == second.findings
    assert [ff.finding for ff in first.all_findings] == [
        ff.finding for ff in second.all_findings
    ]
    assert first.stats == second.stats
