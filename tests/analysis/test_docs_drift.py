"""Doc drift: every registered rule id must be documented.

docs/ANALYSIS.md is the operator-facing catalog; a rule that exists in
``ALL_RULES`` but not in the doc's rules table is invisible debt, and a
documented id that no longer exists misleads. Both directions are pinned.
"""

import re
from pathlib import Path

from repro.analysis import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC = REPO_ROOT / "docs" / "ANALYSIS.md"

#: Rule ids rendered as inline code somewhere in the doc.
_CODE_SPAN = re.compile(r"`([a-z0-9-]+)`")


def documented_ids() -> set:
    text = DOC.read_text(encoding="utf-8")
    registered = {rule.id for rule in ALL_RULES}
    return {m for m in _CODE_SPAN.findall(text) if m in registered or "-" in m}


def test_doc_exists():
    assert DOC.is_file()


def test_every_registered_rule_is_documented():
    text = DOC.read_text(encoding="utf-8")
    missing = [rule.id for rule in ALL_RULES if f"`{rule.id}`" not in text]
    assert not missing, f"rules absent from docs/ANALYSIS.md: {missing}"


def test_flow_rules_have_their_own_section():
    text = DOC.read_text(encoding="utf-8")
    assert "## Whole-program passes" in text
    assert "--explain" in text
    assert "flow-nondet-taint" in text
    assert "flow-parallel-purity" in text


def test_no_stale_rule_ids_in_rules_table():
    # Ids that *look like* pushlint rules (kebab-case inside backticks in
    # table rows starting with "| `") must all be registered.
    registered = {rule.id for rule in ALL_RULES}
    stale = []
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.lstrip().startswith("| `"):
            continue
        for rule_id in _CODE_SPAN.findall(line.split("|")[1]):
            if rule_id not in registered:
                stale.append(rule_id)
    assert not stale, f"documented but unregistered rule ids: {stale}"
