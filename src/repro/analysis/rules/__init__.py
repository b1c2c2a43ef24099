"""The pushlint rule registry.

Adding a rule = writing a :class:`~repro.analysis.rules.base.Rule` subclass
and listing it in :data:`ALL_RULES`. IDs are kebab-case and stable — they
appear in suppression comments and in every report.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from repro.analysis.rules.base import Rule
from repro.analysis.rules.flow import (
    FlowDenseAllocRule,
    FlowNondetTaintRule,
    FlowParallelPurityRule,
    FlowRule,
    FlowSharedStateRaceRule,
    FlowUnstableOrderRule,
)
from repro.analysis.rules.layering import ImportLayeringRule
from repro.analysis.rules.network import NoNetworkImportsRule
from repro.analysis.rules.set_iteration import DeterministicEmitRule

ALL_RULES: Tuple[Type[Rule], ...] = (
    NoNetworkImportsRule,
    ImportLayeringRule,
    DeterministicEmitRule,
    FlowNondetTaintRule,
    FlowParallelPurityRule,
    FlowSharedStateRaceRule,
    FlowDenseAllocRule,
    FlowUnstableOrderRule,
)

#: The subset of :data:`ALL_RULES` implemented by whole-program passes
#: (run by :func:`~repro.analysis.flow.run_flow`, not per module).
FLOW_RULE_IDS: Tuple[str, ...] = tuple(
    rule.id for rule in ALL_RULES if issubclass(rule, FlowRule)
)


def default_rules() -> List[Rule]:
    """One fresh instance of every registered rule."""
    return [rule_cls() for rule_cls in ALL_RULES]


def rules_by_id() -> Dict[str, Type[Rule]]:
    return {rule_cls.id: rule_cls for rule_cls in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "FLOW_RULE_IDS",
    "FlowRule",
    "Rule",
    "default_rules",
    "rules_by_id",
]
