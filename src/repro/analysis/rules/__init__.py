"""The pushlint rule registry.

Adding a rule = writing a :class:`~repro.analysis.rules.base.Rule` subclass
and listing it in :data:`ALL_RULES`. IDs are kebab-case and stable — they
appear in suppression comments and in ``--select``/``--ignore``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Type

from repro.analysis.rules.annotations import PublicApiAnnotationsRule
from repro.analysis.rules.base import ImportMap, Rule, module_in
from repro.analysis.rules.flow import (
    FlowDenseAllocRule,
    FlowNondetTaintRule,
    FlowParallelPurityRule,
    FlowRule,
    FlowSharedStateRaceRule,
    FlowUnstableOrderRule,
)
from repro.analysis.rules.hygiene import NoBareExceptRule, NoMutableDefaultRule
from repro.analysis.rules.layering import ImportLayeringRule
from repro.analysis.rules.network import NoNetworkImportsRule
from repro.analysis.rules.rng import NoUnseededRngRule
from repro.analysis.rules.set_iteration import DeterministicEmitRule
from repro.analysis.rules.wallclock import NoWallclockRule

ALL_RULES: Tuple[Type[Rule], ...] = (
    NoWallclockRule,
    NoUnseededRngRule,
    NoNetworkImportsRule,
    ImportLayeringRule,
    NoMutableDefaultRule,
    NoBareExceptRule,
    DeterministicEmitRule,
    PublicApiAnnotationsRule,
    FlowNondetTaintRule,
    FlowParallelPurityRule,
    FlowSharedStateRaceRule,
    FlowDenseAllocRule,
    FlowUnstableOrderRule,
)

#: The subset of :data:`ALL_RULES` implemented by whole-program passes
#: (run by the CLI under ``--flow``, not by the per-module engine).
FLOW_RULE_IDS: Tuple[str, ...] = tuple(
    rule.id for rule in ALL_RULES if issubclass(rule, FlowRule)
)


def default_rules() -> List[Rule]:
    """One fresh instance of every registered rule."""
    return [rule_cls() for rule_cls in ALL_RULES]


def rules_by_id() -> Dict[str, Type[Rule]]:
    return {rule_cls.id: rule_cls for rule_cls in ALL_RULES}


def select_rules(
    select: Sequence[str] = (), ignore: Sequence[str] = ()
) -> List[Rule]:
    """Instantiate the registry filtered by explicit selection/ignores."""
    registry = rules_by_id()
    unknown = [r for r in [*select, *ignore] if r not in registry]
    if unknown:
        known = ", ".join(sorted(registry))
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)} (known: {known})")
    wanted = list(select) if select else list(registry)
    return [registry[rule_id]() for rule_id in wanted if rule_id not in set(ignore)]


__all__ = [
    "ALL_RULES",
    "FLOW_RULE_IDS",
    "FlowRule",
    "ImportMap",
    "Rule",
    "default_rules",
    "module_in",
    "rules_by_id",
    "select_rules",
]
