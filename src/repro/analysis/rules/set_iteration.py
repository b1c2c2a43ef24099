"""deterministic-emit: never iterate a set straight into ordered output.

String hashing is salted per process, so iterating a ``set`` (or anything
built from one) yields a different order on every run. Feeding that order
into a list, a report, a join, or a loop with side effects silently breaks
bit-for-bit reproducibility. Order-insensitive reducers (``len``, ``sum``,
``min``, ``max``, ``any``, ``all``) and set-to-set transforms are fine;
everything else must go through ``sorted(...)`` first.

The check is syntactic: it flags iteration over expressions that are
*visibly* sets (literals, comprehensions, ``set()``/``frozenset()`` calls).
Iteration over a variable that merely holds a set is out of scope — the
paired convention is to keep such values in sorted lists at construction.
"""

from __future__ import annotations

import ast
from typing import ClassVar, FrozenSet, Iterator, Optional

from repro.analysis.finding import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.source import ModuleSource

# Consumers for which the iteration order of the argument cannot matter.
ORDER_INSENSITIVE: FrozenSet[str] = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)
# Consumers that freeze the (arbitrary) order into an ordered container.
ORDER_FREEZING: FrozenSet[str] = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expr(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "frozenset")
    return False


def _call_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


class DeterministicEmitRule(Rule):
    id: ClassVar[str] = "deterministic-emit"
    description: ClassVar[str] = (
        "iterating a set into ordered output is order-nondeterministic "
        "across runs; wrap the set in sorted(...)"
    )

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not _is_set_expr(node):
                continue
            if self._emits_unordered(node, src):
                yield self.finding(
                    src,
                    node,
                    "set iteration order varies across runs; wrap in "
                    "sorted(...) before emitting it in order",
                )

    def _emits_unordered(self, set_expr: ast.AST, src: ModuleSource) -> bool:
        parent = src.parent(set_expr)
        if parent is None:
            return False
        # for x in {…}:  — loop body sees arbitrary order.
        if isinstance(parent, ast.For) and parent.iter is set_expr:
            return True
        # Comprehension generator: [f(x) for x in {…}] etc.
        if isinstance(parent, ast.comprehension) and parent.iter is set_expr:
            comp = src.parent(parent)
            if comp is None or isinstance(comp, (ast.SetComp, ast.DictComp)):
                return False  # set-to-set/dict: result is unordered anyway
            return not self._consumed_order_insensitively(comp, src)
        # list({…}), tuple({…}), enumerate({…}), iter({…})
        if (
            isinstance(parent, ast.Call)
            and set_expr in parent.args
            and _call_name(parent) in ORDER_FREEZING
        ):
            return True
        # "sep".join({…})
        if (
            isinstance(parent, ast.Call)
            and set_expr in parent.args
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr == "join"
        ):
            return True
        return False

    def _consumed_order_insensitively(self, comp: ast.AST, src: ModuleSource) -> bool:
        """True when a list/generator comprehension's order cannot escape."""
        parent = src.parent(comp)
        return (
            isinstance(parent, ast.Call)
            and comp in parent.args
            and _call_name(parent) in ORDER_INSENSITIVE
        )
