"""Inline suppression directives.

Two comment forms, parsed with :mod:`tokenize` so string literals that merely
*contain* directive-looking text are never misread:

* ``# pushlint: disable=rule-a,rule-b`` — suppress those rules on that
  physical line (``# pushlint: disable`` with no ``=`` suppresses all rules
  on the line);
* ``# pushlint: disable-file=rule-a`` — suppress those rules for the whole
  file (again, omitting ``=`` suppresses everything; use sparingly).
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, Set

_DIRECTIVE_RE = re.compile(
    r"#\s*pushlint:\s*(?P<scope>disable-file|disable)\s*(?:=\s*(?P<rules>[\w,\s-]+))?"
)

# Sentinel meaning "every rule".
ALL_RULES: FrozenSet[str] = frozenset({"*"})


def _parse_rules(text: "str | None") -> FrozenSet[str]:
    if text is None:
        return ALL_RULES
    rules = {chunk.strip() for chunk in text.split(",")}
    return frozenset(r for r in rules if r)


class Suppressions:
    """Which rules are silenced on which lines of one file."""

    def __init__(self) -> None:
        self._by_line: Dict[int, Set[str]] = {}
        self._file_wide: Set[str] = set()

    @classmethod
    def from_source(cls, text: str) -> "Suppressions":
        supp = cls()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return supp
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE_RE.search(tok.string)
            if match is None:
                continue
            rules = _parse_rules(match.group("rules"))
            if match.group("scope") == "disable-file":
                supp._file_wide.update(rules)
            else:
                supp._by_line.setdefault(tok.start[0], set()).update(rules)
        return supp

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        for active in (self._file_wide, self._by_line.get(line, set())):
            if rule_id in active or "*" in active:
                return True
        return False

    def __bool__(self) -> bool:
        return bool(self._by_line or self._file_wide)
