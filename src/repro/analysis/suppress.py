"""Inline suppression directives.

One comment form, parsed with :mod:`tokenize` so string literals that
merely *contain* directive-looking text are never misread:
``# pushlint: disable=rule-a,rule-b`` suppresses those rules on that
physical line.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Set

_DIRECTIVE_RE = re.compile(r"#\s*pushlint:\s*disable\s*=\s*(?P<rules>[\w,\s-]+)")


class Suppressions:
    """Which rules are silenced on which lines of one file."""

    def __init__(self) -> None:
        self._by_line: Dict[int, Set[str]] = {}

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
            rules = {chunk.strip() for chunk in match.group("rules").split(",")}
            supp._by_line.setdefault(tok.start[0], set()).update(r for r in rules if r)
        return supp

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        return rule_id in self._by_line.get(line, ())
