"""Rule interface."""

from __future__ import annotations

import abc
import ast
from typing import ClassVar, Iterator

from repro.analysis.finding import Finding
from repro.analysis.source import ModuleSource


class Rule(abc.ABC):
    """One check. Subclasses set the class attributes and yield findings."""

    id: ClassVar[str]
    description: ClassVar[str]

    @abc.abstractmethod
    def check(self, src: ModuleSource) -> Iterator[Finding]:
        """Yield every violation of this rule in one module."""

    def finding(self, src: ModuleSource, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 0)
        column = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=src.path,
            line=line,
            column=column,
            rule_id=self.id,
            message=message,
            source_line=src.line_text(line),
        )
