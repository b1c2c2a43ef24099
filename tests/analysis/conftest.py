"""Helpers for exercising pushlint rules on synthetic snippets."""

import textwrap
from pathlib import Path
from typing import List, Sequence

import pytest

from repro.analysis.engine import AnalysisEngine, AnalysisResult, load_sources
from repro.analysis.finding import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.source import ModuleSource


def check_snippet(
    rule: Rule, code: str, module: str = "repro.fake.mod"
) -> List[Finding]:
    """Run one rule over one dedented snippet and return its findings."""
    src = ModuleSource(textwrap.dedent(code), path=f"{module}.py", module=module)
    return list(rule.check(src))


def per_file_result(paths: Sequence[Path]) -> AnalysisResult:
    """The per-file rules alone over ``paths`` (no flow passes)."""
    return AnalysisEngine().check_loaded(load_sources(paths))


@pytest.fixture
def snippet_checker():
    return check_snippet
