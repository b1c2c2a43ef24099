"""The pushlint engine: walk files, run the per-file rules, apply inline
suppressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.finding import Finding
from repro.analysis.rules import default_rules
from repro.analysis.source import ModuleSource, SourceError

_SKIP_DIR_SUFFIXES = (".egg-info",)
_SKIP_DIR_NAMES = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


@dataclass
class AnalysisResult:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    rule_ids: Tuple[str, ...] = ()
    # Whole-program pass statistics (see repro.analysis.flow): modules
    # indexed.
    flow_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> List[Tuple[str, int]]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return sorted(counts.items())


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted.

    Symlinked or repeated inputs that resolve to the same file are yielded
    once, under whichever of their spellings sorts first.
    """
    candidates: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates.update(p for p in path.rglob("*.py") if not _skipped(p))
        elif path.suffix == ".py" and not _skipped(path):
            candidates.add(path)
    seen: Set[Path] = set()
    for candidate in sorted(candidates):
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            yield candidate


#: One file as :func:`load_sources` read it: parsed, or its parse error.
Loaded = Union[ModuleSource, Finding]


def load_sources(paths: Sequence[Path]) -> List[Loaded]:
    """Read and parse every ``.py`` file under ``paths`` once, in file order.

    A file that does not decode or parse becomes a ``parse-error``
    finding in its place.
    """
    loaded: List[Loaded] = []
    for file_path in iter_python_files(paths):
        display = _display_path(file_path)
        try:
            loaded.append(ModuleSource.from_path(file_path, display_path=display))
        except SourceError as exc:
            loaded.append(
                Finding(
                    path=display,
                    line=exc.line,
                    column=1,
                    rule_id="parse-error",
                    message=exc.message,
                )
            )
    return loaded


def _skipped(path: Path) -> bool:
    return any(
        part in _SKIP_DIR_NAMES or part.endswith(_SKIP_DIR_SUFFIXES)
        for part in path.parts
    )


class AnalysisEngine:
    """Runs every per-file rule over modules and files.

    :func:`repro.analysis.cli.lint` adds the whole-program passes.
    """

    def __init__(self) -> None:
        self.rules = default_rules()

    # ------------------------------------------------------------------
    # Single-module checking (also the unit-test entry point)
    # ------------------------------------------------------------------
    def check_source(self, src: ModuleSource) -> Tuple[List[Finding], int]:
        """All unsuppressed findings in one module, plus suppressed count."""
        active: List[Finding] = []
        suppressed = 0
        for rule in self.rules:
            for finding in rule.check(src):
                if src.suppressions.is_suppressed(finding.rule_id, finding.line):
                    suppressed += 1
                else:
                    active.append(finding)
        return active, suppressed

    def check_loaded(self, loaded: Sequence[Loaded]) -> AnalysisResult:
        """Check files :func:`load_sources` already parsed."""
        result = AnalysisResult(rule_ids=tuple(rule.id for rule in self.rules))
        raw: List[Finding] = []
        for item in loaded:
            result.files_checked += 1
            if isinstance(item, Finding):
                raw.append(item)
                continue
            findings, suppressed = self.check_source(item)
            raw.extend(findings)
            result.suppressed += suppressed
        result.findings = sorted(raw)
        return result


# Files whose presence marks a directory as the project root.
_ROOT_MARKERS = ("pyproject.toml", "setup.py", ".git")
_root_cache: Dict[Path, Optional[Path]] = {}


def _project_root(start: Path) -> Optional[Path]:
    """Nearest ancestor of ``start`` holding a project-root marker file."""
    if start in _root_cache:
        return _root_cache[start]
    root: Optional[Path] = None
    for candidate in (start, *start.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            root = candidate
            break
    _root_cache[start] = root
    return root


def _display_path(path: Path) -> str:
    """Repo-root-relative display path, stable across invocation CWDs.

    Finding paths feed the finding fingerprints and suppression review,
    so they must not depend on where pushlint was launched from. Resolve
    against the containing project root (pyproject/setup/.git marker);
    only paths outside any project fall back to CWD-relative/absolute.
    """
    resolved = path.resolve()
    root = _project_root(resolved.parent)
    if root is not None:
        try:
            return resolved.relative_to(root).as_posix()
        except ValueError:  # pragma: no cover - root is an ancestor
            pass
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()
