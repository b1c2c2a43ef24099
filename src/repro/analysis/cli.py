"""The pushlint command line: ``python -m repro.analysis [paths...]``.

Every run applies the whole rule set: the per-file rules and the
whole-program flow passes. Exit codes: 0 = clean (every finding
suppressed inline, or none), 1 = any finding, 2 = usage error (missing
path, unmatched ``--explain`` query...).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.engine import AnalysisEngine, AnalysisResult, load_sources
from repro.analysis.finding import Finding
from repro.analysis.flow import run_flow
from repro.analysis.flow.index import ProjectIndex
from repro.analysis.flow.run import FlowResult
from repro.analysis.reporters import format_human, format_json
from repro.analysis.rules import rules_by_id


def lint(paths: Sequence[Path]) -> Tuple[AnalysisResult, FlowResult]:
    """Run every rule over ``paths``, reading and parsing each file once.

    The :class:`AnalysisResult` holds the per-file and flow findings
    together; the :class:`FlowResult` also keeps the inline-suppressed
    flow findings that ``--explain`` can show.
    """
    loaded = load_sources(paths)
    flow = run_flow(paths, index=ProjectIndex.from_loaded(loaded))
    result = AnalysisEngine().check_loaded(loaded)
    result.findings = sorted([*result.findings, *flow.findings])
    result.suppressed += flow.suppressed
    result.flow_stats = flow.stats
    return result, flow


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "pushlint: determinism & hygiene static analysis for the "
            "PushAdMiner reproduction"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="FINDING",
        help=(
            "print the source-to-sink call chain(s) of a flow finding, "
            "given its fingerprint (prefix) or path:line; also matches "
            "suppressed findings"
        ),
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule_id, rule_cls in sorted(rules_by_id().items()):
        lines.append(rule_id)
        lines.append(f"    {rule_cls.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    paths: List[Path] = list(args.paths)
    if not paths:
        default = Path("src/repro")
        if not default.is_dir():
            print(
                "pushlint: error: no paths given and src/repro not found",
                file=sys.stderr,
            )
            return 2
        paths = [default]
    for path in paths:
        if not path.exists():
            print(f"pushlint: error: no such path: {path}", file=sys.stderr)
            return 2

    result, flow_result = lint(paths)
    if args.explain:
        return _explain(args.explain, flow_result)
    print(format_json(result) if args.format == "json" else format_human(result))
    return 0 if result.ok else 1


def _matches(finding: Finding, query: str) -> bool:
    if finding.fingerprint.startswith(query):
        return True
    return f"{finding.path}:{finding.line}" == query


def _explain(query: str, flow_result: FlowResult) -> int:
    """Print the call chain(s) behind a flow finding (``--explain``).

    The query is a fingerprint prefix or a ``path:line``. A fingerprint
    prefix must be *unique* — when it matches several distinct
    fingerprints the candidates are listed and nothing is explained
    (``path:line`` may legitimately select several findings at one site).
    """
    matched = [
        ff for ff in flow_result.all_findings if _matches(ff.finding, query)
    ]
    prefix_fingerprints = sorted(
        {
            ff.finding.fingerprint
            for ff in matched
            if ff.finding.fingerprint.startswith(query)
        }
    )
    if len(prefix_fingerprints) > 1:
        listing = "\n".join(f"  {fp}" for fp in prefix_fingerprints)
        print(
            f"pushlint: --explain: ambiguous fingerprint prefix {query!r} "
            f"matches {len(prefix_fingerprints)} findings:\n{listing}",
            file=sys.stderr,
        )
        return 2
    if not matched:
        print(
            f"pushlint: --explain: no flow finding matches {query!r} "
            f"(expected a fingerprint or path:line; "
            f"{len(flow_result.all_findings)} flow finding(s) exist)",
            file=sys.stderr,
        )
        return 2
    blocks: List[str] = []
    for ff in matched:
        f = ff.finding
        status = " (suppressed inline)" if ff.suppressed else ""
        lines = [
            f"{f.location}: [{f.rule_id}]{status}",
            f"  {f.message}",
            f"  fingerprint: {f.fingerprint}",
        ]
        if f.chain:
            lines.append("  chain:")
            lines.extend(f"    {i}. {hop}" for i, hop in enumerate(f.chain))
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return 0
