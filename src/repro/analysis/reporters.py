"""Render an AnalysisResult for humans or machines.

The JSON schema is ``repro-lint/4``. Version 2 added the top-level
``schema`` key itself, the optional per-finding ``chain`` array (the
source-to-sink call chain of whole-program flow findings), and the
``summary.flow`` statistics block, then emitted only by runs of the flow
passes; version 3 dropped ``summary.baselined`` and cut ``summary.flow``
to ``{"modules": N}``; version 4 dropped each finding's ``severity``
(every finding fails the run alike) and always emits ``summary.flow``,
since every run runs the flow passes.
"""

from __future__ import annotations

import json
from typing import List

from repro.analysis.engine import AnalysisResult

JSON_SCHEMA = "repro-lint/4"


def format_human(result: AnalysisResult) -> str:
    """The classic linter layout: one line per finding, then a summary."""
    lines: List[str] = []
    for f in result.findings:
        lines.append(f"{f.location}: [{f.rule_id}] {f.message}")
        lines.extend(f"    via {hop}" for hop in f.chain)
    if lines:
        lines.append("")
        per_rule = ", ".join(f"{rule}={n}" for rule, n in result.counts_by_rule())
        lines.append(
            f"pushlint: {len(result.findings)} finding(s) in "
            f"{result.files_checked} file(s) [{per_rule}]"
        )
    else:
        lines.append(
            f"pushlint: no findings in {result.files_checked} file(s) "
            f"({len(result.rule_ids)} rules)"
        )
    if result.suppressed:
        lines.append(f"pushlint: {result.suppressed} suppressed inline")
    lines.append(f"pushlint: {result.flow_stats['modules']} module(s) indexed")
    return "\n".join(lines)


def format_json(result: AnalysisResult) -> str:
    summary = {
        "findings": len(result.findings),
        "suppressed": result.suppressed,
        "files_checked": result.files_checked,
        "rules": list(result.rule_ids),
        "flow": dict(result.flow_stats),
    }
    payload = {
        "schema": JSON_SCHEMA,
        "findings": [f.to_dict() for f in result.findings],
        "summary": summary,
    }
    return json.dumps(payload, indent=2)
