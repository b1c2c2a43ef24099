"""Golden tests pinning the ``repro-lint/4`` JSON reporter output.

The JSON payload is a machine interface (CI annotations, dashboards), so
its shape is pinned byte-for-byte on a synthetic result, and its
semantic guarantees — chain ordering, CWD-independent fingerprints — are
pinned on real flow findings from the racepkg fixture corpus.
"""

import json
import textwrap

from repro.analysis.engine import AnalysisResult
from repro.analysis.finding import Finding
from repro.analysis.flow import run_flow
from repro.analysis.reporters import JSON_SCHEMA, format_json

from tests.analysis.flow.conftest import FIXTURES

GOLDEN = textwrap.dedent(
    """\
    {
      "schema": "repro-lint/4",
      "findings": [
        {
          "path": "pkg/mod.py",
          "line": 7,
          "column": 1,
          "rule": "no-network-imports",
          "message": "network import",
          "fingerprint": "f3f3316853dd34ff"
        },
        {
          "path": "pkg/sink.py",
          "line": 12,
          "column": 1,
          "rule": "flow-nondet-taint",
          "message": "taint reaches sink",
          "fingerprint": "6912c84cf4cd74ca",
          "chain": [
            "pkg.sink.emit (pkg/sink.py:12)",
            "pkg.mod.jitter (pkg/mod.py:7)",
            "wallclock time.time (pkg/mod.py:7)"
          ]
        }
      ],
      "summary": {
        "findings": 2,
        "suppressed": 1,
        "files_checked": 2,
        "rules": [
          "no-network-imports",
          "flow-nondet-taint"
        ],
        "flow": {
          "modules": 2
        }
      }
    }"""
)


def golden_result() -> AnalysisResult:
    plain = Finding(
        path="pkg/mod.py",
        line=7,
        column=1,
        rule_id="no-network-imports",
        message="network import",
        source_line="import socket",
    )
    flow = Finding(
        path="pkg/sink.py",
        line=12,
        column=1,
        rule_id="flow-nondet-taint",
        message="taint reaches sink",
        source_line="def emit(x):",
        chain=(
            "pkg.sink.emit (pkg/sink.py:12)",
            "pkg.mod.jitter (pkg/mod.py:7)",
            "wallclock time.time (pkg/mod.py:7)",
        ),
    )
    return AnalysisResult(
        findings=[plain, flow],
        suppressed=1,
        files_checked=2,
        rule_ids=("no-network-imports", "flow-nondet-taint"),
        flow_stats={"modules": 2},
    )


def test_json_payload_is_byte_golden():
    assert format_json(golden_result()) == GOLDEN


def test_schema_and_finding_fields_are_pinned():
    payload = json.loads(format_json(golden_result()))
    assert payload["schema"] == JSON_SCHEMA == "repro-lint/4"
    assert list(payload) == ["schema", "findings", "summary"]
    plain, flow = payload["findings"]
    assert list(plain) == [
        "path",
        "line",
        "column",
        "rule",
        "message",
        "fingerprint",
    ]
    assert list(flow) == [*list(plain), "chain"]
    assert list(payload["summary"]) == [
        "findings",
        "suppressed",
        "files_checked",
        "rules",
        "flow",
    ]


def test_real_flow_chains_run_root_to_access():
    # Chain hops are ordered from the reporting root (sink or ship
    # group) toward the access/source; the last hop is always the
    # concrete access text, so --explain output reads top-down.
    result = run_flow([FIXTURES / "racepkg"])
    flagged = [ff.finding for ff in result.all_findings]
    assert flagged
    for finding in flagged:
        payload = finding.to_dict()
        assert payload["chain"], finding.rule_id
        for hop in payload["chain"]:
            assert "(" in hop and hop.endswith(")")
        last = payload["chain"][-1]
        assert any(
            verb in last for verb in ("writes ", "reads ", "merge ", " at ")
        ), last


def test_fingerprints_are_stable_across_cwd(tmp_path, monkeypatch):
    # Finding paths resolve against the containing project root, so the
    # fingerprint (rule|path|source-line hash) must not change with the
    # directory pushlint was launched from.
    def fingerprints():
        result = run_flow([FIXTURES / "racepkg"])
        return sorted(ff.finding.fingerprint for ff in result.all_findings)

    baseline = fingerprints()
    assert baseline
    monkeypatch.chdir(tmp_path)
    assert fingerprints() == baseline
    monkeypatch.chdir(FIXTURES / "racepkg")
    assert fingerprints() == baseline
