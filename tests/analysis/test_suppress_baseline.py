"""Suppression directives and engine integration."""

import textwrap

from repro.analysis import lint
from repro.analysis.engine import AnalysisEngine, iter_python_files
from repro.analysis.source import ModuleSource
from repro.analysis.suppress import Suppressions


def make_source(code, module="repro.fake.mod"):
    return ModuleSource(textwrap.dedent(code), path=f"{module}.py", module=module)


def check(code):
    return AnalysisEngine().check_source(make_source(code))


class TestSuppressions:
    def test_line_directive_suppresses_named_rule(self):
        findings, suppressed = check(
            """
            import socket  # pushlint: disable=no-network-imports
            import ssl
            """
        )
        assert suppressed == 1
        assert [f.line for f in findings] == [3]

    def test_directive_for_other_rule_does_not_suppress(self):
        findings, suppressed = check(
            "import socket  # pushlint: disable=import-layering\n"
        )
        assert len(findings) == 1 and suppressed == 0

    def test_rule_less_directive_suppresses_nothing(self):
        # Only the named form exists: a directive must say which rules.
        findings, suppressed = check("import socket  # pushlint: disable\n")
        assert len(findings) == 1 and suppressed == 0

    def test_directive_inside_string_literal_is_inert(self):
        findings, _ = check(
            """
            doc = "example: # pushlint: disable=no-network-imports"
            import socket
            """
        )
        assert len(findings) == 1

    def test_parse_of_multiple_rules(self):
        supp = Suppressions.from_source(
            "x = 1  # pushlint: disable=rule-a, rule-b\n"
        )
        assert supp.is_suppressed("rule-a", 1)
        assert supp.is_suppressed("rule-b", 1)
        assert not supp.is_suppressed("rule-c", 1)
        assert not supp.is_suppressed("rule-a", 2)


class TestEngineFiles:
    def test_syntax_errors_become_parse_error_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result, _ = lint([bad])
        assert [f.rule_id for f in result.findings] == ["parse-error"]

    def test_iter_python_files_skips_caches_and_dedups(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("")
        (tmp_path / "x.egg-info").mkdir()
        (tmp_path / "x.egg-info" / "junk.py").write_text("")
        (tmp_path / "a.py").write_text("")
        files = list(iter_python_files([tmp_path, tmp_path / "a.py"]))
        assert files == [tmp_path / "a.py"]

    def test_findings_sorted_deterministically(self, tmp_path):
        (tmp_path / "b.py").write_text("import socket\n")
        (tmp_path / "a.py").write_text("import ssl\n")
        result, _ = lint([tmp_path])
        assert [f.path for f in result.findings] == sorted(
            f.path for f in result.findings
        )
