"""Suppression directives and engine integration."""

import textwrap

from repro.analysis.engine import AnalysisEngine, iter_python_files
from repro.analysis.finding import Severity
from repro.analysis.rules.hygiene import NoBareExceptRule
from repro.analysis.rules.wallclock import NoWallclockRule
from repro.analysis.source import ModuleSource
from repro.analysis.suppress import Suppressions


def make_source(code, module="repro.fake.mod"):
    return ModuleSource(textwrap.dedent(code), path=f"{module}.py", module=module)


class TestSuppressions:
    def test_line_directive_suppresses_named_rule(self):
        src = make_source(
            """
            import time

            x = time.time()  # pushlint: disable=no-wallclock
            y = time.time()
            """
        )
        engine = AnalysisEngine(rules=[NoWallclockRule()])
        findings, suppressed = engine.check_source(src)
        assert suppressed == 1
        assert [f.line for f in findings] == [5]

    def test_line_directive_without_rules_suppresses_everything(self):
        src = make_source("import time\nx = time.time()  # pushlint: disable\n")
        findings, suppressed = AnalysisEngine(rules=[NoWallclockRule()]).check_source(src)
        assert findings == [] and suppressed == 1

    def test_directive_for_other_rule_does_not_suppress(self):
        src = make_source(
            "import time\nx = time.time()  # pushlint: disable=no-bare-except\n"
        )
        findings, suppressed = AnalysisEngine(rules=[NoWallclockRule()]).check_source(src)
        assert len(findings) == 1 and suppressed == 0

    def test_file_directive(self):
        src = make_source(
            """
            # pushlint: disable-file=no-wallclock
            import time

            x = time.time()
            y = time.time()
            """
        )
        findings, suppressed = AnalysisEngine(rules=[NoWallclockRule()]).check_source(src)
        assert findings == [] and suppressed == 2

    def test_directive_inside_string_literal_is_inert(self):
        src = make_source(
            """
            import time

            doc = "example: # pushlint: disable=no-wallclock"
            x = time.time()
            """
        )
        findings, _ = AnalysisEngine(rules=[NoWallclockRule()]).check_source(src)
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
        result = AnalysisEngine(rules=[NoBareExceptRule()]).run([bad])
        assert [f.rule_id for f in result.findings] == ["parse-error"]
        assert result.findings[0].severity is Severity.ERROR

    def test_iter_python_files_skips_caches_and_dedups(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("")
        (tmp_path / "x.egg-info").mkdir()
        (tmp_path / "x.egg-info" / "junk.py").write_text("")
        (tmp_path / "a.py").write_text("")
        files = list(iter_python_files([tmp_path, tmp_path / "a.py"]))
        assert files == [tmp_path / "a.py"]

    def test_findings_sorted_deterministically(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nx = time.time()\n")
        (tmp_path / "a.py").write_text("import time\ny = time.time()\n")
        result = AnalysisEngine(rules=[NoWallclockRule()]).run([tmp_path])
        assert [f.path for f in result.findings] == sorted(
            f.path for f in result.findings
        )
