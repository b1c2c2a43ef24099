"""CLI behaviour: arguments, formats, exit codes."""

import json

import pytest

from repro.analysis.cli import main

BAD = "import json\nimport socket\n"


@pytest.fixture
def bad_tree(tmp_path):
    (tmp_path / "mod.py").write_text(BAD)
    return tmp_path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code, out, _ = run_cli(capsys, tmp_path)
        assert code == 0
        assert "no findings" in out

    def test_findings_exit_one_with_human_output(self, bad_tree, capsys):
        code, out, _ = run_cli(capsys, bad_tree)
        assert code == 1
        assert "mod.py:2:1: [no-network-imports]" in out

    def test_json_format(self, bad_tree, capsys):
        code, out, _ = run_cli(capsys, bad_tree, "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["findings"] == 1
        assert payload["findings"][0]["rule"] == "no-network-imports"

    def test_lone_warning_finding_exits_one(self, tmp_path, capsys):
        # deterministic-emit once carried a "warning" label; no finding
        # has a severity now, and any one fails the run.
        (tmp_path / "mod.py").write_text('names = list({"a", "b"})\n')
        code, out, _ = run_cli(capsys, tmp_path, "--format", "json")
        assert code == 1
        findings = json.loads(out)["findings"]
        assert [f["rule"] for f in findings] == ["deterministic-emit"]
        assert "severity" not in findings[0]

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, tmp_path / "absent")
        assert code == 2
        assert "no such path" in err

    def test_list_rules(self, capsys):
        code, out, _ = run_cli(capsys, "--list-rules")
        assert code == 0
        for rule_id in (
            "no-network-imports",
            "import-layering",
            "deterministic-emit",
        ):
            assert rule_id in out
