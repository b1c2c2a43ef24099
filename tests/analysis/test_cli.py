"""CLI behaviour: arguments, formats, exit codes."""

import json

import pytest

from repro.analysis.cli import main

BAD = "import time\nx = time.time()\n"


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
        assert "no-wallclock" in out
        assert "mod.py:2" in out

    def test_json_format(self, bad_tree, capsys):
        code, out, _ = run_cli(capsys, bad_tree, "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["findings"] == 1
        assert payload["findings"][0]["rule"] == "no-wallclock"

    def test_lone_warning_finding_exits_one(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "try:\n    pass\nexcept:\n    pass\n"
        )
        code, out, _ = run_cli(capsys, tmp_path, "--format", "json")
        assert code == 1
        findings = json.loads(out)["findings"]
        assert [(f["rule"], f["severity"]) for f in findings] == [
            ("no-bare-except", "warning")
        ]

    def test_select_and_ignore(self, bad_tree, capsys):
        code, _, _ = run_cli(capsys, bad_tree, "--select", "no-bare-except")
        assert code == 0
        code, _, _ = run_cli(capsys, bad_tree, "--ignore", "no-wallclock")
        assert code == 0

    def test_unknown_rule_is_usage_error(self, bad_tree, capsys):
        code, _, err = run_cli(capsys, bad_tree, "--select", "no-such-rule")
        assert code == 2
        assert "unknown rule" in err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, tmp_path / "absent")
        assert code == 2
        assert "no such path" in err

    def test_list_rules(self, capsys):
        code, out, _ = run_cli(capsys, "--list-rules")
        assert code == 0
        for rule_id in (
            "no-wallclock",
            "no-unseeded-rng",
            "no-network-imports",
            "import-layering",
            "no-mutable-default",
            "no-bare-except",
            "deterministic-emit",
            "public-api-annotations",
        ):
            assert rule_id in out
