"""CLI surface of the whole-program passes: --flow, --explain, filters."""

import json
import shutil

import pytest

from repro.analysis.cli import main
from repro.analysis.source import ModuleSource

from tests.analysis.flow.conftest import FIXTURES


@pytest.fixture
def taint_tree(tmp_path):
    shutil.copytree(FIXTURES / "taintpkg", tmp_path / "taintpkg")
    return tmp_path / "taintpkg"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFlowFlag:
    def test_flow_finds_interprocedural_taint(self, taint_tree, capsys):
        code, out, _ = run_cli(capsys, "--flow", taint_tree)
        assert code == 1
        assert "flow-nondet-taint" in out
        assert "via " in out  # chain hops rendered under the finding
        assert "module(s) indexed" in out

    def test_flow_reads_each_file_once(self, taint_tree, capsys, monkeypatch):
        (taint_tree / "broken.py").write_text("def broken(:\n")
        read = []
        from_path = ModuleSource.from_path.__func__

        def counting(cls, path, **kwargs):
            read.append(path)
            return from_path(cls, path, **kwargs)

        monkeypatch.setattr(ModuleSource, "from_path", classmethod(counting))
        code, out, _ = run_cli(capsys, "--flow", taint_tree)
        assert sorted(read) == sorted(taint_tree.rglob("*.py"))
        assert code == 1
        assert "parse-error" in out

    def test_without_flow_the_sink_module_passes(self, taint_tree, capsys):
        code, out, _ = run_cli(capsys, taint_tree / "reporters.py")
        assert code == 0
        assert "no findings" in out

    def test_json_schema_v3_with_chains_and_stats(self, taint_tree, capsys):
        _, out, _ = run_cli(
            capsys, "--flow", "--format", "json", taint_tree
        )
        payload = json.loads(out)
        assert payload["schema"] == "repro-lint/3"
        assert payload["summary"]["flow"] == {"modules": 4}
        assert "baselined" not in payload["summary"]
        flow = [
            f
            for f in payload["findings"]
            if f["rule"] == "flow-nondet-taint"
        ]
        assert flow
        assert all(len(f["chain"]) >= 2 for f in flow)

    def test_select_runs_flow_rules_in_isolation(self, taint_tree, capsys):
        code, out, _ = run_cli(
            capsys,
            "--flow",
            "--select",
            "flow-nondet-taint",
            taint_tree,
        )
        assert code == 1
        assert "flow-nondet-taint" in out
        # Per-file findings (the time.time in clockio) are deselected.
        assert "no-wallclock" not in out

    def test_ignore_skips_a_flow_pass(self, taint_tree, capsys):
        code, out, _ = run_cli(
            capsys,
            "--flow",
            "--select",
            "flow-nondet-taint,flow-parallel-purity",
            "--ignore",
            "flow-nondet-taint",
            taint_tree,
        )
        assert code == 0
        assert "flow-nondet-taint" not in out

    def test_list_rules_includes_flow_rules(self, capsys):
        code, out, _ = run_cli(capsys, "--list-rules")
        assert code == 0
        assert "flow-nondet-taint" in out
        assert "flow-parallel-purity" in out

class TestExplain:
    def _fingerprint(self, capsys, tree):
        _, out, _ = run_cli(
            capsys, "--flow", "--format", "json", tree
        )
        payload = json.loads(out)
        flow = [
            f
            for f in payload["findings"]
            if f["rule"] == "flow-nondet-taint"
        ]
        return flow[0]

    def test_explain_by_fingerprint_prefix(self, taint_tree, capsys):
        finding = self._fingerprint(capsys, taint_tree)
        code, out, _ = run_cli(
            capsys,
            "--explain",
            finding["fingerprint"][:12],
            taint_tree,
        )
        assert code == 0
        assert "chain:" in out
        assert "wall-clock" in out or "fs-order" in out

    def test_explain_by_path_and_line(self, taint_tree, capsys):
        finding = self._fingerprint(capsys, taint_tree)
        code, out, _ = run_cli(
            capsys,
            "--explain",
            f"{finding['path']}:{finding['line']}",
            taint_tree,
        )
        assert code == 0
        assert "fingerprint:" in out

    def test_explain_shows_suppressed_findings(self, taint_tree, capsys):
        # format_sanctioned is silenced in normal output but explainable.
        _, out, _ = run_cli(
            capsys, "--flow", "--format", "json", taint_tree
        )
        assert "format_sanctioned" not in out
        code, out, _ = run_cli(
            capsys, "--explain", "nomatch", taint_tree
        )
        assert code == 2

    def test_explain_no_match_is_usage_error(self, taint_tree, capsys):
        code, _, err = run_cli(
            capsys, "--explain", "ffffffffffff", taint_tree
        )
        assert code == 2
        assert "no flow finding matches" in err


@pytest.fixture
def race_tree(tmp_path):
    # The marker makes tmp_path a project root, so finding paths (and
    # hence fingerprints) are "racepkg/..." — identical on every run.
    (tmp_path / "pyproject.toml").write_text("[tool.none]\n")
    shutil.copytree(FIXTURES / "racepkg", tmp_path / "racepkg")
    return tmp_path / "racepkg"


@pytest.fixture
def race_and_pure_trees(race_tree):
    # Enough findings that two fingerprints share a leading hex digit.
    shutil.copytree(FIXTURES / "purepkg", race_tree.parent / "purepkg")
    return race_tree, race_tree.parent / "purepkg"


class TestExplainPrefixAmbiguity:
    def _fingerprints(self, capsys, trees):
        # Distinct fingerprints: repeated identical source lines (e.g.
        # the same ship statement in two orchestrators) legitimately
        # share one fingerprint and are not an ambiguity.
        _, out, _ = run_cli(
            capsys, "--flow", "--format", "json", *trees
        )
        return sorted({f["fingerprint"] for f in json.loads(out)["findings"]})

    def test_ambiguous_prefix_lists_candidates_and_exits_2(
        self, race_and_pure_trees, capsys
    ):
        fingerprints = self._fingerprints(capsys, race_and_pure_trees)
        ambiguous = next(
            prefix
            for length in range(1, 17)
            for prefix in (f[:length] for f in fingerprints)
            if sum(f.startswith(prefix) for f in fingerprints) > 1
        )
        code, out, err = run_cli(
            capsys, "--explain", ambiguous, *race_and_pure_trees,
        )
        assert code == 2
        assert "ambiguous fingerprint prefix" in err
        assert out == ""
        for fingerprint in fingerprints:
            if fingerprint.startswith(ambiguous):
                assert fingerprint in err

    def test_unique_prefix_explains_exactly_one(self, race_tree, capsys):
        fingerprints = self._fingerprints(capsys, [race_tree])
        unique = next(
            f[:length]
            for length in range(1, 17)
            for f in fingerprints
            if sum(g.startswith(f[:length]) for g in fingerprints) == 1
        )
        code, out, _ = run_cli(capsys, "--explain", unique, race_tree)
        assert code == 0
        assert out.count("fingerprint:") == 1
        assert "chain:" in out
