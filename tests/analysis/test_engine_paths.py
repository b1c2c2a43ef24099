"""File discovery and display-path regressions in the engine.

Covers the two satellite fixes: ``iter_python_files`` must deduplicate
symlinked/duplicate inputs in a single resolve+sort pass, and
``_display_path`` must be anchored at the project root rather than the
process CWD (findings and cache keys must not change when pushlint is
invoked from a subdirectory).
"""

import os
from pathlib import Path

import pytest

from repro.analysis.engine import _display_path, _root_cache, iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestIterPythonFiles:
    def test_duplicate_inputs_yield_once(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1\n")
        files = list(iter_python_files([mod, mod, tmp_path]))
        assert files == [mod]

    def test_symlinked_duplicate_yields_once(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        mod = real / "mod.py"
        mod.write_text("x = 1\n")
        link = tmp_path / "link.py"
        try:
            link.symlink_to(mod)
        except OSError:
            pytest.skip("platform without symlink support")
        files = list(iter_python_files([link, real]))
        assert len(files) == 1

    def test_output_is_sorted_and_recursive(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        files = list(iter_python_files([tmp_path]))
        assert files == sorted(files)
        assert len(files) == 3

    def test_non_python_and_hidden_dirs_skipped(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "mod.cpython-311.py").write_text("x\n")
        files = list(iter_python_files([tmp_path]))
        assert files == [tmp_path / "mod.py"]


class TestDisplayPath:
    def test_repo_file_is_root_relative(self):
        target = REPO_ROOT / "src" / "repro" / "analysis" / "engine.py"
        assert _display_path(target) == "src/repro/analysis/engine.py"

    def test_independent_of_cwd(self, monkeypatch):
        target = REPO_ROOT / "src" / "repro" / "analysis" / "engine.py"
        monkeypatch.chdir(REPO_ROOT)
        from_root = _display_path(target)
        monkeypatch.chdir(REPO_ROOT / "src")
        from_src = _display_path(target)
        monkeypatch.chdir(REPO_ROOT / "src" / "repro")
        from_pkg = _display_path(target)
        assert from_root == from_src == from_pkg == "src/repro/analysis/engine.py"

    def test_file_outside_any_project_falls_back(self, tmp_path, monkeypatch):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert _display_path(mod) == "mod.py"

    def test_marker_directory_becomes_root(self, tmp_path):
        _root_cache.clear()
        try:
            project = tmp_path / "proj"
            (project / "pkg").mkdir(parents=True)
            (project / "pyproject.toml").write_text("[project]\n")
            mod = project / "pkg" / "mod.py"
            mod.write_text("x = 1\n")
            assert _display_path(mod) == "pkg/mod.py"
        finally:
            _root_cache.clear()

    def test_display_paths_stable_for_engine_runs_from_subdir(
        self, tmp_path, monkeypatch
    ):
        # End to end: findings carry the same path whatever the CWD is.
        from repro.analysis import lint

        project = tmp_path / "proj"
        (project / "sub").mkdir(parents=True)
        (project / "pyproject.toml").write_text("[project]\n")
        bad = project / "bad.py"
        bad.write_text("import socket\n")
        _root_cache.clear()
        try:
            monkeypatch.chdir(project)
            at_root = lint([bad])[0].findings
            monkeypatch.chdir(project / "sub")
            in_sub = lint([Path(os.pardir) / "bad.py"])[0].findings
            assert at_root and in_sub
            assert at_root[0].path == in_sub[0].path == "bad.py"
            assert at_root[0].fingerprint == in_sub[0].fingerprint
        finally:
            _root_cache.clear()
