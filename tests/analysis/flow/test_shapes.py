"""The shape passes: corpus coverage, sanctions, golden output.

The ``shapepkg`` fixture corpus exercises every detector — a dense
allocation hidden behind a helper call, an unstable argsort behind a
helper — and every sanctioned pattern (streaming ``tile x n`` kernels,
``kind="stable"`` argsorts, stable ``np.lexsort``/``sorted()`` sorts,
the suppressed densifier). The golden tests pin one finding per pass
byte-for-byte through the ``repro-lint/3`` JSON reporter and
``--explain``; the src/repro tests prove each inline sanction in the
real tree is load-bearing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from repro.analysis.flow import ProjectIndex, run_flow
from repro.analysis.flow.dense import DenseAllocPass

from tests.analysis.flow.conftest import FIXTURES, flow_over, write_package

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src" / "repro"

PLAN_SRC = """
    class ExecutionPlan:
        def stream(self, kernel, operands, tiles):
            return [kernel(operands, tile) for tile in tiles]
    """


def _by_rule(result, rule_id):
    return [f for f in result.findings if f.rule_id == rule_id]


class TestCorpusCoverage:
    def test_every_detector_fires_on_the_corpus(self):
        result = flow_over("shapepkg")
        assert len(_by_rule(result, "flow-dense-alloc")) == 1
        assert len(_by_rule(result, "flow-unstable-order")) == 1

    def test_dense_alloc_hidden_behind_a_helper_has_full_chain(self):
        (finding,) = _by_rule(flow_over("shapepkg"), "flow-dense-alloc")
        assert finding.path.endswith("shapepkg/kernels.py")
        assert "ExecutionPlan-shipped kernel" in finding.message
        assert "bad_kernel" in finding.chain[0]
        assert "_scratch" in finding.chain[1]
        assert finding.chain[-1].startswith("allocation numpy.zeros((n:big, n:big))")

    def test_only_default_kind_sorts_are_reported(self):
        (finding,) = _by_rule(flow_over("shapepkg"), "flow-unstable-order")
        assert "emit_ranking" in finding.message
        assert "_rank" in finding.chain[1]
        assert finding.chain[-1].startswith("unstable-argsort numpy.argsort")

    def test_sanctioned_patterns_stay_clean(self):
        result = flow_over("shapepkg")
        # tile x n streaming, kind="stable", and the stable lexsort and
        # float-keyed sorted(): none may appear in any finding or chain.
        rendered = "\n".join(
            f.message + "\n" + "\n".join(f.chain) for f in result.findings
        )
        assert "tile_kernel" not in rendered
        assert "emit_stable" not in rendered
        assert "emit_lexsorted" not in rendered
        assert "emit_by_score" not in rendered

    def test_suppressed_densifier_counts_as_suppressed(self):
        result = flow_over("shapepkg")
        suppressed = [ff for ff in result.all_findings if ff.suppressed]
        assert len(suppressed) == 1
        assert "to_square" in suppressed[0].finding.message
        assert result.suppressed == 1


class TestSanctionDeletion:
    def test_deleting_the_fixture_suppression_fires(self, tmp_path):
        shutil.copytree(FIXTURES / "shapepkg", tmp_path / "shapepkg")
        target = tmp_path / "shapepkg" / "sparse.py"
        text = target.read_text()
        assert "# pushlint: disable=flow-dense-alloc" in text
        target.write_text(
            text.replace("  # pushlint: disable=flow-dense-alloc", "")
        )
        result = run_flow([tmp_path / "shapepkg"])
        dense = _by_rule(result, "flow-dense-alloc")
        assert len(dense) == 2  # _scratch + the now-unsanctioned to_square
        assert any("to_square" in f.message for f in dense)

    def test_injected_dense_zeros_in_a_shipped_kernel_fires(self, tmp_path):
        write_package(
            tmp_path,
            "injpkg",
            {
                "plan": PLAN_SRC,
                "pipe": """
                    import numpy as np

                    from injpkg.plan import ExecutionPlan


                    def kernel(operands, tile):
                        n = len(operands)
                        return np.zeros((n, n))


                    def run(operands, tiles):
                        return ExecutionPlan().stream(kernel, operands, tiles)
                    """,
            },
        )
        result = run_flow([tmp_path / "injpkg"])
        (finding,) = _by_rule(result, "flow-dense-alloc")
        assert "injpkg.pipe.kernel" in finding.chain[0]
        assert finding.chain[-1].startswith("allocation numpy.zeros")

    def test_sparse_typed_caller_of_a_dense_helper_heads_the_chain(
        self, tmp_path
    ):
        # A dense-expansion helper is not a kernel-region root, so its
        # allocation is reported once, for the Sparse*-typed caller that
        # reaches it; the dense-mode caller alone would be allowed.
        write_package(
            tmp_path,
            "leakpkg",
            {
                "condensed": """
                    import numpy as np


                    def condensed_to_square(flat, n):
                        out = np.zeros((n, n))
                        return out
                    """,
                "kernels": """
                    from leakpkg.condensed import condensed_to_square


                    class SparsePairwise:
                        n = 0


                    def leak(d: SparsePairwise, flat):
                        return condensed_to_square(flat, d.n)


                    def dense_report(flat, n):
                        return condensed_to_square(flat, n)
                    """,
            },
        )
        result = run_flow([tmp_path / "leakpkg"])
        (finding,) = _by_rule(result, "flow-dense-alloc")
        assert result.findings == [finding]
        assert finding.path.endswith("leakpkg/condensed.py")
        assert "leakpkg.kernels.leak" in finding.chain[0]
        assert "condensed_to_square" in finding.chain[1]
        assert finding.chain[-1].startswith(
            "allocation numpy.zeros((n:big, n:big))"
        )

    def test_every_src_repro_sanction_is_load_bearing(self):
        # src/repro is clean only because each sanctioned Theta(n^2) site
        # carries an inline suppression; removing any one must resurface
        # its finding with the full chain.
        index = ProjectIndex.build([SRC])
        graph = index.callgraph()
        base = DenseAllocPass(index, graph).run()
        assert len(base) == 3, [ff.finding.location for ff in base]
        assert all(ff.suppressed for ff in base)
        for ff in base:
            finding = ff.finding
            summary = next(
                s for s in index.modules.values() if s.path == finding.path
            )
            saved = summary.suppressions._by_line.pop(finding.line)
            try:
                rerun = DenseAllocPass(index, graph).run()
                resurfaced = [
                    g.finding
                    for g in rerun
                    if not g.suppressed
                    and g.finding.fingerprint == finding.fingerprint
                ]
                assert resurfaced, finding.location
                assert len(resurfaced[0].chain) >= 2
            finally:
                summary.suppressions._by_line[finding.line] = saved


GOLDEN_JSON = {
    "flow-dense-alloc": (
        '{"chain": ["shapepkg.kernels.bad_kernel (shapepkg/kernels.py:16)", '
        '"shapepkg.kernels._scratch (shapepkg/kernels.py:10)", '
        '"allocation numpy.zeros((n:big, n:big)) (shapepkg/kernels.py:13)"], '
        '"column": 1, "fingerprint": "0e3cf0d2a4106023", "line": 13, '
        '"message": "O(n^2) allocation numpy.zeros((n:big, n:big)) in the '
        'sparse/parallel kernel region \\u2014 ExecutionPlan-shipped kernel, '
        "reachable from 'shapepkg.kernels.bad_kernel' in 1 call hop(s); "
        'stream O(tile*n) rows or keep sparse storage (--explain '
        'prints the chain)", "path": "shapepkg/kernels.py", '
        '"rule": "flow-dense-alloc"}'
    ),
    "flow-unstable-order": (
        '{"chain": ["shapepkg.order.emit_ranking (shapepkg/order.py:12)", '
        '"shapepkg.order._rank (shapepkg/order.py:8)", '
        '"unstable-argsort numpy.argsort (shapepkg/order.py:9)"], '
        '"column": 1, "fingerprint": "9c3ba9d828bf878d", "line": 12, '
        '"message": "emit/serialization sink \'shapepkg.order.emit_ranking\' '
        "transitively reaches unstable-argsort numpy.argsort at "
        "shapepkg/order.py:9 \\u2014 default-kind sort is not stable under "
        'float ties; pass kind=\\"stable\\" (1 call hop(s); --explain prints '
        'the chain)", "path": "shapepkg/order.py", '
        '"rule": "flow-unstable-order"}'
    ),
}

GOLDEN_EXPLAIN = (
    "shapepkg/kernels.py:13:1: [flow-dense-alloc]\n"
    "  O(n^2) allocation numpy.zeros((n:big, n:big)) in the sparse/parallel "
    "kernel region — ExecutionPlan-shipped kernel, reachable from "
    "'shapepkg.kernels.bad_kernel' in 1 call hop(s); stream O(tile*n) rows "
    "or keep sparse storage (--explain prints the chain)\n"
    "  fingerprint: 0e3cf0d2a4106023\n"
    "  chain:\n"
    "    0. shapepkg.kernels.bad_kernel (shapepkg/kernels.py:16)\n"
    "    1. shapepkg.kernels._scratch (shapepkg/kernels.py:10)\n"
    "    2. allocation numpy.zeros((n:big, n:big)) (shapepkg/kernels.py:13)\n"
)


class TestGoldenOutput:
    """Byte-pinned reporter output: any drift in messages, chains, paths
    or fingerprints is a deliberate, reviewed change."""

    def _project_root(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.none]\n")
        shutil.copytree(FIXTURES / "shapepkg", tmp_path / "shapepkg")
        return tmp_path

    def _run(self, root, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *argv, "shapepkg"],
            capture_output=True,
            text=True,
            cwd=root,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_json_findings_are_byte_identical(self, tmp_path):
        root = self._project_root(tmp_path)
        proc = self._run(root, "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["schema"] == "repro-lint/4"
        for rule_id, golden in GOLDEN_JSON.items():
            found = [f for f in payload["findings"] if f["rule"] == rule_id]
            assert found, rule_id
            assert json.dumps(found[0], sort_keys=True) == golden

    def test_explain_chain_is_byte_identical(self, tmp_path):
        root = self._project_root(tmp_path)
        proc = self._run(root, "--explain", "0e3cf0d2a4106023")
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_EXPLAIN


class TestDeterminism:
    def test_shape_passes_are_deterministic(self):
        first = flow_over("shapepkg")
        second = flow_over("shapepkg")
        assert first.findings == second.findings
        assert [ff.finding for ff in first.all_findings] == [
            ff.finding for ff in second.all_findings
        ]
