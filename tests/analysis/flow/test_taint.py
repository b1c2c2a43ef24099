"""The interprocedural taint pass on the synthetic fixture corpus.

The central claim these tests pin down: the sink modules are clean under
every per-file rule, so the flow findings reported on them are findings
the per-file engine *provably cannot produce*.
"""

from pathlib import Path

from repro.analysis.flow import run_flow
from repro.analysis.flow.taint import SINK_NAME_RE, _is_sink

from tests.analysis.conftest import per_file_result
from tests.analysis.flow.conftest import FIXTURES, flow_over, write_package


def taint_findings(result):
    return [
        ff
        for ff in result.all_findings
        if ff.finding.rule_id == "flow-nondet-taint"
    ]


class TestTaintPkg:
    def test_sink_module_is_per_file_clean(self):
        # The proof that the flow pass sees something per-file rules can't.
        result = per_file_result([FIXTURES / "taintpkg" / "reporters.py"])
        assert result.ok, [str(f) for f in result.findings]

    def test_wallclock_taint_reaches_sink_through_two_modules(self):
        result = flow_over("taintpkg")
        wall = [
            ff
            for ff in taint_findings(result)
            if not ff.suppressed
            and "format_report" in ff.finding.message
            and ff.finding.message.count("wall-clock")
        ]
        assert len(wall) == 1
        finding = wall[0].finding
        assert finding.path.endswith("taintpkg/reporters.py")
        assert "time.time" in finding.message
        # Chain runs sink -> helper -> timestamp -> _raw_now -> source.
        assert len(finding.chain) == 5
        assert "format_report" in finding.chain[0]
        assert "build_row" in finding.chain[1]
        assert "timestamp" in finding.chain[2]
        assert "_raw_now" in finding.chain[3]
        assert "wall-clock time.time" in finding.chain[-1]

    def test_unsorted_listdir_taints_sink(self):
        result = flow_over("taintpkg")
        fs = [
            ff
            for ff in taint_findings(result)
            if "fs-order" in ff.finding.message and not ff.suppressed
        ]
        assert len(fs) == 1
        assert "os.listdir" in fs[0].finding.message
        assert "scan_dir" in fs[0].finding.chain[1]

    def test_sorted_listdir_is_not_a_source(self):
        result = flow_over("taintpkg")
        assert not any(
            "format_clean" in ff.finding.message
            for ff in result.all_findings
        )

    def test_suppression_on_sink_line_silences_finding(self):
        result = flow_over("taintpkg")
        sanctioned = [
            ff
            for ff in taint_findings(result)
            if "format_sanctioned" in ff.finding.message
        ]
        assert sanctioned, "the suppressed finding must still be discovered"
        assert all(ff.suppressed for ff in sanctioned)
        assert all(
            "format_sanctioned" not in f.message for f in result.findings
        )
        assert result.suppressed >= len(sanctioned)


class TestSuppressionAtSource:
    def test_source_line_suppression_sanctions_everywhere(self, tmp_path):
        write_package(
            tmp_path,
            "srcpkg",
            {
                "clock": """
                    import time


                    def now() -> float:
                        return time.time()  # pushlint: disable=flow-nondet-taint
                    """,
                "sink": """
                    from srcpkg.clock import now


                    def format_out() -> str:
                        return str(now())
                    """,
            },
        )
        result = run_flow([tmp_path / "srcpkg"])
        assert result.findings == []
        assert result.all_findings == []  # sanctioned at the source, not hidden


class TestShimPkg:
    def test_taint_flows_through_self_call_and_import(self):
        result = flow_over("shimpkg")
        active = [ff for ff in taint_findings(result) if not ff.suppressed]
        assert len(active) == 1
        finding = active[0].finding
        assert "render_status" in finding.message
        # self.poll() resolved to Widget.poll, then through the import
        # to shimpkg.modern.tick.
        assert "Widget.poll" in finding.chain[1]
        assert "modern.tick" in finding.chain[2]

    def test_clean_path_through_shim_stays_clean(self):
        result = flow_over("shimpkg")
        assert not any(
            "render_steady" in ff.finding.message
            for ff in result.all_findings
        )


class TestSinkNaming:
    def test_stage_methods_and_miner_run_are_stage_sinks(self):
        assert _is_sink("PushAdMiner.stage_distances") == "pipeline stage"
        assert _is_sink("PushAdMiner.run") == "pipeline stage"
        assert _is_sink("OtherClass.run") is None

    def test_emit_surface_names(self):
        for name in (
            "format_human",
            "render_table",
            "save_records",
            "to_json",
            "emit",
            "summary_markdown",
            "figure6_svg",
            "trace_to_json",
        ):
            assert SINK_NAME_RE.search(name), name
        for name in ("compute", "distances", "informative", "transform"):
            assert not SINK_NAME_RE.search(name), name


def test_findings_are_deterministic():
    first = flow_over("taintpkg", "shimpkg")
    second = flow_over("taintpkg", "shimpkg")
    assert [ff.finding for ff in first.all_findings] == [
        ff.finding for ff in second.all_findings
    ]
