"""The shared-state race pass on racepkg."""

from repro.analysis.flow import run_flow

from tests.analysis.conftest import per_file_result
from tests.analysis.flow.conftest import FIXTURES, flow_over, write_package


def by_rule(result, rule_id):
    return [ff for ff in result.all_findings if ff.finding.rule_id == rule_id]


def races(result):
    return by_rule(result, "flow-shared-state-race")


class TestFixtureHygiene:
    def test_racepkg_is_per_file_clean(self):
        result = per_file_result([FIXTURES / "racepkg"])
        assert result.ok, [str(f) for f in result.findings]


class TestSharedStateRaces:
    def test_kernel_kernel_write_write_race(self):
        result = flow_over("racepkg")
        pair = [
            ff.finding
            for ff in races(result)
            if "run_pair" in ff.finding.message
        ]
        assert len(pair) == 1
        finding = pair[0]
        assert "write-write" in finding.message
        assert "racepkg.kernels._PROGRESS" in finding.message
        assert "tally_kernel" in finding.message
        assert "count_kernel" in finding.message
        # Reported at the ship site inside the orchestrator, with both
        # parties' chains concatenated.
        assert finding.path.endswith("racepkg/driver.py")
        writes = [hop for hop in finding.chain if hop.startswith("writes ")]
        assert len(writes) == 2

    def test_kernel_orchestrator_read_write_race(self):
        result = flow_over("racepkg")
        mode = [
            ff.finding
            for ff in races(result)
            if "run_mode" in ff.finding.message
        ]
        assert len(mode) == 1
        finding = mode[0]
        assert "read-write" in finding.message
        assert "racepkg.kernels.CONFIG" in finding.message
        assert "between submit and join" in finding.message
        assert "read_kernel" in finding.message

    def test_same_kernel_shipped_twice_is_one_party(self):
        # run_repeat ships tally_kernel from two sites; a kernel cannot
        # race its own per-process copy, so the race pass stays silent
        # (the purity pass still reports the impurity itself).
        result = flow_over("racepkg")
        assert not any(
            "run_repeat" in ff.finding.message for ff in races(result)
        )
        assert any(
            "run_repeat" in str(ff.finding)
            or ff.finding.line in (31, 32)
            for ff in result.all_findings
            if ff.finding.rule_id == "flow-parallel-purity"
        )

    def test_pure_kernel_group_is_clean(self):
        result = flow_over("racepkg")
        assert not any(
            "run_clean" in ff.finding.message for ff in races(result)
        )

    def test_suppression_on_ship_line(self, tmp_path):
        write_package(
            tmp_path,
            "sanctpkg",
            {
                "kernels": """
                    STATE = {}


                    def writer(i: int) -> int:
                        STATE[i] = i
                        return i


                    def reader(i: int) -> int:
                        return STATE.get(i, 0)
                    """,
                "driver": """
                    from concurrent.futures import ProcessPoolExecutor

                    from sanctpkg.kernels import reader, writer


                    def run(n: int) -> None:
                        with ProcessPoolExecutor() as pool:
                            for i in range(n):
                                pool.submit(writer, i)  # pushlint: disable=flow-shared-state-race,flow-parallel-purity
                                pool.submit(reader, i)  # pushlint: disable=flow-shared-state-race
                    """,
            },
        )
        result = run_flow([tmp_path / "sanctpkg"])
        found = races(result)
        assert found, "race must still be discovered"
        assert all(ff.suppressed for ff in found)
        assert not any(
            ff.finding.rule_id == "flow-shared-state-race"
            for ff in result.all_findings
            if not ff.suppressed
        )
