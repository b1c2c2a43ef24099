"""The parallel-purity pass on the synthetic fixture corpus.

Plus one real-tree regression: the sharded blocking kernels
(``candidate_distance_tile``, ``cut_silhouette_tile``) must stay
parallel-pure — they fan out over process pools, so any module-state
write would silently break worker-count byte-identity.
"""

from pathlib import Path

from repro.analysis.flow import run_flow

from tests.analysis.conftest import per_file_result
from tests.analysis.flow.conftest import FIXTURES, flow_over, write_package

SRC = Path(__file__).resolve().parents[3] / "src" / "repro"


def purity_findings(result):
    return [
        ff
        for ff in result.all_findings
        if ff.finding.rule_id == "flow-parallel-purity"
    ]


class TestSubmitShips:
    def test_driver_module_is_per_file_clean(self):
        result = per_file_result([FIXTURES / "purepkg" / "driver.py"])
        assert result.ok, [str(f) for f in result.findings]

    def test_impure_kernel_flagged_at_ship_site(self):
        result = flow_over("purepkg")
        impure = [
            ff.finding
            for ff in purity_findings(result)
            if "run_impure" in ff.finding.message
        ]
        # Both the subscript write (_CACHE, via _memo) and the in-place
        # mutation (_LOG.append) are reported, each with its chain.
        assert {
            w for f in impure for w in ("_CACHE", "_LOG") if w in f.message
        } == {"_CACHE", "_LOG"}
        for finding in impure:
            assert finding.path.endswith("purepkg/driver.py")
            assert "impure_kernel" in finding.chain[0]

    def test_pure_kernel_ship_is_clean(self):
        result = flow_over("purepkg")
        assert not any(
            "run_pure" in ff.finding.message
            for ff in purity_findings(result)
        )

    def test_partial_wrapped_kernel_is_unwrapped(self):
        result = flow_over("purepkg")
        partials = [
            ff.finding
            for ff in purity_findings(result)
            if "run_partial" in ff.finding.message
        ]
        assert partials, "functools.partial must not hide the kernel"
        assert any("_CACHE" in f.message for f in partials)

    def test_lambda_ship_is_flagged_outright(self):
        result = flow_over("purepkg")
        lambdas = [
            ff.finding
            for ff in purity_findings(result)
            if "run_lambda" in ff.finding.message
        ]
        assert len(lambdas) == 1
        assert "lambda" in lambdas[0].message
        assert "picklable" in lambdas[0].message


class TestExecutionPlanShips:
    def test_rng_kernel_through_var_typed_plan(self):
        result = flow_over("planpkg")
        tiles = [
            ff.finding
            for ff in purity_findings(result)
            if "run_tiles" in ff.finding.message
        ]
        assert len(tiles) == 1
        assert "global-rng" in tiles[0].message
        assert "random.random" in tiles[0].message

    def test_direct_constructed_plan_with_pure_kernel_is_clean(self):
        result = flow_over("planpkg")
        assert not any(
            "run_squares" in ff.finding.message
            for ff in purity_findings(result)
        )

    def test_lambda_through_plan_stream(self):
        result = flow_over("planpkg")
        lambdas = [
            ff.finding
            for ff in purity_findings(result)
            if "run_lambda" in ff.finding.message
        ]
        assert len(lambdas) == 1

    def test_non_plan_stream_method_is_not_a_ship_site(self):
        # Scheduler.stream shares the method name but not the class; the
        # impure jitter_kernel it receives must produce no ship finding.
        result = flow_over("planpkg")
        assert not any(
            "run_scheduler" in ff.finding.message
            for ff in purity_findings(result)
        )


class TestSuppressionAtShipSite:
    def test_inline_disable_on_ship_line(self, tmp_path):
        write_package(
            tmp_path,
            "shippkg",
            {
                "kernels": """
                    STATE = {}


                    def kernel(i: int) -> int:
                        STATE[i] = i
                        return i
                    """,
                "driver": """
                    from concurrent.futures import ProcessPoolExecutor

                    from shippkg.kernels import kernel


                    def run(n: int) -> None:
                        with ProcessPoolExecutor() as pool:
                            for i in range(n):
                                pool.submit(kernel, i)  # pushlint: disable=flow-parallel-purity
                    """,
            },
        )
        result = run_flow([tmp_path / "shippkg"])
        purity = [
            ff
            for ff in result.all_findings
            if ff.finding.rule_id == "flow-parallel-purity"
        ]
        assert purity, "finding must still be discovered"
        assert all(ff.suppressed for ff in purity)
        assert result.findings == []


class TestTypedRngParameter:
    """A helper that takes its stream as ``rng: random.Random`` draws from
    that caller-seeded instance, not from the global ``random`` module."""

    FILES = {
        "kernels": """
            import random


            def draw(rng: random.Random, n: int) -> float:
                return rng.random() + rng.choice([1, 2]) * n


            def seeded_kernel(seed: int) -> float:
                return draw(random.Random(seed), seed)


            def global_kernel(seed: int) -> float:
                return random.random() + seed
            """,
        "driver": """
            from concurrent.futures import ProcessPoolExecutor

            from rngpkg.kernels import global_kernel, seeded_kernel


            def run_seeded(n: int) -> None:
                with ProcessPoolExecutor() as pool:
                    for i in range(n):
                        pool.submit(seeded_kernel, i)


            def run_global(n: int) -> None:
                with ProcessPoolExecutor() as pool:
                    for i in range(n):
                        pool.submit(global_kernel, i)
            """,
    }

    def _purity(self, tmp_path):
        write_package(tmp_path, "rngpkg", self.FILES)
        return purity_findings(run_flow([tmp_path / "rngpkg"]))

    def test_draws_from_typed_parameter_are_clean(self, tmp_path):
        seeded = [
            ff.finding
            for ff in self._purity(tmp_path)
            if "seeded_kernel" in ff.finding.message
        ]
        assert seeded == [], [str(f) for f in seeded]

    def test_global_module_draw_still_flagged(self, tmp_path):
        flagged = [
            ff.finding
            for ff in self._purity(tmp_path)
            if "global_kernel" in ff.finding.message
        ]
        assert len(flagged) == 1
        assert "global-rng source random.random " in flagged[0].message


class TestRealTreeBlockingKernels:
    def test_sharded_blocking_kernels_are_parallel_pure(self):
        result = run_flow([SRC])
        purity = [
            ff
            for ff in result.all_findings
            if ff.finding.rule_id == "flow-parallel-purity"
        ]
        offenders = [
            ff.finding
            for ff in purity
            if "candidate_distance_tile" in ff.finding.message
            or "cut_silhouette_tile" in ff.finding.message
        ]
        assert offenders == [], [str(f) for f in offenders]


def test_module_level_mutable_global_requires_global_decl(tmp_path):
    # Rebinding a module name without `global` creates a local: not a write.
    write_package(
        tmp_path,
        "localpkg",
        {
            "kernels": """
                LIMIT = 10


                def kernel(i: int) -> int:
                    LIMIT = i  # local shadow, not module state
                    return LIMIT
                """,
            "driver": """
                from concurrent.futures import ProcessPoolExecutor

                from localpkg.kernels import kernel


                def run(n: int) -> None:
                    with ProcessPoolExecutor() as pool:
                        for i in range(n):
                            pool.submit(kernel, i)
                """,
        },
    )
    result = run_flow([tmp_path / "localpkg"])
    assert result.findings == []


def test_global_decl_assignment_is_a_write(tmp_path):
    write_package(
        tmp_path,
        "globalpkg",
        {
            "kernels": """
                COUNTER = 0


                def kernel(i: int) -> int:
                    global COUNTER
                    COUNTER = COUNTER + i
                    return COUNTER
                """,
            "driver": """
                from concurrent.futures import ProcessPoolExecutor

                from globalpkg.kernels import kernel


                def run(n: int) -> None:
                    with ProcessPoolExecutor() as pool:
                        for i in range(n):
                            pool.submit(kernel, i)
                """,
        },
    )
    result = run_flow([tmp_path / "globalpkg"])
    assert len(result.findings) == 1
    assert "COUNTER" in result.findings[0].message
    assert "global-assign" in result.findings[0].message
