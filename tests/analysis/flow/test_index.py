"""ProjectIndex: symbol resolution and call-graph edge cases.

Half of these run against the real ``src/repro`` tree — the ExecutionPlan
ship in ``repro.core.distance`` is exactly the structure the call graph
must see; the ``shimpkg`` fixture covers a self-method call chained to an
imported function.
"""

from pathlib import Path

import pytest

from repro.analysis.flow import ProjectIndex

from tests.analysis.flow.conftest import build_index, write_package

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def src_index() -> ProjectIndex:
    return ProjectIndex.build([SRC])


class TestRealTreeResolution:
    def test_retired_shim_module_no_longer_resolves(self, src_index):
        # The repro.webenv.urls re-export shim was removed in PR 7; the
        # moved name resolves only at its real home now.
        assert src_index.resolve_symbol("repro.webenv.urls.Url") is None
        symbol = src_index.resolve_symbol("repro.util.urls.Url")
        assert symbol is not None
        assert symbol.module == "repro.util.urls"

    def test_package_reexport_resolves(self, src_index):
        symbol = src_index.resolve_symbol("repro.perf.combined_distance_tile")
        assert symbol is not None
        assert symbol.module == "repro.perf.kernels"

    def test_method_resolution_through_class(self, src_index):
        symbol = src_index.resolve_symbol(
            "repro.core.pipeline.PushAdMiner.stage_features"
        )
        assert symbol is not None
        assert symbol.kind == "function"
        assert symbol.qualname == "PushAdMiner.stage_features"

    def test_real_execution_plan_ship_sites_are_found(self, src_index):
        # compute_distances ships two kernels through plan.stream: the
        # dense combined-distance tile and, on the sparse path, the
        # blocking candidate kernel (wrapped in functools.partial to bind
        # the bound — the index must see through the partial).
        ships = src_index.shipped_callables()
        stream_ships = [
            s
            for s in ships
            if s.site.method == "stream"
            and s.shipper == ("repro.core.distance", "compute_distances")
        ]
        assert len(stream_ships) == 2
        targets = {s.target for s in stream_ships}
        assert targets == {
            ("repro.perf.kernels", "combined_distance_tile"),
            ("repro.perf.blocking", "candidate_distance_tile"),
        }

    def test_sparse_cut_sweep_ship_site_is_found(self, src_index):
        # The streaming cut sweep ships the silhouette kernel through a
        # var-typed ExecutionPlan — the index must still see the ship.
        ships = [
            s
            for s in src_index.shipped_callables()
            if s.shipper == ("repro.core.clustering", "evaluate_cuts_sparse")
        ]
        assert [s.target for s in ships] == [
            ("repro.perf.blocking", "cut_silhouette_tile")
        ]

    def test_serve_ships_through_nearest_corpus_rows(self, src_index):
        # Serve's classify and the incremental absorb both reach their
        # kernels through nearest_corpus_rows: the exhaustive tile kernel
        # ships from it, the blocked one from its bound-binding helper.
        graph = src_index.callgraph()
        search = ("repro.perf.delta", "nearest_corpus_rows")
        assert search in graph.successors(
            ("repro.serve.core", "ServeCore.classify_batch")
        )
        assert search in graph.successors(
            ("repro.incremental.miner", "IncrementalMiner.absorb")
        )
        ships = {
            (s.shipper, s.target)
            for s in src_index.shipped_callables()
            if s.shipper[0] in ("repro.perf.delta", "repro.serve.core")
        }
        assert ships == {
            (search, ("repro.perf.delta", "query_min_tile")),
            (
                ("repro.perf.delta", "_blocked_minima"),
                ("repro.perf.delta", "query_candidate_min_tile"),
            ),
        }

    def test_self_attribute_method_call_typed_from_init(self, src_index):
        # self._miner = PushAdMiner(...) in __init__ types the attribute,
        # so self._miner.run_verdict_stages(...) is a call-graph edge.
        graph = src_index.callgraph()
        assert ("repro.core.pipeline", "PushAdMiner.run_verdict_stages") in (
            graph.successors(
                ("repro.incremental.miner", "IncrementalMiner.absorb")
            )
        )

    def test_unresolved_externals_produce_no_edges(self, src_index):
        assert src_index.resolve_symbol("json.dumps") is None
        assert src_index.resolve_symbol("os.path.join") is None


class TestFixtureResolution:
    def test_self_method_call_resolves(self):
        index = build_index("shimpkg")
        graph = index.callgraph()
        succ = graph.successors(("shimpkg.user", "Widget.render_status"))
        assert ("shimpkg.user", "Widget.poll") in succ

    def test_import_through_shim_builds_edge(self):
        index = build_index("shimpkg")
        graph = index.callgraph()
        succ = graph.successors(("shimpkg.user", "Widget.poll"))
        assert ("shimpkg.modern", "tick") in succ

    def test_partial_call_builds_edge_to_wrapped_function(self):
        index = build_index("purepkg")
        ships = [
            s
            for s in index.shipped_callables()
            if s.shipper == ("purepkg.driver", "run_partial")
        ]
        assert len(ships) == 1
        assert ships[0].target == ("purepkg.kernels", "impure_kernel")


    def test_init_typed_attribute_is_a_ship_receiver_and_call_target(
        self, tmp_path
    ):
        # An attribute typed only by the constructor __init__ assigns to
        # it: a stream through it is a ship site, and a method call on it
        # is a call-graph edge.
        pkg = write_package(
            tmp_path,
            "attrpkg",
            {
                "plan": """
                    class ExecutionPlan:
                        def stream(self, kernel, operands, tiles):
                            return [kernel(operands, t) for t in tiles]

                        def tiles(self, n):
                            return list(range(n))
                    """,
                "engine": """
                    from attrpkg.plan import ExecutionPlan


                    def kernel(operands, tile):
                        return tile


                    class Engine:
                        def __init__(self):
                            self._plan = ExecutionPlan()

                        def run(self, n):
                            tiles = self._plan.tiles(n)
                            return self._plan.stream(kernel, None, tiles)
                    """,
            },
        )
        index = ProjectIndex.build([pkg])
        run = ("attrpkg.engine", "Engine.run")
        assert [
            s.target for s in index.shipped_callables() if s.shipper == run
        ] == [("attrpkg.engine", "kernel")]
        assert ("attrpkg.plan", "ExecutionPlan.tiles") in (
            index.callgraph().successors(run)
        )


class TestCallGraph:
    def test_bfs_paths_are_shortest_and_rooted(self):
        index = build_index("taintpkg")
        graph = index.callgraph()
        root = ("taintpkg.reporters", "format_report")
        paths = graph.bfs_paths(root)
        assert paths[root] == (root,)
        leaf = ("taintpkg.clockio", "_raw_now")
        assert paths[leaf][0] == root
        assert paths[leaf][-1] == leaf
        assert len(paths[leaf]) == 4

    def test_callgraph_is_deterministic(self):
        one = build_index("taintpkg", "purepkg").callgraph()
        two = build_index("taintpkg", "purepkg").callgraph()
        assert one.nodes() == two.nodes()
        for node in one.nodes():
            assert one.successors(node) == two.successors(node)

    def test_stats_shape(self, src_index):
        stats = src_index.stats()
        assert list(stats) == ["modules"]
        assert stats["modules"] > 100
