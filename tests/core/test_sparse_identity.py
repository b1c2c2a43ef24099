"""Acceptance: sparse vs dense bit-identity at scale 0.125.

The PR's headline guarantee, test-enforced at the scale the benchmarks
measure: with ``storage="sparse"`` + ``blocking="url"``, the certified
merge prefix, the selected cut threshold, the campaign labels, and the
miner summary are bit-identical to the dense path — for workers 1/2/4
and multiple tile sizes — while never materializing an O(n^2) matrix.
"""

import numpy as np
import pytest

from repro import paper_scenario, run_full_crawl
from repro.core.clustering import AgglomerativeClusterer, evaluate_cuts
from repro.core.distance import compute_distances
from repro.core.pipeline import PushAdMiner
from repro.obs import Tracer
from repro.perf import ExecutionPlan

SCALE = 0.125


@pytest.fixture(scope="module")
def dataset():
    return run_full_crawl(config=paper_scenario(seed=7, scale=SCALE))


@pytest.fixture(scope="module")
def records(dataset):
    return dataset.valid_records


@pytest.fixture(scope="module")
def dense(records):
    return compute_distances(records)


@pytest.fixture(scope="module")
def sparse(records):
    return compute_distances(records, storage="sparse")


@pytest.fixture(scope="module")
def dense_linkage(dense):
    return AgglomerativeClusterer().fit(dense.total)


@pytest.fixture(scope="module")
def sparse_linkage(sparse):
    return AgglomerativeClusterer().fit(sparse.total)


class TestGraphIdentityAcrossPlans:
    @pytest.mark.parametrize(
        "workers,tile_size", [(2, 512), (4, 512), (1, 96), (2, 257)]
    )
    def test_candidate_graph_bytes_are_plan_invariant(
        self, records, sparse, workers, tile_size
    ):
        got = compute_distances(
            records,
            plan=ExecutionPlan(workers=workers, tile_size=tile_size),
            storage="sparse",
        )
        assert got.total.indptr.tobytes() == sparse.total.indptr.tobytes()
        assert got.total.indices.tobytes() == sparse.total.indices.tobytes()
        assert got.total.data.tobytes() == sparse.total.data.tobytes()
        assert got.text.data.tobytes() == sparse.text.data.tobytes()
        assert got.url.data.tobytes() == sparse.url.data.tobytes()

    def test_stored_entries_equal_dense(self, dense, sparse):
        rows, cols = sparse.total.pairs()
        assert sparse.total.data.tobytes() == dense.total[rows, cols].tobytes()

    def test_sub_quadratic_footprint(self, dense, sparse):
        # The whole point: candidate-sparse bytes are a small fraction of
        # the three dense n^2 matrices.
        assert sparse.component_bytes < dense.component_bytes / 20


class TestLinkageAndCutIdentity:
    def test_certified_merge_prefix_is_dense(
        self, dense_linkage, sparse_linkage
    ):
        k = sparse_linkage.exact_merges
        assert k > 0
        assert sparse_linkage.height_floor > 0.25
        for got, want in zip(
            sparse_linkage.merges[:k], dense_linkage.merges[:k]
        ):
            assert (got.id_a, got.id_b, got.height, got.size, got.new_id) == (
                want.id_a, want.id_b, want.height, want.size, want.new_id
            )
        assert all(
            m.height >= sparse_linkage.height_floor
            for m in dense_linkage.merges[k:]
        )

    def test_cut_selection_is_dense_bit_for_bit(
        self, dense, sparse, dense_linkage, sparse_linkage
    ):
        from repro.core.clustering import evaluate_cuts_sparse

        want = evaluate_cuts(dense_linkage, dense.total)
        for plan in (None, ExecutionPlan(workers=2, tile_size=96)):
            got = evaluate_cuts_sparse(
                sparse_linkage, sparse.operands, plan=plan
            )
            assert got.threshold == want.threshold
            assert got.score == want.score
            assert got.n_candidates == want.n_candidates
            np.testing.assert_array_equal(got.labels, want.labels)


class TestMinerIdentity:
    @pytest.fixture(scope="class")
    def dense_result(self, dataset, records):
        return PushAdMiner.for_dataset(dataset).run(records)

    @pytest.fixture(scope="class")
    def sparse_run(self, dataset, records):
        tracer = Tracer()
        result = PushAdMiner.for_dataset(
            dataset, tracer=tracer, storage="sparse", blocking="url"
        ).run(records)
        return result, tracer.finish()

    def test_summary_and_labels_match_dense(self, dense_result, sparse_run):
        sparse_result, _ = sparse_run
        assert sparse_result.cut_threshold == dense_result.cut_threshold
        assert sparse_result.silhouette == dense_result.silhouette
        np.testing.assert_array_equal(
            sparse_result.labels, dense_result.labels
        )
        assert sparse_result.summary() == dense_result.summary()
        assert sparse_result.stage_rows() == dense_result.stage_rows()

    def test_blocking_span_and_gauges(self, sparse_run):
        result, root = sparse_run
        blocking = root.find("pipeline.blocking")
        assert blocking is not None
        stats = result.distances.blocking_stats
        assert blocking.metrics["candidate_pairs"] == stats.n_candidate_pairs
        assert blocking.metrics["stored_pairs"] == stats.n_stored_pairs
        assert blocking.metrics["pruning_ratio"] == stats.pruning_ratio
        assert blocking.metrics["components"] == stats.n_components
        assert blocking.metrics["max_component"] == stats.max_component
        linkage_span = root.find("pipeline.linkage")
        assert linkage_span.metrics["exact_merges"] > 0
        # The sparse fit's work bytes are bounded by the largest
        # component, not n^2.
        n = result.distances.size
        assert linkage_span.metrics["work_bytes"] < n * n * 8
