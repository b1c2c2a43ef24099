"""Candidate blocking vs. the dense kernels: recall, bit-identity, order.

The blocking stage's whole contract is *exactness-preserving* O(n^2)
avoidance: every stored entry must equal the dense kernels' entry bit
for bit, every absent pair must carry a certificate ``total >= bound``,
and the enumeration must be canonical — invariant under tile size,
worker count, and DetSan's permuted submission order.  These tests pin
each leg of that contract against the dense oracle.
"""

import numpy as np
import pytest

from repro import paper_scenario, run_full_crawl
from repro.analysis.sanitizer import DetSan
from repro.core.distance import compute_distances
from repro.core.silhouette import average_silhouette
from repro.perf import (
    DEFAULT_SPARSE_BOUND,
    CutScoringOperands,
    ExecutionPlan,
    SparsePairwise,
    Tile,
    candidate_distance_tile,
    candidate_pairs_tile,
    component_labels,
    cut_silhouette_tile,
    prune_cross_component,
    silhouette_rows,
)


@pytest.fixture(scope="module")
def corpus(small_dataset):
    return small_dataset.valid_records[:160]


@pytest.fixture(scope="module")
def dense(corpus):
    return compute_distances(corpus)


@pytest.fixture(scope="module")
def sparse(corpus):
    return compute_distances(corpus, storage="sparse")


def stored_pair_set(matrix):
    rows, cols = matrix.pairs()
    return set(zip(rows.tolist(), cols.tolist()))


class TestSparsePairwiseInvariants:
    def test_upper_triangle_canonical_order(self, sparse):
        rows, cols = sparse.total.pairs()
        assert np.all(rows < cols)
        # Ascending row, then strictly ascending column within each row.
        assert np.all(np.diff(rows) >= 0)
        for i in range(sparse.total.n):
            row_cols, _ = sparse.total.row(i)
            assert np.all(np.diff(row_cols) > 0)
            assert np.all(row_cols > i)

    def test_nnz_counts_unordered_pairs(self, sparse):
        total = sparse.total
        assert total.nnz == total.indices.size
        assert total.n_stored_pairs == total.nnz
        assert sparse.blocking_stats.n_stored_pairs == total.nnz

    def test_three_channels_share_one_pattern(self, sparse):
        for channel in (sparse.text, sparse.url):
            assert channel.indptr.tobytes() == sparse.total.indptr.tobytes()
            assert channel.indices.tobytes() == sparse.total.indices.tobytes()

    def test_to_square_mirrors_and_fills(self, sparse, dense):
        square = sparse.total.to_square(np.inf)
        assert square.shape == (sparse.size, sparse.size)
        assert np.array_equal(square, square.T)
        assert np.all(np.diag(square) == 0.0)
        known = np.isfinite(square) & ~np.eye(sparse.size, dtype=bool)
        assert known.sum() == 2 * sparse.total.nnz
        np.testing.assert_array_equal(square[known], dense.total[known])

    def test_bound_validation(self):
        indptr = np.array([0, 0, 0], dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        values = np.empty(0, dtype=np.float64)
        for bad in (0.0, -0.1, 0.51):
            with pytest.raises(ValueError):
                SparsePairwise(2, indptr, empty, values, bound=bad)
        with pytest.raises(ValueError):
            SparsePairwise(3, indptr, empty, values)  # indptr too short
        with pytest.raises(ValueError):
            SparsePairwise(
                2, np.array([0, 0, 1], dtype=np.int64), empty, values
            )  # indptr does not cover indices


class TestRecallOracle:
    """The no-missed-pair bound, against the dense kernels."""

    def test_stored_entries_bitwise_equal_dense(self, sparse, dense):
        rows, cols = sparse.total.pairs()
        for channel in ("text", "url", "total"):
            stored = getattr(sparse, channel).data
            reference = getattr(dense, channel)[rows, cols]
            assert stored.tobytes() == reference.tobytes()

    def test_no_pair_below_bound_is_missed(self, sparse, dense):
        bound = sparse.total.bound
        i, j = np.triu_indices(sparse.size, k=1)
        close = dense.total[i, j] < bound
        stored = stored_pair_set(sparse.total)
        missed = [
            (int(a), int(b))
            for a, b, c in zip(i[close], j[close], np.flatnonzero(close))
            if (int(a), int(b)) not in stored
        ]
        assert missed == []

    def test_absent_pairs_certified_at_least_bound(self, sparse, dense):
        square = sparse.total.to_square(np.inf)
        absent = np.isinf(square)
        assert np.all(dense.total[absent] >= sparse.total.bound)

    def test_unscreened_candidates_cover_half_bound(self, corpus, dense):
        # candidate_pairs_tile is the raw inverted-index enumeration: a
        # provable superset of every pair with total < 0.5 (the recall
        # bound the screens then tighten to the configured bound).
        sparse_half = compute_distances(
            corpus, storage="sparse", blocking_bound=0.5
        )
        plan = ExecutionPlan()
        operands = sparse_half.operands
        pairs = set()
        for tile in plan.tiles(sparse_half.size):
            rows, cols = candidate_pairs_tile(operands, tile)
            pairs.update(zip(rows.tolist(), cols.tolist()))
        i, j = np.triu_indices(sparse_half.size, k=1)
        close = dense.total[i, j] < 0.5
        assert all(
            (int(a), int(b)) in pairs for a, b in zip(i[close], j[close])
        )

    @pytest.mark.parametrize("seed", [3, 11])
    def test_recall_holds_across_seeds(self, seed):
        dataset = run_full_crawl(config=paper_scenario(seed=seed, scale=0.02))
        records = dataset.valid_records
        dense = compute_distances(records)
        sparse = compute_distances(records, storage="sparse")
        bound = sparse.total.bound
        i, j = np.triu_indices(len(records), k=1)
        close = dense.total[i, j] < bound
        stored = stored_pair_set(sparse.total)
        assert all(
            (int(a), int(b)) in stored for a, b in zip(i[close], j[close])
        )
        rows, cols = sparse.total.pairs()
        assert sparse.total.data.tobytes() == dense.total[rows, cols].tobytes()

    def test_bound_validation_on_kernel_and_api(self, corpus, sparse):
        plan = ExecutionPlan()
        tile = plan.tiles(8)[0]
        with pytest.raises(ValueError):
            candidate_distance_tile(sparse.operands, tile, bound=0.6)
        with pytest.raises(ValueError):
            compute_distances(
                corpus, storage="sparse", blocking_bound=0.0
            )


class TestShardingIdentity:
    def test_tile_size_and_workers_are_invisible(self, corpus, sparse):
        reference = sparse.total
        for plan in (
            ExecutionPlan(tile_size=7),
            ExecutionPlan(tile_size=1000),
            ExecutionPlan(workers=2, tile_size=48),
        ):
            got = compute_distances(
                corpus, plan=plan, storage="sparse"
            )
            assert got.total.indptr.tobytes() == reference.indptr.tobytes()
            assert got.total.indices.tobytes() == reference.indices.tobytes()
            assert got.total.data.tobytes() == reference.data.tobytes()
            assert got.text.data.tobytes() == sparse.text.data.tobytes()
            assert got.url.data.tobytes() == sparse.url.data.tobytes()

    @pytest.mark.no_detsan
    def test_enumeration_survives_permuted_submission(self, corpus, sparse):
        # DetSan permutes ExecutionPlan.stream's tile submission order and
        # checksums every tile against a canonical recompute; the
        # assembled candidate graph must not move a byte.
        with DetSan(seed=29, verify_tiles=True) as san:
            shaken = compute_distances(
                corpus,
                plan=ExecutionPlan(workers=2, tile_size=48),
                storage="sparse",
            )
        assert san.report.streams_permuted > 0
        assert not san.report.divergences
        assert shaken.total.indptr.tobytes() == sparse.total.indptr.tobytes()
        assert shaken.total.indices.tobytes() == sparse.total.indices.tobytes()
        assert shaken.total.data.tobytes() == sparse.total.data.tobytes()


class TestComponentsAndPrune:
    def test_labels_partition_the_sub_bound_graph(self, sparse):
        n_components, labels = component_labels(sparse.total)
        assert labels.shape == (sparse.size,)
        assert n_components == len(np.unique(labels))
        rows, cols = sparse.total.pairs()
        below = sparse.total.data < sparse.total.bound
        assert np.all(labels[rows[below]] == labels[cols[below]])
        stats = sparse.blocking_stats
        assert stats.n_components == n_components
        assert stats.max_component == int(np.bincount(labels).max())

    def test_prune_drops_exactly_cross_component_entries(self):
        # Hand-built graph: components {0,1} and {2,3} linked only by a
        # stored-but-at-bound entry (1,2) that the prune must drop.
        indptr = np.array([0, 1, 2, 3, 3], dtype=np.int64)
        indices = np.array([1, 2, 3], dtype=np.int64)
        values = np.array([0.1, 0.45, 0.2])
        graph = SparsePairwise(4, indptr, indices, values, bound=0.45)
        n_components, labels = component_labels(graph)
        assert n_components == 2
        keep, kept_indptr = prune_cross_component(graph, labels)
        assert keep.tolist() == [True, False, True]
        assert kept_indptr.tolist() == [0, 1, 1, 2, 2]

    def test_stats_accounting(self, sparse):
        stats = sparse.blocking_stats
        assert stats.n == sparse.size
        assert stats.n_total_pairs == sparse.size * (sparse.size - 1) // 2
        assert 0 < stats.n_stored_pairs <= stats.n_candidate_pairs
        assert 0.0 < stats.pruning_ratio < 1.0
        assert (
            stats.pruning_ratio
            == 1.0 - stats.n_stored_pairs / stats.n_total_pairs
        )


class TestCutSilhouetteTile:
    def test_bitwise_matches_dense_sweep(self, sparse, dense):
        from repro.core.clustering import (
            AgglomerativeClusterer,
            silhouette_schedule,
        )

        linkage = AgglomerativeClusterer().fit(dense.total)
        thresholds = (0.1, 0.2)
        schedule = silhouette_schedule(linkage, thresholds)
        assert schedule.thresholds == thresholds
        operands = CutScoringOperands(
            pairwise=sparse.operands, schedule=schedule
        )
        # The one-block dense sweep: the whole square as a single tile.
        whole = silhouette_rows(schedule, dense.total, Tile(0, sparse.size))
        for tile_size in (1, 23, 48, sparse.size):
            plan = ExecutionPlan(tile_size=tile_size)
            tiles = plan.tiles(sparse.size)
            parts = list(plan.stream(cut_silhouette_tile, operands, tiles))
            samples = np.concatenate(parts, axis=1)
            assert samples.tobytes() == whole.tobytes()
        for index, threshold in enumerate(thresholds):
            reference = average_silhouette(
                dense.total, linkage.cut(threshold)
            )
            assert float(samples[index].mean()) == pytest.approx(
                reference, rel=1e-9
            )
