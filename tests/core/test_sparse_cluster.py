"""Certified sparse-graph linkage and cut selection.

The sparse path's promise is all-or-nothing: either it reproduces the
dense merge prefix / cut bit for bit, or it raises
:class:`~repro.perf.BlockingExactnessError` — never a silent
approximation.  These tests pin both sides: the exactness certificate
against the dense oracle on a real corpus, and every refusal path on
hand-built linkages where the certificate provably cannot hold.
"""

import numpy as np
import pytest

from repro.core.clustering import (
    AgglomerativeClusterer,
    Linkage,
    Merge,
    evaluate_cuts,
    evaluate_cuts_sparse,
)
from repro.core.distance import compute_distances
from repro.core.silhouette import average_silhouette
from repro.perf import BlockingExactnessError, ExecutionPlan


@pytest.fixture(scope="module")
def corpus(small_dataset):
    return small_dataset.valid_records[:160]


@pytest.fixture(scope="module")
def dense(corpus):
    return compute_distances(corpus)


@pytest.fixture(scope="module")
def sparse(corpus):
    return compute_distances(corpus, storage="sparse")


@pytest.fixture(scope="module")
def dense_linkage(dense):
    return AgglomerativeClusterer().fit(dense.total)


@pytest.fixture(scope="module")
def sparse_linkage(sparse):
    return AgglomerativeClusterer().fit(sparse.total)


def merge_tuple(merge):
    return (merge.id_a, merge.id_b, merge.height, merge.size, merge.new_id)


class TestSparseFitCertificate:
    def test_certified_prefix_is_bitwise_dense(
        self, dense_linkage, sparse_linkage
    ):
        k = sparse_linkage.exact_merges
        assert k > 0
        for got, want in zip(
            sparse_linkage.merges[:k], dense_linkage.merges[:k]
        ):
            assert merge_tuple(got) == merge_tuple(want)

    def test_floor_separates_prefix_from_dense_tail(
        self, dense_linkage, sparse_linkage
    ):
        floor = sparse_linkage.height_floor
        k = sparse_linkage.exact_merges
        # The floor must sit above every certified height and at-or-below
        # every dense tail height: that is the sandwich the cut stage
        # certifies thresholds against.
        assert all(m.height < floor for m in sparse_linkage.merges[:k])
        assert all(m.height >= floor for m in dense_linkage.merges[k:])
        assert floor > 0.25  # cut thresholds (<= 0.25) stay certifiable

    def test_cut_labels_match_dense_below_floor(
        self, dense_linkage, sparse_linkage
    ):
        for threshold in (0.05, 0.1, 0.2, 0.25):
            np.testing.assert_array_equal(
                sparse_linkage.cut(threshold), dense_linkage.cut(threshold)
            )

    def test_dense_linkage_is_fully_exact(self, dense_linkage):
        assert dense_linkage.exact_merges == len(dense_linkage.merges)
        assert dense_linkage.height_floor == float("inf")


class TestEvaluateCutsSparse:
    def test_default_selection_matches_dense(
        self, dense, sparse, dense_linkage, sparse_linkage
    ):
        want = evaluate_cuts(dense_linkage, dense.total)
        got = evaluate_cuts_sparse(sparse_linkage, sparse.operands)
        assert got.threshold == want.threshold
        assert got.score == want.score
        assert got.n_candidates == want.n_candidates
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_parallel_plan_is_invisible(self, sparse, sparse_linkage):
        serial = evaluate_cuts_sparse(sparse_linkage, sparse.operands)
        parallel = evaluate_cuts_sparse(
            sparse_linkage,
            sparse.operands,
            plan=ExecutionPlan(workers=2, tile_size=48),
        )
        assert parallel.threshold == serial.threshold
        assert parallel.score == serial.score
        np.testing.assert_array_equal(parallel.labels, serial.labels)

    def test_fixed_threshold_matches_dense_sweep(
        self, dense, sparse, dense_linkage, sparse_linkage
    ):
        selection = evaluate_cuts_sparse(
            sparse_linkage, sparse.operands, candidates=[0.1]
        )
        want = evaluate_cuts(dense_linkage, dense.total, candidates=[0.1])
        labels = dense_linkage.cut(0.1)
        np.testing.assert_array_equal(selection.labels, labels)
        assert selection.score == want.score
        assert selection.score == pytest.approx(
            average_silhouette(dense.total, labels), rel=1e-9
        )
        assert selection.n_candidates == 1

    @pytest.mark.no_detsan  # counts kernel calls; DetSan's tile
    # verification recomputes every tile once more
    def test_one_distance_pass_whatever_the_candidate_count(
        self, monkeypatch, sparse, sparse_linkage
    ):
        import repro.perf.blocking as blocking

        calls = []
        original = blocking.combined_distance_tile

        def counting(operands, tile):
            calls.append((tile.start, tile.stop))
            return original(operands, tile)

        monkeypatch.setattr(blocking, "combined_distance_tile", counting)
        plan = ExecutionPlan(tile_size=48)
        tiles = [(t.start, t.stop) for t in plan.tiles(sparse.size)]
        scored = []
        for candidates in ([0.1], [0.05, 0.1, 0.15, 0.2], None):
            calls.clear()
            selection = evaluate_cuts_sparse(
                sparse_linkage,
                sparse.operands,
                plan=plan,
                candidates=candidates,
            )
            scored.append(selection.n_candidates)
            assert calls == tiles
        assert scored[0] == 1 and scored[1] == 4 and scored[2] > 1

    def test_fully_exact_linkage_needs_no_certificate(
        self, dense, sparse, dense_linkage
    ):
        # A dense (fully exact) linkage goes through the sparse scorer
        # without any certification and must reproduce the dense sweep.
        want = evaluate_cuts(dense_linkage, dense.total)
        got = evaluate_cuts_sparse(dense_linkage, sparse.operands)
        assert got.threshold == want.threshold
        assert got.score == want.score
        np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_unmerged_linkage_reports_the_given_candidates(
        self, corpus, storage
    ):
        # One record: no merge to score, but the given candidates are
        # still what the caller asked for, on both paths.
        one = compute_distances(corpus[:1], storage=storage)
        linkage = AgglomerativeClusterer().fit(one.total)
        assert linkage.merges == []
        if storage == "dense":
            selection = evaluate_cuts(
                linkage, one.total, candidates=[0.1, 0.05]
            )
        else:
            selection = evaluate_cuts_sparse(
                linkage, one.operands, candidates=[0.1, 0.05]
            )
        assert selection.threshold == 0.1
        assert selection.n_candidates == 2
        assert selection.score == 0.0
        np.testing.assert_array_equal(selection.labels, [0])

    def test_uncertified_fixed_threshold_raises(
        self, sparse, sparse_linkage
    ):
        floor = sparse_linkage.height_floor
        with pytest.raises(BlockingExactnessError, match="undercut"):
            evaluate_cuts_sparse(
                sparse_linkage, sparse.operands, candidates=[floor]
            )


def synthetic_linkage(heights, exact_merges, floor):
    """A chain linkage with the given merge heights (leaves 0..n)."""
    n = len(heights) + 1
    merges = []
    previous = 0
    for i, height in enumerate(heights):
        merges.append(
            Merge(
                id_a=previous,
                id_b=i + 1,
                height=float(height),
                size=i + 2,
                new_id=n + i,
            )
        )
        previous = n + i
    return Linkage(n, merges, exact_merges=exact_merges, height_floor=floor)


class TestCertificationRefusals:
    """Every refusal path, on linkages where exactness provably fails."""

    def test_non_positive_floor_refuses(self, sparse):
        linkage = synthetic_linkage([0.1, 1.0, 1.0], 1, 1e-13)
        with pytest.raises(BlockingExactnessError, match="not positive"):
            evaluate_cuts_sparse(linkage, sparse.operands)

    def test_uncertified_quantiles_refuse(self, sparse):
        # Floor 0.2: the dense tail may live anywhere in [0.2, 1.0], so
        # quantiles at or below max_threshold=0.25 depend on it.
        linkage = synthetic_linkage(
            [0.05, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 2, 0.2
        )
        with pytest.raises(BlockingExactnessError, match="uncertified"):
            evaluate_cuts_sparse(linkage, sparse.operands)

    def test_fallback_with_no_exact_merges_refuses(self, sparse):
        # Every candidate lands above max_threshold, so the default path
        # falls back to min(heights[0], max_threshold) — but with zero
        # certified merges even heights[0] is a placeholder.
        linkage = synthetic_linkage([1.0, 1.0, 1.0], 0, 0.4)
        with pytest.raises(BlockingExactnessError, match="first merge"):
            evaluate_cuts_sparse(linkage, sparse.operands)

    def test_explicit_threshold_at_or_above_floor_refuses(self, sparse):
        linkage = synthetic_linkage([0.1, 1.0, 1.0], 1, 0.3)
        for threshold in (0.3, 0.35):
            with pytest.raises(BlockingExactnessError, match="undercut"):
                evaluate_cuts_sparse(
                    linkage, sparse.operands, candidates=[threshold]
                )
