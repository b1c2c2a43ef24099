"""Property-based tests (hypothesis) on the silhouette cut sweep.

The sweep's schedule is built once and its kernel runs per row tile, so
the scores must not depend on how the rows are split or which process
computes them, and the sparse path (rows recomputed from the kernel
operands) must score bit for bit like the dense path (rows sliced from
the square).  Small vocabularies make duplicate documents and equal URL
distances common, so tied merge heights come up in most examples.
Handing the same merges to :class:`Linkage` in a shuffled order then
puts some parents before their children within a tie: the case the
sweep's dependency reordering exists for.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.clustering import (
    AgglomerativeClusterer,
    Linkage,
    evaluate_cuts,
    evaluate_cuts_sparse,
    silhouette_schedule,
)
from repro.perf import (
    CutScoringOperands,
    ExecutionPlan,
    PairwiseOperands,
    Tile,
    combined_distance_tile,
    cut_silhouette_tile,
    silhouette_rows,
)


def _normalized_rows(matrix):
    norms = np.sqrt((matrix * matrix).sum(axis=1))
    zero = norms == 0
    return matrix / np.where(zero, 1.0, norms)[:, None], zero


@st.composite
def pairwise_operands(draw, min_n=4, max_n=24):
    """Kernel operands over a tiny random corpus with many duplicates."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    # Few distinct documents, so whole rows repeat.
    kinds = rng.integers(0, max(2, n // 3), size=n)
    bow = (rng.random((kinds.max() + 1, 6)) < 0.4).astype(np.float64)
    bow_normed, _ = _normalized_rows(bow[kinds])
    emb = rng.integers(-2, 3, size=(kinds.max() + 1, 3)).astype(np.float64)
    doc_emb, zero_rows = _normalized_rows(emb[kinds])
    member = (rng.random((n, 4)) < 0.5).astype(np.float64)
    sizes = member.sum(axis=1)
    return PairwiseOperands(
        bow_normed=sparse.csr_matrix(bow_normed),
        doc_emb=doc_emb,
        zero_rows=zero_rows,
        blend=0.5,
        url_member=sparse.csr_matrix(member),
        url_sizes=sizes,
        url_empty=sizes == 0,
    )


def dense_total(operands):
    """The dense assembly's combined-distance square."""
    text, url = combined_distance_tile(operands, Tile(0, operands.n))
    return ((text + url) / 2.0).astype(np.float64)


def sweep_thresholds(linkage):
    heights = linkage.heights()
    return sorted(
        set(float(np.quantile(heights, q)) for q in np.linspace(0, 1, 7))
    )


class TestSilhouetteSweepProperties:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pairwise_operands(), st.randoms(use_true_random=False))
    def test_tile_size_and_workers_are_invisible(self, operands, random):
        n = operands.n
        total = dense_total(operands)
        fitted = AgglomerativeClusterer().fit(total)
        thresholds = sweep_thresholds(fitted)
        whole = silhouette_rows(
            silhouette_schedule(fitted, thresholds), total, Tile(0, n)
        )
        # The same dendrogram with its merges handed over in another order:
        # within a height tie a parent may now precede its child.
        merges = list(fitted.merges)
        random.shuffle(merges)
        linkage = Linkage(n, merges)
        schedule = silhouette_schedule(linkage, thresholds)
        assert silhouette_rows(
            schedule, total, Tile(0, n)
        ).tobytes() == whole.tobytes()
        cut_operands = CutScoringOperands(
            pairwise=operands, schedule=schedule
        )
        for workers in (1, 2):
            for tile_size in (1, 2, 7, n):
                plan = ExecutionPlan(workers=workers, tile_size=tile_size)
                parts = plan.run(
                    cut_silhouette_tile, cut_operands, plan.tiles(n)
                )
                samples = np.concatenate(parts, axis=1)
                assert samples.tobytes() == whole.tobytes()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pairwise_operands(), st.booleans())
    def test_sparse_scorer_is_the_dense_scorer(self, operands, default):
        total = dense_total(operands)
        linkage = AgglomerativeClusterer().fit(total)
        candidates = None if default else sweep_thresholds(linkage)
        want = evaluate_cuts(linkage, total, candidates=candidates)
        got = evaluate_cuts_sparse(
            linkage,
            operands,
            plan=ExecutionPlan(tile_size=3),
            candidates=candidates,
        )
        assert got.threshold.hex() == want.threshold.hex()
        assert got.score.hex() == want.score.hex()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.n_candidates == want.n_candidates
        assert got.merges_swept == want.merges_swept
