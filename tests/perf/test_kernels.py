"""Blocked kernels vs. brute-force references."""

import numpy as np
import pytest

from repro.perf import (
    Tile,
    jaccard_distance_tile,
    soft_cosine_similarity_tile,
)
from repro.util.textproc import jaccard_distance
from repro.core.urlsim import url_membership_operands

from tests.perf.test_plan import tiny_operands


def full_tile(n):
    return Tile(0, n)


class TestKernelCorrectness:
    def test_jaccard_matches_set_arithmetic(self):
        rng = np.random.default_rng(11)
        token_sets = [
            {f"t{j}" for j in rng.choice(20, size=rng.integers(0, 8), replace=False)}
            for _ in range(17)
        ]
        token_sets[3] = set()
        token_sets[9] = set()
        member, sizes, empty = url_membership_operands(token_sets)
        dist = jaccard_distance_tile(member, sizes, empty, full_tile(17))
        for i in range(17):
            for j in range(17):
                expected = jaccard_distance(token_sets[i], token_sets[j])
                assert dist[i, j] == pytest.approx(expected, abs=1e-12)

    def test_jaccard_empty_conventions(self):
        member, sizes, empty = url_membership_operands([set(), {"a"}, set()])
        dist = jaccard_distance_tile(member, sizes, empty, full_tile(3))
        assert dist[0, 2] == 0.0 and dist[2, 0] == 0.0  # both empty
        assert dist[0, 1] == 1.0 and dist[1, 0] == 1.0  # empty vs non-empty

    def test_jaccard_no_tokens_anywhere(self):
        member, sizes, empty = url_membership_operands([set(), set(), set()])
        dist = jaccard_distance_tile(member, sizes, empty, full_tile(3))
        assert np.all(dist == 0.0)

    def test_soft_cosine_is_bitwise_symmetric(self):
        operands = tiny_operands(n=19, seed=5)
        sim = soft_cosine_similarity_tile(
            operands.bow_normed,
            operands.doc_emb,
            operands.zero_rows,
            operands.blend,
            full_tile(19),
        )
        assert sim.tobytes() == np.ascontiguousarray(sim.T).tobytes()
        assert np.all(np.diag(sim) == 1.0)
        assert sim.min() >= 0.0 and sim.max() <= 1.0

    def test_zero_embedding_rows_fall_back_to_exact_cosine(self):
        operands = tiny_operands(n=19, seed=5)
        sim = soft_cosine_similarity_tile(
            operands.bow_normed,
            operands.doc_emb,
            operands.zero_rows,
            operands.blend,
            full_tile(19),
        )
        exact = np.asarray(
            (operands.bow_normed @ operands.bow_normed.T).toarray()
        )
        np.clip(exact, 0.0, 1.0, out=exact)
        np.fill_diagonal(exact, 1.0)
        zero = np.flatnonzero(operands.zero_rows)
        assert np.allclose(sim[zero, :], exact[zero, :], atol=1e-12)
        assert np.allclose(sim[:, zero], exact[:, zero], atol=1e-12)

    def test_blocked_rows_equal_full_rows_bitwise(self):
        operands = tiny_operands(n=29, seed=9)
        full = soft_cosine_similarity_tile(
            operands.bow_normed,
            operands.doc_emb,
            operands.zero_rows,
            operands.blend,
            full_tile(29),
        )
        for start, stop in ((0, 4), (4, 11), (11, 29), (28, 29)):
            rows = soft_cosine_similarity_tile(
                operands.bow_normed,
                operands.doc_emb,
                operands.zero_rows,
                operands.blend,
                Tile(start, stop),
            )
            assert rows.tobytes() == full[start:stop].tobytes()
