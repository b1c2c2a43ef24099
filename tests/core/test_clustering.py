"""Tests for agglomerative clustering, dendrogram cuts, and silhouette."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.clustering import (
    AgglomerativeClusterer,
    Linkage,
    Merge,
    cluster_records,
    evaluate_cuts,
)
from repro.core.silhouette import average_silhouette, silhouette_samples


def block_distance_matrix(groups, within=0.05, between=0.9, seed=0):
    """Distance matrix with clearly separated clusters of given sizes."""
    rng = np.random.default_rng(seed)
    n = sum(groups)
    labels = np.repeat(np.arange(len(groups)), groups)
    dist = np.where(
        labels[:, None] == labels[None, :],
        within + rng.random((n, n)) * 0.02,
        between + rng.random((n, n)) * 0.05,
    )
    dist = (dist + dist.T) / 2
    np.fill_diagonal(dist, 0.0)
    return dist, labels


class TestAgglomerative:
    def test_recovers_block_structure(self):
        dist, truth = block_distance_matrix([5, 7, 4])
        linkage = AgglomerativeClusterer().fit(dist)
        labels = linkage.cut(0.5)
        assert labels.max() + 1 == 3
        # same truth group <=> same label
        for i in range(len(truth)):
            for j in range(len(truth)):
                assert (labels[i] == labels[j]) == (truth[i] == truth[j])

    def test_cut_zero_keeps_exact_duplicates_together(self):
        dist = np.array([
            [0.0, 0.0, 0.8],
            [0.0, 0.0, 0.8],
            [0.8, 0.8, 0.0],
        ])
        linkage = AgglomerativeClusterer().fit(dist)
        labels = linkage.cut(0.0)
        assert labels[0] == labels[1] != labels[2]

    def test_cut_above_max_height_merges_all(self):
        dist, _ = block_distance_matrix([3, 3])
        linkage = AgglomerativeClusterer().fit(dist)
        assert linkage.n_clusters_at(10.0) == 1

    def test_merge_count(self):
        dist, _ = block_distance_matrix([4, 4])
        linkage = AgglomerativeClusterer().fit(dist)
        assert len(linkage.merges) == 7

    def test_heights_nondecreasing_along_tree(self):
        # Average linkage has no inversions: sorted merges must respect the
        # tree (every child id appears before its parent uses it).
        dist, _ = block_distance_matrix([6, 6, 6], seed=3)
        linkage = AgglomerativeClusterer().fit(dist)
        heights = linkage.heights()
        assert (np.diff(heights) >= -1e-12).all()

    def test_average_linkage_height_is_mean_pairwise(self):
        dist = np.array([
            [0.0, 0.2, 0.6, 0.7],
            [0.2, 0.0, 0.8, 0.5],
            [0.6, 0.8, 0.0, 0.1],
            [0.7, 0.5, 0.1, 0.0],
        ])
        linkage = AgglomerativeClusterer().fit(dist)
        final = max(m.height for m in linkage.merges)
        assert final == pytest.approx((0.6 + 0.7 + 0.8 + 0.5) / 4)

    def test_trivial_sizes(self):
        assert AgglomerativeClusterer().fit(np.zeros((0, 0))).merges == []
        assert AgglomerativeClusterer().fit(np.zeros((1, 1))).merges == []
        two = AgglomerativeClusterer().fit(np.array([[0.0, 0.3], [0.3, 0.0]]))
        assert len(two.merges) == 1
        assert two.merges[0].height == pytest.approx(0.3)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            AgglomerativeClusterer().fit(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        for bad in (np.inf, np.nan):
            dist = np.array([
                [0.0, 0.2, 0.6],
                [0.2, 0.0, bad],
                [0.6, bad, 0.0],
            ])
            with pytest.raises(ValueError, match="finite"):
                AgglomerativeClusterer().fit(dist)

    def test_linkage_validates_merge_count(self):
        with pytest.raises(ValueError):
            Linkage(3, [Merge(0, 1, 0.1, 2, 3)])

    def test_labels_are_contiguous(self):
        dist, _ = block_distance_matrix([3, 3, 3])
        labels = AgglomerativeClusterer().fit(dist).cut(0.5)
        assert set(labels) == set(range(labels.max() + 1))


def pinned_matrix(kind, n, seed):
    """A seeded symmetric matrix: quarter-step ``grid`` values (heavy
    ties, zeros included), one ``flat`` value everywhere, or ``random``."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        upper = rng.integers(0, 5, size=(n, n)) / 4.0
    elif kind == "flat":
        upper = np.full((n, n), 0.5)
    else:
        upper = rng.random((n, n))
    upper = np.triu(upper, 1)
    return upper + upper.T


class TestMergeOrderPin:
    """The dense fit's exact merge list, pinned by digest.

    The dense≡sparse identity tests compare callers of one merge loop,
    and the scipy checks compare heights to a tolerance and partitions;
    neither would notice the loop itself changing its tie-break, its
    slot bookkeeping or one ulp of a height.  These digests cover ids,
    ``float.hex`` heights, sizes and new ids in stored order.
    """

    @pytest.mark.parametrize(
        "kind,n,seed,digest",
        [
            ("grid", 9, 0, "28b78e0ddc3d9a4e1d11efe724bd1dcb59d2a265c436c2a7df47c6cc87485591"),
            ("grid", 24, 1, "2bcdb5407d446a9ae80c55f38bfb7f7889ef611b62917b4bec820d3b506cbd9c"),
            ("grid", 47, 2, "52268757419d76f061266a2d08d3f6f5d45d06ccff2e60eff9a8eb77d46cbf0f"),
            ("flat", 12, 0, "a263263bb613ea0b3e5dcf9d42a1fcaa009967ebc49c50c3bd0a320755970bde"),
            ("random", 8, 3, "438dd421190e1ce63c4158648f1869fd3e2ccc1b1c264a85f2365a3dc27d6a53"),
            ("random", 31, 4, "284e5dafdd6959424709cac33e6d715b872a96b45fd82f35fec6572d1061ddab"),
            ("random", 60, 5, "344f9e050068343c30f6ba8510ddda4ad0e280e863aec3cf6e05f99f60279f81"),
        ],
    )
    def test_merge_list_digest(self, kind, n, seed, digest):
        linkage = AgglomerativeClusterer().fit(pinned_matrix(kind, n, seed))
        rows = [
            [m.id_a, m.id_b, m.height.hex(), m.size, m.new_id]
            for m in linkage.merges
        ]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


class TestSilhouette:
    def test_perfect_clusters_score_high(self):
        dist, truth = block_distance_matrix([5, 5])
        assert average_silhouette(dist, truth) > 0.85

    def test_bad_labels_score_low(self):
        dist, truth = block_distance_matrix([5, 5])
        scrambled = np.array([0, 1] * 5)
        assert average_silhouette(dist, scrambled) < average_silhouette(dist, truth)

    def test_degenerate_labelings(self):
        dist, _ = block_distance_matrix([4, 4])
        assert average_silhouette(dist, np.zeros(8, dtype=int)) == -1.0
        assert average_silhouette(dist, np.arange(8)) == -1.0

    def test_singletons_get_zero(self):
        dist, _ = block_distance_matrix([4, 1])
        labels = np.array([0, 0, 0, 0, 1])
        samples = silhouette_samples(dist, labels)
        assert samples[4] == 0.0

    def test_samples_bounded(self):
        dist, truth = block_distance_matrix([4, 6, 3])
        samples = silhouette_samples(dist, truth)
        assert (samples >= -1.0).all() and (samples <= 1.0).all()

    def test_requires_two_clusters(self):
        dist, _ = block_distance_matrix([4])
        with pytest.raises(ValueError):
            silhouette_samples(dist, np.zeros(4, dtype=int))

    def test_noncontiguous_labels_ok(self):
        dist, truth = block_distance_matrix([5, 5])
        relabeled = np.where(truth == 0, 17, 99)
        assert average_silhouette(dist, relabeled) == pytest.approx(
            average_silhouette(dist, truth)
        )


class TestSelectCut:
    def test_finds_block_structure(self):
        dist, truth = block_distance_matrix([8, 8, 8])
        linkage = AgglomerativeClusterer().fit(dist)
        selection = evaluate_cuts(linkage, dist, min_cluster_fraction=0.05)
        assert selection.labels.max() + 1 == 3
        assert selection.score > 0.8

    def test_conservative_constraint_respected(self):
        dist, _ = block_distance_matrix([10, 10])
        linkage = AgglomerativeClusterer().fit(dist)
        selection = evaluate_cuts(linkage, dist, min_cluster_fraction=0.4)
        assert selection.labels.max() + 1 >= 8  # at least 0.4 * 20

    def test_explicit_candidates(self):
        dist, _ = block_distance_matrix([5, 5])
        linkage = AgglomerativeClusterer().fit(dist)
        selection = evaluate_cuts(linkage, dist, candidates=[0.5])
        assert selection.threshold == 0.5

    def test_cluster_records_wrapper(self):
        dist, _ = block_distance_matrix([6, 6])
        labels, linkage, threshold, score = cluster_records(dist, threshold=0.5)
        assert labels.max() + 1 == 2
        assert threshold == 0.5
        assert -1.0 <= score <= 1.0


class TestScipyInterop:
    def test_to_scipy_shape_and_validity(self):
        from scipy.cluster.hierarchy import is_valid_linkage

        dist, _ = block_distance_matrix([5, 6, 4])
        linkage = AgglomerativeClusterer().fit(dist)
        matrix = linkage.to_scipy()
        assert matrix.shape == (14, 4)
        assert is_valid_linkage(matrix)

    def test_to_scipy_cuts_agree(self):
        from scipy.cluster.hierarchy import fcluster

        dist, _ = block_distance_matrix([5, 6, 4], seed=9)
        linkage = AgglomerativeClusterer().fit(dist)
        matrix = linkage.to_scipy()
        for threshold in (0.02, 0.1, 0.5, 1.0):
            ours = linkage.cut(threshold)
            theirs = fcluster(matrix, t=threshold, criterion="distance")
            n = len(ours)
            for i in range(n):
                for j in range(i):
                    assert (ours[i] == ours[j]) == (theirs[i] == theirs[j])

    def test_to_scipy_ties_listed_parents_first(self):
        # Every merge ties with another, and the list names each parent
        # before the merges that create its children: rows must still
        # come out children-first, in the exact order pinned here.
        merges = [
            Merge(0, 1, 0.25, 2, 8), Merge(2, 3, 0.25, 2, 9),
            Merge(4, 5, 0.25, 2, 10), Merge(6, 7, 0.25, 2, 11),
            Merge(8, 9, 0.25, 4, 12), Merge(10, 11, 0.5, 4, 13),
            Merge(12, 13, 0.5, 8, 14),
        ]
        matrix = Linkage(8, list(reversed(merges))).to_scipy()
        expected = np.array([
            [6.0, 7.0, 0.25, 2.0],
            [4.0, 5.0, 0.25, 2.0],
            [2.0, 3.0, 0.25, 2.0],
            [0.0, 1.0, 0.25, 2.0],
            [10.0, 11.0, 0.25, 4.0],
            [8.0, 9.0, 0.5, 4.0],
            [12.0, 13.0, 0.5, 8.0],
        ])
        assert matrix.tobytes() == expected.tobytes()

    def test_to_scipy_trivial(self):
        assert AgglomerativeClusterer().fit(np.zeros((1, 1))).to_scipy().shape == (0, 4)
