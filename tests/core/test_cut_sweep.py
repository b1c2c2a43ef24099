"""Incremental cut sweeps against the rebuild-from-scratch oracles."""

import numpy as np
import pytest

from repro.core.clustering import (
    AgglomerativeClusterer,
    CutSelection,
    evaluate_cuts,
    silhouette_schedule,
)
from repro.core.silhouette import average_silhouette
from repro.perf import Tile, silhouette_rows


def random_linkage(rng, n):
    dist = rng.random((n, n))
    dist = (dist + dist.T) / 2
    np.fill_diagonal(dist, 0.0)
    return AgglomerativeClusterer().fit(dist), dist


def evaluate_cuts_oracle(linkage, distances, candidates):
    """The pre-sweep selection: rebuild labels + score per candidate."""
    best = (0.0, -np.inf)
    found = False
    for threshold in [float(t) for t in candidates]:
        labels = linkage.cut(threshold)
        score = average_silhouette(distances, labels)
        if score > best[1]:
            best = (threshold, score)
            found = True
    assert found
    return best


def sweep_scores(linkage, dist, thresholds):
    """Average silhouette per scheduled threshold, one-block sweep."""
    schedule = silhouette_schedule(linkage, thresholds)
    samples = silhouette_rows(schedule, dist, Tile(0, linkage.n_leaves))
    return {
        t: float(samples[i].mean())
        for i, t in enumerate(schedule.thresholds)
    }


class TestIncrementalSilhouetteSweep:
    def test_scores_match_rebuilt_silhouette(self):
        rng = np.random.default_rng(33)
        for trial in range(5):
            n = int(rng.integers(8, 50))
            linkage, dist = random_linkage(rng, n)
            heights = linkage.heights()
            quantiles = np.linspace(0.05, 0.95, 9)
            thresholds = sorted(set(float(np.quantile(heights, q)) for q in quantiles))
            scores = sweep_scores(linkage, dist, thresholds)
            for t in thresholds:
                expected = average_silhouette(dist, linkage.cut(t))
                got = scores.get(t, -1.0)
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
                single = evaluate_cuts(linkage, dist, candidates=[t])
                assert single.score == got

    def test_degenerate_cuts_score_minus_one(self):
        rng = np.random.default_rng(2)
        linkage, dist = random_linkage(rng, 12)
        # Every point its own cluster, and everything merged: neither is
        # scheduled, and both score -1.0.
        schedule = silhouette_schedule(linkage, [-1.0, 2.0])
        assert schedule.thresholds == ()
        assert schedule.n_merges == 0
        for threshold in (-1.0, 2.0):
            selection = evaluate_cuts(linkage, dist, candidates=[threshold])
            assert selection.score == -1.0

    def test_rejects_decreasing_thresholds(self):
        rng = np.random.default_rng(5)
        linkage, _ = random_linkage(rng, 10)
        with pytest.raises(ValueError):
            silhouette_schedule(linkage, [0.6, 0.1])

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(6)
        linkage, dist = random_linkage(rng, 10)
        schedule = silhouette_schedule(
            linkage, [float(np.median(linkage.heights()))]
        )
        with pytest.raises(ValueError):
            evaluate_cuts(linkage, dist[:8, :8])
        with pytest.raises(ValueError):
            silhouette_rows(schedule, dist[:4, :8], Tile(0, 4))
        with pytest.raises(ValueError):
            silhouette_rows(schedule, dist[:4], Tile(0, 5))

    def test_merges_swept_stop_at_the_highest_scored_cut(self):
        rng = np.random.default_rng(8)
        linkage, dist = random_linkage(rng, 30)
        heights = linkage.heights()
        median = float(np.median(heights))
        selection = evaluate_cuts(linkage, dist, candidates=[median])
        assert selection.merges_swept == int(np.sum(heights <= median))
        assert selection.merges_swept < len(linkage.merges)


class TestEvaluateCuts:
    def test_matches_rebuild_per_candidate_oracle(self):
        rng = np.random.default_rng(41)
        for trial in range(5):
            n = int(rng.integers(10, 60))
            linkage, dist = random_linkage(rng, n)
            heights = linkage.heights()
            candidates = [
                float(np.quantile(heights, q))
                for q in np.linspace(0.1, 0.9, 7)
            ]
            selection = evaluate_cuts(linkage, dist, candidates=candidates)
            threshold, score = evaluate_cuts_oracle(linkage, dist, candidates)
            assert selection.threshold == threshold
            assert selection.score == pytest.approx(score, rel=1e-9)
            np.testing.assert_array_equal(
                selection.labels, linkage.cut(threshold)
            )
            assert selection.n_candidates == len(candidates)

    def test_duplicate_candidates_scored_once_keep_first_win(self):
        rng = np.random.default_rng(7)
        linkage, dist = random_linkage(rng, 20)
        median = float(np.median(linkage.heights()))
        selection = evaluate_cuts(
            linkage, dist, candidates=[median, median, median]
        )
        assert isinstance(selection, CutSelection)
        assert selection.threshold == median
        assert selection.n_candidates == 3

    def test_empty_linkage(self):
        linkage = AgglomerativeClusterer().fit(np.zeros((1, 1)))
        selection = evaluate_cuts(linkage, np.zeros((1, 1)))
        assert selection.n_candidates == 0
