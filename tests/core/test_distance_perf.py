"""Blocked / parallel distance paths on a real corpus.

The acceptance property of the perf subsystem: every execution
configuration yields the same science. Worker count and tile size must
never change a single bit of the distance matrices or the downstream cut
selection, and only the two exact storages (dense, sparse) exist.
"""

import numpy as np
import pytest

from repro.core.clustering import AgglomerativeClusterer, evaluate_cuts
from repro.core.distance import compute_distances
from repro.core.pipeline import MinerConfig
from repro.perf import ExecutionPlan


@pytest.fixture(scope="module")
def corpus(small_dataset):
    # Keep it moderate so the ProcessPool cases stay fast.
    return small_dataset.valid_records[:160]


@pytest.fixture(scope="module")
def reference(corpus):
    return compute_distances(corpus)


class TestBlockedAndParallelIdentity:
    def test_tile_size_is_invisible(self, corpus, reference):
        for tile_size in (7, 50, 1000):
            got = compute_distances(
                corpus, plan=ExecutionPlan(tile_size=tile_size)
            )
            assert got.total.tobytes() == reference.total.tobytes()
            assert got.text.tobytes() == reference.text.tobytes()
            assert got.url.tobytes() == reference.url.tobytes()

    def test_workers_1_2_4_bit_identical_distances_and_cut(
        self, corpus, reference
    ):
        selections = []
        for workers in (1, 2, 4):
            got = compute_distances(
                corpus, plan=ExecutionPlan(workers=workers, tile_size=48)
            )
            assert got.total.tobytes() == reference.total.tobytes()
            assert got.text.tobytes() == reference.text.tobytes()
            assert got.url.tobytes() == reference.url.tobytes()
            linkage = AgglomerativeClusterer().fit(got.total)
            selections.append(evaluate_cuts(linkage, got.total_square()))
        first = selections[0]
        for other in selections[1:]:
            assert other.threshold == first.threshold
            assert other.score == first.score
            np.testing.assert_array_equal(other.labels, first.labels)

    def test_matrices_are_symmetric_without_symmetrization(self, reference):
        for matrix in (reference.text, reference.url, reference.total):
            assert matrix.tobytes() == np.ascontiguousarray(matrix.T).tobytes()


class TestReducedModes:
    """The non-exact footprint modes are gone: asking for one raises."""

    def test_invalid_modes_raise(self, corpus):
        with pytest.raises(ValueError, match="storage"):
            compute_distances(corpus, storage="condensed")
        with pytest.raises(TypeError):
            compute_distances(corpus, precision="float32")
        with pytest.raises(TypeError):
            compute_distances(corpus, storage="sparse", blocking="url")


class TestMinerConfigKnobs:
    def test_defaults(self):
        cfg = MinerConfig()
        assert cfg.workers == 1
        assert cfg.precision == "float64"
        assert cfg.storage == "dense"
        assert cfg.tile_size >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MinerConfig(workers=0)
        with pytest.raises(ValueError):
            MinerConfig(tile_size=0)
        with pytest.raises(ValueError):
            MinerConfig(precision="float16")
        with pytest.raises(ValueError, match="precision"):
            MinerConfig(precision="float32")
        with pytest.raises(ValueError, match="storage"):
            MinerConfig(storage="condensed")
        with pytest.raises(ValueError):
            MinerConfig(storage="sparse")  # requires blocking="url"
        with pytest.raises(ValueError):
            MinerConfig(blocking="url")  # requires storage="sparse"
        with pytest.raises(ValueError):
            MinerConfig(blocking="lsh")
        for bad_bound in (0.0, -0.1, 0.51):
            with pytest.raises(ValueError):
                MinerConfig(
                    storage="sparse", blocking="url", blocking_bound=bad_bound
                )

    def test_sparse_knobs(self):
        from repro.perf import DEFAULT_SPARSE_BOUND

        cfg = MinerConfig(storage="sparse", blocking="url")
        assert cfg.blocking_bound == DEFAULT_SPARSE_BOUND
        tightened = cfg.replace(blocking_bound=0.5)
        assert tightened.blocking_bound == 0.5
