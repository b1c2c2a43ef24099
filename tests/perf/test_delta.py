"""``nearest_corpus_rows`` against the dense ``np.argmin`` oracle.

Both tile kernels are checked against one reference: the
:func:`~repro.perf.kernels.query_distance_tile` rows of every query,
concatenated over the corpus, reduced by ``np.argmin``. The corpus holds
every row twice (row ``i`` and row ``i + half`` are the same record), so
every nearest row has a tie in another tile for any tile size below the
corpus size, and the lower column must win.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.distance import CorpusIndex
from repro.core.features import extract_all
from repro.core.textsim import SoftCosineModel
from repro.perf import (
    ExecutionPlan,
    Tile,
    nearest_corpus_rows,
    query_distance_tile,
)
from repro.serve import MinedSnapshot, ServeCore, canonical_json

HALF = 40
BOUNDS = (0.3, 0.45)
#: Half of the wide corpus: twice this is over 512 rows, so every tile
#: size of the cross-plan test splits it.
WIDE_HALF = 450


def texts_and_urls(features):
    return (
        [list(f.text_tokens) for f in features],
        [f.url_tokens for f in features],
    )


@pytest.fixture(scope="module")
def queries(small_dataset):
    features = extract_all(small_dataset.valid_records[: HALF + 30])
    base = features[:HALF]
    corpus = base + base
    texts, urls = texts_and_urls(corpus)
    index = CorpusIndex.build(SoftCosineModel().fit(texts), texts, urls)
    # Unseen records, plus exact copies of corpus records (distance 0,
    # tied between a row and its twin).
    return index.queries(*texts_and_urls(features[HALF:] + base[::4]))


@pytest.fixture(scope="module")
def wide_queries(small_dataset):
    features = extract_all(small_dataset.valid_records)
    base = features[:WIDE_HALF]
    texts, urls = texts_and_urls(base + base)
    index = CorpusIndex.build(SoftCosineModel().fit(texts), texts, urls)
    return index.queries(*texts_and_urls(features[WIDE_HALF:] + base[::9]))


@pytest.fixture(scope="module")
def oracle(queries):
    n = queries.corpus.n
    row = query_distance_tile(queries, Tile(0, n))
    columns = row.argmin(axis=1)
    return row, row[np.arange(row.shape[0]), columns], columns


def tile_sizes(queries):
    return (1, 7, queries.corpus.n)


def test_corpus_ties_cross_tile_edges(queries, oracle):
    row, _, columns = oracle
    assert np.array_equal(row[:, :HALF], row[:, HALF:])
    assert np.all(columns < HALF)


@pytest.mark.parametrize("workers", [1, 2])
def test_exhaustive_search_is_bitwise_argmin(queries, oracle, workers):
    _, distances, columns = oracle
    for tile_size in tile_sizes(queries):
        plan = ExecutionPlan(workers=workers, tile_size=tile_size)
        found = nearest_corpus_rows(queries, plan)
        assert found.bound is None
        assert found.distances.tobytes() == distances.tobytes(), tile_size
        assert np.array_equal(found.columns, columns), tile_size
        assert found.columns.dtype == np.int64
        assert (found.n_candidates, found.n_scored) == (0, 0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bound", BOUNDS)
def test_blocked_search_agrees_below_the_bound(queries, oracle, workers, bound):
    row, distances, columns = oracle
    below = distances < bound
    assert below.any() and not below.all()
    for tile_size in tile_sizes(queries):
        plan = ExecutionPlan(workers=workers, tile_size=tile_size)
        found = nearest_corpus_rows(queries, plan, bound=bound)
        assert found.bound == bound
        assert found.distances[below].tobytes() == distances[below].tobytes()
        assert np.array_equal(found.columns[below], columns[below])
        # At or above the bound the blocked search either found no
        # candidate (inf, -1) or returns the exact entry of a candidate
        # that passed the screens: they are upper bounds on similarity,
        # so some survivors still lie at or above the bound.
        unfound = found.columns == -1
        assert np.all(np.isinf(found.distances[unfound]))
        for i in np.flatnonzero(~below & ~unfound):
            col = found.columns[i]
            assert found.distances[i] >= bound
            assert found.distances[i].tobytes() == row[i, col].tobytes()


@pytest.mark.parametrize("bound", [None, 0.45])
def test_empty_corpus_raises(bound):
    model = SoftCosineModel().fit([["a", "b"], ["b", "c"]])
    index = CorpusIndex.build(model, [], [])
    queries = index.queries([["a", "b"]], [frozenset({"x"})])
    with pytest.raises(ValueError, match="empty corpus"):
        nearest_corpus_rows(queries, ExecutionPlan(), bound=bound)


@pytest.mark.parametrize("bound", [None, 0.45])
def test_search_is_bitwise_equal_across_plans(wide_queries, bound):
    reference = nearest_corpus_rows(wide_queries, ExecutionPlan(), bound=bound)
    if bound is None:
        n = wide_queries.corpus.n
        row = query_distance_tile(wide_queries, Tile(0, n))
        assert np.array_equal(reference.columns, row.argmin(axis=1))
    for workers in (1, 2, 4):
        for tile_size in (48, 257, 512):
            plan = ExecutionPlan(workers=workers, tile_size=tile_size)
            found = nearest_corpus_rows(wide_queries, plan, bound=bound)
            assert found.distances.tobytes() == reference.distances.tobytes()
            assert found.columns.tobytes() == reference.columns.tobytes()
            assert (found.n_candidates, found.n_scored) == (
                reference.n_candidates,
                reference.n_scored,
            )


def test_query_kernels_take_their_tiles_cut(wide_queries):
    n = wide_queries.corpus.n
    tile = Tile(48, 96)
    cut = wide_queries.for_tile(tile)
    assert cut.corpus.n == tile.size
    assert cut.n_queries == wide_queries.n_queries
    whole = query_distance_tile(wide_queries, Tile(0, n))
    assert query_distance_tile(cut, tile).tobytes() == (
        np.ascontiguousarray(whole[:, 48:96]).tobytes()
    )
    with pytest.raises(ValueError, match="for_tile"):
        query_distance_tile(wide_queries, tile)


def test_threads_classify_through_one_pool(
    small_result, small_dataset, pools_started
):
    snapshot = MinedSnapshot.from_result(small_result)
    queries = [
        {"title": r.title, "body": r.body, "landing_url": r.landing_url}
        for r in small_dataset.valid_records[:48]
    ]
    batches = [queries[i::6] for i in range(6)]
    serial = ServeCore(snapshot, tile_size=64, cache_size=0)
    expected = [canonical_json(serial.classify_batch(b)) for b in batches]
    assert pools_started == []
    core = ServeCore(snapshot, workers=2, tile_size=64, cache_size=0)
    with ThreadPoolExecutor(max_workers=4) as threads:
        answers = list(threads.map(core.classify_batch, batches))
    assert [canonical_json(a) for a in answers] == expected
    assert len(pools_started) == 1
