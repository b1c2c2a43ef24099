"""``CorpusIndex``: the one place that builds the distance kernels' operands.

An index extended by a batch must be bitwise the index built over the
union: the incremental miner extends after every absorb, and a
compaction (or a fresh serve) rebuilds from scratch.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.distance import CorpusIndex
from repro.core.features import extract_all
from repro.core.textsim import SoftCosineModel


def texts_and_urls(features):
    return (
        [list(f.text_tokens) for f in features],
        [f.url_tokens for f in features],
    )


def assert_operands_identical(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if hasattr(x, "indptr"):
            assert x.shape == y.shape, field.name
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(x, part), getattr(y, part))
                assert getattr(x, part).dtype == getattr(y, part).dtype
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
        else:
            assert x == y, field.name


@pytest.fixture(scope="module")
def features(small_dataset):
    return extract_all(small_dataset.valid_records[:90])


@pytest.mark.parametrize("split", [1, 45, 89])
def test_extended_is_bitwise_the_union_build(features, split):
    texts, urls = texts_and_urls(features)
    # The model is fitted on the whole corpus, as the miner's frozen one
    # is fitted before any batch arrives; the batch adds a URL-less row.
    model = SoftCosineModel().fit(texts)
    batch_texts, batch_urls = texts[split:] + [[]], urls[split:] + [frozenset()]
    base = CorpusIndex.build(model, texts[:split], urls[:split])
    grown = base.extended(base.queries(batch_texts, batch_urls), batch_urls)
    union = CorpusIndex.build(
        model, texts[:split] + batch_texts, urls[:split] + batch_urls
    )
    assert dict(grown.url_vocabulary) == dict(union.url_vocabulary)
    assert list(grown.url_vocabulary) == list(union.url_vocabulary)
    assert_operands_identical(grown.operands, union.operands)
    # Extending built a new index; the base one is untouched.
    assert base.operands.n == split


def test_vocabulary_is_first_seen_over_sorted_lists():
    model = SoftCosineModel().fit([["a", "b"], ["b", "c"]])
    index = CorpusIndex.build(
        model, [["a"], ["b"]], [frozenset({"z", "y"}), frozenset({"x", "y"})]
    )
    assert list(index.url_vocabulary) == ["y", "z", "x"]


def test_query_sizes_count_out_of_vocabulary_tokens():
    model = SoftCosineModel().fit([["a", "b"], ["b", "c"]])
    index = CorpusIndex.build(model, [["a"]], [frozenset({"p"})])
    queries = index.queries([["a"]], [frozenset({"p", "q"})])
    assert queries.q_url_member.shape == (1, 1)
    assert queries.q_url_member.sum() == 1.0
    assert queries.q_url_sizes.tolist() == [2.0]
    assert queries.q_url_empty.tolist() == [False]
