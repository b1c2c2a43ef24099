"""Tests for the PPMI-SVD word embeddings."""

import numpy as np
import pytest

from repro.core.embeddings import PpmiSvdEmbeddings, build_vocabulary

CORPUS = [
    ["win", "prize", "claim", "now"],
    ["win", "prize", "claim", "today"],
    ["claim", "your", "prize"],
    ["weather", "alert", "storm"],
    ["storm", "alert", "warning"],
    ["install", "app", "premium"],
    ["install", "app", "free"],
] * 4  # repeat for a denser co-occurrence signal


class TestVocabulary:
    def test_sorted_and_complete(self):
        vocab = build_vocabulary([["b", "a"], ["c", "a"]])
        assert list(vocab) == ["a", "b", "c"]
        assert vocab["a"] == 0

    def test_min_count(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert "b" not in vocab and "a" in vocab


class TestPpmiSvd:
    def test_shapes_and_norms(self):
        vocab, emb = PpmiSvdEmbeddings(dimensions=8).fit(CORPUS)
        assert emb.shape[0] == len(vocab)
        norms = np.linalg.norm(emb, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_empty(self):
        vocab, emb = PpmiSvdEmbeddings().fit([])
        assert vocab == {} and emb.shape[0] == 0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            PpmiSvdEmbeddings(dimensions=1)

