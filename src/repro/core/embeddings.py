"""Word embeddings for the soft-cosine term-similarity matrix.

The paper trains gensim's Word2Vec (skip-gram with negative sampling).
:class:`PpmiSvdEmbeddings` trains its count-based equivalent (Levy &
Goldberg, 2014): positive PMI over message-level co-occurrence, factorized
with truncated SVD. It is fast and exactly deterministic, and it yields the
row-normalized ``(vocabulary, embeddings)`` pair that
:class:`repro.core.textsim.SoftCosineModel` consumes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import svds


def build_vocabulary(
    corpus: Sequence[Sequence[str]], min_count: int = 1
) -> Dict[str, int]:
    """Sorted token -> index mapping over the corpus."""
    counts: Dict[str, int] = {}
    for tokens in corpus:
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
    return {
        token: idx
        for idx, token in enumerate(
            sorted(t for t, c in counts.items() if c >= min_count)
        )
    }


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


class PpmiSvdEmbeddings:
    """PPMI + truncated SVD embeddings."""

    def __init__(self, dimensions: int = 48, min_count: int = 1):
        if dimensions < 2:
            raise ValueError("dimensions must be >= 2")
        self.dimensions = dimensions
        self.min_count = min_count

    def fit(
        self, corpus: Sequence[Sequence[str]]
    ) -> Tuple[Dict[str, int], np.ndarray]:
        vocabulary = build_vocabulary(corpus, self.min_count)
        v = len(vocabulary)
        if v == 0:
            return vocabulary, np.zeros((0, self.dimensions))
        cooc = self._cooccurrence(corpus, vocabulary)
        ppmi = self._ppmi(cooc)
        if ppmi.nnz == 0:
            # Uniform co-occurrence: no positive PMI signal at all.
            return vocabulary, np.zeros((v, self.dimensions))
        k = min(self.dimensions, max(2, v - 1))
        if v <= 200:
            # Tiny vocabularies: dense SVD is cheap and, unlike ARPACK,
            # never fails to converge on degenerate matrices.
            u, s, _ = np.linalg.svd(ppmi.toarray())
            k = min(k, u.shape[1])
            embeddings = u[:, :k] * np.sqrt(s[:k])
        else:
            # ARPACK's default starting vector is drawn from numpy's global
            # RNG, which made every fit() nondeterministic; a fixed seeded
            # v0 restores bit-for-bit reproducibility.
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, size=ppmi.shape[0])
            u, s, _ = svds(ppmi.astype(np.float64), k=k, v0=v0)
            embeddings = u * np.sqrt(np.maximum(s, 0.0))
        return vocabulary, _normalize_rows(embeddings)

    @staticmethod
    def _cooccurrence(
        corpus: Sequence[Sequence[str]], vocabulary: Dict[str, int]
    ) -> sparse.csr_matrix:
        """Message-level co-occurrence counts as ``X.T @ X``.

        ``X`` is the binary document-term incidence matrix, so entry
        ``(a, b)`` is the number of messages containing both tokens and the
        diagonal is each token's document frequency — the same counts the
        per-document pair loops produced, but built by one sparse matmul.
        Counts are small exact integers in float64, so the result (and the
        PPMI factorization downstream) is bit-identical to the loop version.
        """
        rows: List[int] = []
        cols: List[int] = []
        for doc_idx, tokens in enumerate(corpus):
            for token in sorted(set(tokens)):
                idx = vocabulary.get(token)
                if idx is not None:
                    rows.append(doc_idx)
                    cols.append(idx)
        v = len(vocabulary)
        incidence = sparse.csr_matrix(
            (np.ones(len(rows), dtype=np.float64), (rows, cols)),
            shape=(len(corpus), v),
        )
        return (incidence.T @ incidence).tocsr()

    @staticmethod
    def _ppmi(cooc: sparse.csr_matrix) -> sparse.csr_matrix:
        total = cooc.sum()
        if total == 0:
            return cooc
        row_sums = np.asarray(cooc.sum(axis=1)).ravel()
        coo = cooc.tocoo()
        pmi = np.log(np.maximum(coo.data * total, 1e-12)) - np.log(
            np.maximum(row_sums[coo.row] * row_sums[coo.col], 1e-12)
        )
        data = np.maximum(pmi, 0.0)
        out = sparse.csr_matrix((data, (coo.row, coo.col)), shape=cooc.shape)
        out.eliminate_zeros()
        return out

