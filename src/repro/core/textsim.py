"""Soft cosine similarity over WPN message text.

The paper trains Word2Vec on the WPN corpus, builds a term-similarity
matrix, and feeds it with bag-of-words vectors into gensim's
``softcossim``. Offline we implement the same measure from first
principles:

* word embeddings — PPMI + truncated SVD (see
  :mod:`repro.core.embeddings`), the count-based equivalent of word2vec's
  SGNS objective;
* term similarity — cosine between word embeddings;
* soft cosine — the bilinear form ``a'Sb / sqrt(a'Sa * b'Sb)``. With
  ``S = E E'`` (row-normalized embeddings) this reduces to the cosine of
  summed word embeddings, which vectorizes to one matrix product for the
  whole corpus.

Because a small corpus can make unrelated words spuriously similar, the
final similarity blends the soft cosine with the exact bag-of-words cosine
(``blend`` weight on the exact part); identical messages always score 1.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.core.embeddings import PpmiSvdEmbeddings
from repro.perf import Tile, soft_cosine_similarity_tile, text_distance_tile


class SoftCosineModel:
    """Trains embeddings on a token corpus; yields pairwise text distances."""

    def __init__(
        self,
        dimensions: int = 48,
        blend: float = 0.5,
        min_count: int = 1,
    ):
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must be in [0, 1]")
        if dimensions < 2:
            raise ValueError("dimensions must be >= 2")
        self.dimensions = dimensions
        self.blend = blend
        self.min_count = min_count
        self.vocabulary: Dict[str, int] = {}
        self.embeddings: np.ndarray = np.zeros((0, dimensions))

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called (vocabulary is non-empty)."""
        return bool(self.vocabulary)

    def clone(self) -> "SoftCosineModel":
        """An unfitted copy sharing this model's hyperparameters.

        Training is deterministic, so the clone trains to exactly the
        numbers the original would have.
        """
        return SoftCosineModel(self.dimensions, self.blend, self.min_count)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, corpus: Sequence[Sequence[str]]) -> "SoftCosineModel":
        """Train word embeddings on the tokenized corpus.

        Co-occurrence is counted at message level (WPN messages are short,
        so the whole message is the context window).
        """
        self.vocabulary, self.embeddings = PpmiSvdEmbeddings(
            self.dimensions, self.min_count
        ).fit(corpus)
        return self

    # ------------------------------------------------------------------
    # Similarity
    # ------------------------------------------------------------------
    def _bow_matrix(self, corpus: Sequence[Sequence[str]]) -> sparse.csr_matrix:
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for doc_idx, tokens in enumerate(corpus):
            doc_counts: Dict[int, int] = {}
            for token in tokens:
                idx = self.vocabulary.get(token)
                if idx is not None:
                    doc_counts[idx] = doc_counts.get(idx, 0) + 1
            for idx, count in doc_counts.items():
                rows.append(doc_idx)
                cols.append(idx)
                data.append(float(count))
        return sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(corpus), len(self.vocabulary))
        )

    def corpus_operands(
        self, corpus: Sequence[Sequence[str]]
    ) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """``(bow_normed, doc_emb, zero_rows)`` for the pairwise kernels.

        ``bow_normed`` is the L2-normalized bag-of-words matrix,
        ``doc_emb`` the row-normalized summed word embeddings, and
        ``zero_rows`` flags documents with a zero embedding (tiny
        vocabularies, all-OOV) that must fall back to the exact cosine so
        identical messages still score 1.
        """
        if not self.vocabulary:
            raise RuntimeError("model is not fitted; call fit() first")
        bow = self._bow_matrix(corpus)

        norms = np.sqrt(np.asarray(bow.multiply(bow).sum(axis=1)).ravel())
        norms[norms == 0.0] = 1.0
        bow_normed = sparse.csr_matrix(sparse.diags(1.0 / norms) @ bow)

        doc_emb = bow @ self.embeddings
        raw_norms = np.linalg.norm(doc_emb, axis=1)
        safe_norms = np.where(raw_norms == 0.0, 1.0, raw_norms)
        doc_emb = doc_emb / safe_norms[:, None]
        return bow_normed, doc_emb, raw_norms == 0.0

    def similarity_matrix(self, corpus: Sequence[Sequence[str]]) -> np.ndarray:
        """Pairwise text similarity in [0, 1] for the tokenized corpus.

        Computed by the tile-size-invariant kernel in
        :mod:`repro.perf.kernels`; the result is bitwise symmetric, so no
        symmetrization pass is needed (or performed).
        """
        bow_normed, doc_emb, zero_rows = self.corpus_operands(corpus)
        return soft_cosine_similarity_tile(
            bow_normed, doc_emb, zero_rows, self.blend, Tile(0, len(corpus))
        )

    def distance_matrix(self, corpus: Sequence[Sequence[str]]) -> np.ndarray:
        """``1 - similarity`` for the tokenized corpus (symmetric, 0 diag)."""
        bow_normed, doc_emb, zero_rows = self.corpus_operands(corpus)
        return text_distance_tile(
            bow_normed, doc_emb, zero_rows, self.blend, Tile(0, len(corpus))
        )
