"""Blocked pairwise distance kernels (soft-cosine text + URL Jaccard).

Each kernel computes one row :class:`~repro.perf.plan.Tile` of a pairwise
matrix from shared per-corpus operands, so the full ``n x n`` result is
assembled tile by tile — the only full-size allocations are the outputs
the caller asked for, never the kernels' temporaries.

Determinism contract: every kernel is **tile-size invariant** — row ``i``
of the output is bit-identical whether computed in a tile of 1 row or all
``n`` rows, serially or in a worker process. Two implementation choices
guarantee this:

* sparse products (``csr[rows] @ csr.T``) are computed row-by-row by
  scipy with a fixed accumulation order per output row;
* the dense embedding product uses ``np.einsum`` rather than BLAS
  ``@``/``dot`` — BLAS gemm picks different register blockings for
  different row counts (so a tiled product would drift in the last bit),
  while einsum's accumulation order depends only on the reduction length.

Both products are also bitwise *symmetric* (entry ``(i, j)`` accumulates
the same terms in the same order as ``(j, i)``), so assembled matrices
need no symmetrization pass. ``tests/perf`` locks all of this down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np
from scipy import sparse

from repro.perf.plan import Tile


@dataclass(frozen=True)
class PairwiseOperands:
    """Shared per-corpus inputs of the combined-distance kernel.

    Plain arrays/sparse matrices only: the payload crosses process
    boundaries under the parallel execution plan, and :mod:`repro.perf`
    sits below :mod:`repro.core` so it never sees records or models.
    """

    bow_normed: sparse.csr_matrix  # (n, V) L2-normalized bag-of-words
    doc_emb: np.ndarray            # (n, d) row-normalized doc embeddings
    zero_rows: np.ndarray          # (n,) bool: docs with a zero embedding
    blend: float                   # weight of the exact-cosine part
    url_member: sparse.csr_matrix  # (n, U) URL-token membership
    url_sizes: np.ndarray          # (n,) URL token-set sizes
    url_empty: np.ndarray          # (n,) bool: empty URL token sets

    @property
    def n(self) -> int:
        return self.doc_emb.shape[0]


def soft_cosine_similarity_tile(
    bow_normed: sparse.csr_matrix,
    doc_emb: np.ndarray,
    zero_rows: np.ndarray,
    blend: float,
    tile: Tile,
) -> np.ndarray:
    """Rows ``[tile.start, tile.stop)`` of the blended text similarity.

    Blends the exact bag-of-words cosine with the soft cosine of summed
    word embeddings; documents with a zero embedding fall back to the
    exact cosine (row- and column-wise) so identical messages score 1.
    """
    rows = slice(tile.start, tile.stop)
    cos_exact = np.asarray((bow_normed[rows] @ bow_normed.T).toarray())
    cos_soft = np.einsum("ik,jk->ij", doc_emb[rows], doc_emb)

    zero_cols = np.flatnonzero(zero_rows)
    if zero_cols.size:
        cos_soft[:, zero_cols] = cos_exact[:, zero_cols]
        tile_zero_rows = np.flatnonzero(zero_rows[rows])
        cos_soft[tile_zero_rows, :] = cos_exact[tile_zero_rows, :]

    sim = blend * cos_exact + (1.0 - blend) * cos_soft
    np.clip(sim, 0.0, 1.0, out=sim)
    diag = np.arange(tile.start, tile.stop)
    sim[diag - tile.start, diag] = 1.0
    return sim


def text_distance_tile(
    bow_normed: sparse.csr_matrix,
    doc_emb: np.ndarray,
    zero_rows: np.ndarray,
    blend: float,
    tile: Tile,
) -> np.ndarray:
    """``1 - similarity`` rows, clipped to [0, 1] with a zero diagonal."""
    dist = 1.0 - soft_cosine_similarity_tile(
        bow_normed, doc_emb, zero_rows, blend, tile
    )
    np.clip(dist, 0.0, 1.0, out=dist)
    diag = np.arange(tile.start, tile.stop)
    dist[diag - tile.start, diag] = 0.0
    return dist


def jaccard_distance_tile(
    member: sparse.csr_matrix,
    sizes: np.ndarray,
    empty: np.ndarray,
    tile: Tile,
) -> np.ndarray:
    """Rows of the pairwise Jaccard distance between token sets.

    Conventions (matching :func:`repro.util.textproc.jaccard_distance`):
    two empty sets have distance 0; empty vs non-empty has distance 1.
    """
    n = member.shape[0]
    if member.shape[1] == 0:
        # No token occurs anywhere: every set is empty, all distances 0.
        return np.zeros((tile.size, n))
    rows = slice(tile.start, tile.stop)
    intersection = np.asarray((member[rows] @ member.T).toarray())
    union = sizes[rows][:, None] + sizes[None, :] - intersection

    with np.errstate(divide="ignore", invalid="ignore"):
        dist = 1.0 - np.where(
            union > 0, intersection / np.maximum(union, 1e-12), 1.0
        )
    empty_cols = np.flatnonzero(empty)
    if empty_cols.size:
        tile_empty_rows = np.flatnonzero(empty[rows])
        if tile_empty_rows.size:
            dist[np.ix_(tile_empty_rows, empty_cols)] = 0.0
    np.clip(dist, 0.0, 1.0, out=dist)
    diag = np.arange(tile.start, tile.stop)
    dist[diag - tile.start, diag] = 0.0
    return dist


@dataclass(frozen=True)
class QueryOperands:
    """Inputs of the query-vs-corpus combined-distance kernel.

    The corpus side is exactly :class:`PairwiseOperands` (minus ``blend``,
    which rides along here); the query side mirrors it for ``q`` query
    documents. ``q_url_sizes`` are the *true* query token-set sizes —
    including tokens outside the corpus URL vocabulary, which can never
    intersect a corpus set but still belong in the Jaccard union.

    A query kernel reads only its tile's corpus rows, so it receives
    :meth:`for_tile`'s cut, never the whole corpus.
    """

    corpus: PairwiseOperands
    q_bow_normed: sparse.csr_matrix  # (q, V) L2-normalized bag-of-words
    q_doc_emb: np.ndarray            # (q, d) row-normalized doc embeddings
    q_zero_rows: np.ndarray          # (q,) bool: queries with zero embedding
    q_url_member: sparse.csr_matrix  # (q, U) membership over corpus vocab
    q_url_sizes: np.ndarray          # (q,) true token-set sizes (incl. OOV)
    q_url_empty: np.ndarray          # (q,) bool: empty query token sets

    @property
    def n_queries(self) -> int:
        return self.q_doc_emb.shape[0]

    def for_tile(self, tile: Tile) -> QueryOperands:
        """These operands with the corpus cut to rows ``[start, stop)``.

        The query side stays whole.  Each cut array holds the same row
        data as the whole corpus, so a kernel over the cut computes every
        entry from the same values in the same order.
        """
        corpus = self.corpus
        rows = slice(tile.start, tile.stop)
        return replace(
            self,
            corpus=PairwiseOperands(
                bow_normed=corpus.bow_normed[rows],
                doc_emb=corpus.doc_emb[rows],
                zero_rows=corpus.zero_rows[rows],
                blend=corpus.blend,
                url_member=corpus.url_member[rows],
                url_sizes=corpus.url_sizes[rows],
                url_empty=corpus.url_empty[rows],
            ),
        )


def check_tile_cut(corpus: PairwiseOperands, tile: Tile) -> None:
    """Refuse a query kernel's corpus that is not ``tile``'s cut."""
    if corpus.n != tile.size:
        raise ValueError(
            f"query kernel got {corpus.n} corpus rows for tile "
            f"[{tile.start}, {tile.stop}); pass QueryOperands.for_tile(tile)"
        )


def query_text_distance_tile(
    operands: QueryOperands, tile: Tile
) -> np.ndarray:
    """``(q, tile.size)`` blended text distance, queries vs corpus rows.

    ``operands`` is :meth:`QueryOperands.for_tile`'s cut.  Same
    blend/fallback semantics as :func:`text_distance_tile`, but with no
    diagonal special case: a query is never assumed to *be* a corpus
    document. Tiling runs over corpus rows, so the result is tile-size
    invariant by the same argument as the pairwise kernels.
    """
    corpus = operands.corpus
    check_tile_cut(corpus, tile)
    cos_exact = np.asarray(
        (operands.q_bow_normed @ corpus.bow_normed.T).toarray()
    )
    cos_soft = np.einsum("ik,jk->ij", operands.q_doc_emb, corpus.doc_emb)

    zero_cols = np.flatnonzero(corpus.zero_rows)
    if zero_cols.size:
        cos_soft[:, zero_cols] = cos_exact[:, zero_cols]
    zero_qs = np.flatnonzero(operands.q_zero_rows)
    if zero_qs.size:
        cos_soft[zero_qs, :] = cos_exact[zero_qs, :]

    sim = corpus.blend * cos_exact + (1.0 - corpus.blend) * cos_soft
    np.clip(sim, 0.0, 1.0, out=sim)
    dist = 1.0 - sim
    np.clip(dist, 0.0, 1.0, out=dist)
    return dist


def query_jaccard_distance_tile(
    operands: QueryOperands, tile: Tile
) -> np.ndarray:
    """``(q, tile.size)`` URL-token Jaccard distance, queries vs corpus rows.

    ``operands`` is :meth:`QueryOperands.for_tile`'s cut.  Query tokens
    outside the corpus vocabulary contribute to the union via
    ``q_url_sizes`` but can never intersect, so the distance equals the
    exact set Jaccard. Empty-set conventions match
    :func:`jaccard_distance_tile`: both empty -> 0, one empty -> 1.
    """
    corpus = operands.corpus
    check_tile_cut(corpus, tile)
    q = operands.n_queries
    if corpus.url_member.shape[1] == 0:
        intersection = np.zeros((q, tile.size))
    else:
        intersection = np.asarray(
            (operands.q_url_member @ corpus.url_member.T).toarray()
        )
    union = (
        operands.q_url_sizes[:, None]
        + corpus.url_sizes[None, :]
        - intersection
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = 1.0 - np.where(
            union > 0, intersection / np.maximum(union, 1e-12), 1.0
        )
    empty_cols = np.flatnonzero(corpus.url_empty)
    empty_qs = np.flatnonzero(operands.q_url_empty)
    if empty_cols.size and empty_qs.size:
        dist[np.ix_(empty_qs, empty_cols)] = 0.0
    np.clip(dist, 0.0, 1.0, out=dist)
    return dist


def query_distance_tile(operands: QueryOperands, tile: Tile) -> np.ndarray:
    """``(q, tile.size)`` combined distance, queries vs one corpus tile.

    ``operands`` is :meth:`QueryOperands.for_tile`'s cut.  The combined distance is the unweighted mean of the text and URL
    distances, exactly as :func:`combined_distance_tile`'s caller builds
    ``total``. Pure and module-level, so an
    :class:`~repro.perf.plan.ExecutionPlan` may ship it across process
    boundaries.
    """
    text = query_text_distance_tile(operands, tile)
    url = query_jaccard_distance_tile(operands, tile)
    return (text + url) / 2.0


def combined_distance_tile(
    operands: PairwiseOperands, tile: Tile
) -> Tuple[np.ndarray, np.ndarray]:
    """``(text_rows, url_rows)`` distance rows for one tile, in float64.

    The caller combines them as ``(text + url) / 2`` — kept out of the
    kernel so dense mode can store all three matrices from one pass.
    """
    text = text_distance_tile(
        operands.bow_normed,
        operands.doc_emb,
        operands.zero_rows,
        operands.blend,
        tile,
    )
    url = jaccard_distance_tile(
        operands.url_member, operands.url_sizes, operands.url_empty, tile
    )
    return text, url
