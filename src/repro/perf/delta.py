"""Nearest-corpus-row search: the one query path of serve and absorb.

Serve's classify and the incremental absorb both ask which corpus row is
nearest to each query, and how far it is.  :func:`nearest_corpus_rows`
streams one of two tile kernels over the corpus tiles and merges the
per-tile minima in tile order with a strict ``<``:

* :func:`query_min_tile` (no ``bound``): the dense
  :func:`~repro.perf.kernels.query_distance_tile` block plus a per-tile
  argmin — with the merge, bitwise ``np.argmin`` over the whole row;
* :func:`query_candidate_min_tile` (with ``bound``): the inverted URL-
  token index and certified screens of
  :func:`~repro.perf.blocking.candidate_distance_tile`, applied to the
  ``(query, corpus)`` rectangle instead of the pairwise triangle.

The blocked kernel's exactness argument carries over unchanged: a
query/corpus pair sharing no URL token (and not both URL-empty) has
``total = (text + 1)/2 >= 0.5``, and both screens certify every dropped
candidate ``total >= bound``.  So for any assignment threshold
**strictly below** ``bound``, the blocked per-query minimum decides
*assign vs. open* — and picks the same lowest-index nearest column —
exactly as the exhaustive search would: every entry the blocked path
scores reproduces the dense kernel's scalar operation sequence bit for
bit, and every entry it skips is certified too far to matter.  Callers
must enforce ``threshold < bound`` (``repro.incremental`` refuses with
``IncrementalDriftError`` otherwise); ``tests/perf/test_delta.py`` pins
both kernels against the dense ``np.argmin`` oracle.

Tiling runs over corpus rows, so any
:class:`~repro.perf.plan.ExecutionPlan` gives the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.perf.blocking import DEFAULT_SPARSE_BOUND, _SCREEN_MARGIN, _SOFT_CHUNK
from repro.perf.kernels import QueryOperands, query_distance_tile
from repro.perf.plan import ExecutionPlan, Tile


#: ``(min_vals, argmin_cols, n_raw, n_scored)`` of one corpus tile.
TileMinima = Tuple[np.ndarray, np.ndarray, int, int]


@dataclass(frozen=True)
class QueryNearest:
    """Per-query nearest-corpus-row result of one search.

    ``distances[i]`` is the exact combined distance from query ``i`` to
    its nearest corpus row and ``columns[i]`` that row's index, ties
    broken to the lowest index.  An exhaustive search (``bound`` is
    ``None``) always finds one.  A blocked search finds it *among the
    scored candidates*: ``inf`` and ``-1`` when no candidate survived —
    every corpus row is then certified ``>= bound`` — so for any
    assignment threshold below ``bound`` it is indistinguishable from
    the exhaustive one.  ``n_candidates`` / ``n_scored`` count the raw
    enumerated and screen-surviving query/corpus pairs for gauges (both
    0 for an exhaustive search, which enumerates no candidates).
    """

    distances: np.ndarray  # (q,) float64
    columns: np.ndarray    # (q,) int64
    bound: Optional[float]
    n_candidates: int
    n_scored: int


def query_min_tile(operands: QueryOperands, tile: Tile) -> TileMinima:
    """Exhaustive per-query minimum over one corpus row tile.

    Returns ``(min_vals, argmin_cols, 0, 0)``: each query's smallest
    :func:`~repro.perf.kernels.query_distance_tile` entry and its global
    column, ties to the lowest (as ``np.argmin``).  Pure and module-level
    so an :class:`~repro.perf.plan.ExecutionPlan` may ship it.
    """
    block = query_distance_tile(operands, tile)
    local = block.argmin(axis=1)
    min_vals = block[np.arange(block.shape[0]), local]
    return min_vals, local.astype(np.int64) + np.int64(tile.start), 0, 0


def query_candidate_min_tile(
    operands: QueryOperands,
    tile: Tile,
    bound: float = DEFAULT_SPARSE_BOUND,
) -> TileMinima:
    """Blocked per-query minimum over one corpus row tile.

    Returns ``(min_vals, argmin_cols, n_raw, n_scored)``: for each query,
    the smallest exact combined distance to a scored candidate in this
    tile (``inf`` when none) and its global corpus column (``-1`` when
    none; ties to the lowest column), plus the raw and screen-surviving
    candidate counts.  Every scored entry runs the identical scalar
    sequence as :func:`~repro.perf.kernels.query_distance_tile`, so a
    scored minimum equals the dense matrix entry bit for bit; every
    skipped entry carries a certificate ``total >= bound``.  Pure and
    module-level so an :class:`~repro.perf.plan.ExecutionPlan` may ship
    it across process boundaries.
    """
    if not 0.0 < bound <= 0.5:
        raise ValueError(f"bound must be in (0, 0.5], got {bound}")
    corpus = operands.corpus
    q = operands.n_queries
    min_vals = np.full(q, np.inf, dtype=np.float64)
    argmin_cols = np.full(q, -1, dtype=np.int64)

    # Candidate enumeration, exactly as the pairwise blocking stage: the
    # sparse membership product is the inverted-index lookup, and the
    # URL-empty queries form a clique with the tile's URL-empty rows.
    member = corpus.url_member[tile.start:tile.stop]
    inter = (operands.q_url_member @ member.T).tocsr()
    rows = np.repeat(
        np.arange(q, dtype=np.int64), np.diff(inter.indptr)
    )
    cols_local = inter.indices.astype(np.int64)
    inter_vals = inter.data.astype(np.float64)

    empty_cols = np.flatnonzero(
        corpus.url_empty[tile.start:tile.stop]
    ).astype(np.int64)
    empty_qs = np.flatnonzero(operands.q_url_empty).astype(np.int64)
    if empty_qs.size and empty_cols.size:
        rows = np.concatenate([rows, np.repeat(empty_qs, empty_cols.size)])
        cols_local = np.concatenate(
            [cols_local, np.tile(empty_cols, empty_qs.size)]
        )
        inter_vals = np.concatenate(
            [inter_vals, np.zeros(empty_qs.size * empty_cols.size)]
        )
    n_raw = int(rows.size)
    if n_raw == 0:
        return min_vals, argmin_cols, 0, 0

    cols = cols_local + np.int64(tile.start)

    # URL screen in cleared-fraction form (see candidate_distance_tile):
    # url >= 2*bound certifies total >= bound; both-empty entries
    # (union == 0) always pass.
    union = operands.q_url_sizes[rows] + corpus.url_sizes[cols] - inter_vals
    keep = (
        inter_vals > (1.0 - 2.0 * bound - _SCREEN_MARGIN) * union
    ) | (union == 0.0)
    rows, cols_local, cols = rows[keep], cols_local[keep], cols[keep]
    inter_vals, union = inter_vals[keep], union[keep]

    # URL channel for the survivors — the dense query kernel's scalar
    # sequence (divide by the clamped union, subtract from 1, clip).
    url = np.where(
        inter_vals > 0,
        1.0 - (inter_vals / np.maximum(union, 1e-12)),
        0.0,
    )
    np.clip(url, 0.0, 1.0, out=url)

    # Exact bag-of-words cosine, gathered from the same (q, tile.size)
    # product the dense query kernel materializes.
    prod = np.asarray(
        (operands.q_bow_normed @ corpus.bow_normed[tile.start:tile.stop].T)
        .toarray()
    )
    cos_exact = prod[rows, cols_local]

    # Cosine screen, cleared form: sim <= blend*cos + (1-blend) bounds
    # total >= (1 - sim_ub + url) / 2 from below.
    blend = corpus.blend
    keep = blend * cos_exact > url + (
        blend - 2.0 * bound - 2.0 * _SCREEN_MARGIN
    )
    rows, cols_local, cols = rows[keep], cols_local[keep], cols[keep]
    url, cos_exact = url[keep], cos_exact[keep]
    n_scored = int(rows.size)
    if n_scored == 0:
        return min_vals, argmin_cols, n_raw, 0

    # Soft cosine for the survivors: einsum's per-entry reduction order
    # matches the dense "ik,jk->ij" product, chunked only to bound the
    # gather's transient.
    cos_soft = np.empty(rows.size, dtype=np.float64)
    for start in range(0, rows.size, _SOFT_CHUNK):
        stop = min(start + _SOFT_CHUNK, rows.size)
        cos_soft[start:stop] = np.einsum(
            "ik,ik->i",
            operands.q_doc_emb[rows[start:stop]],
            corpus.doc_emb[cols[start:stop]],
        )
    fallback = operands.q_zero_rows[rows] | corpus.zero_rows[cols]
    cos_soft[fallback] = cos_exact[fallback]

    sim = blend * cos_exact + (1.0 - blend) * cos_soft
    np.clip(sim, 0.0, 1.0, out=sim)
    text = 1.0 - sim
    np.clip(text, 0.0, 1.0, out=text)
    total = (text + url) / 2.0

    # Per-query minimum with ties to the lowest column: group by query,
    # then ascending distance, then ascending column, and keep each
    # query's first entry.
    order = np.lexsort((cols, total, rows))
    firsts = np.unique(rows[order], return_index=True)
    min_vals[firsts[0]] = total[order][firsts[1]]
    argmin_cols[firsts[0]] = cols[order][firsts[1]]
    return min_vals, argmin_cols, n_raw, n_scored


def nearest_corpus_rows(
    operands: QueryOperands,
    plan: ExecutionPlan,
    bound: Optional[float] = None,
) -> QueryNearest:
    """Nearest corpus row for every query, exhaustive or blocked.

    Streams :func:`query_min_tile` (``bound`` is ``None``) or
    :func:`query_candidate_min_tile` (``bound`` given) over the plan's
    corpus tiles and reduces the per-tile minima in tile order with a
    strict ``<`` — so cross-tile ties resolve to the earlier tile, i.e.
    the lowest corpus column, the ``np.argmin`` convention.
    Bit-identical for any tile size or worker count.  An empty corpus
    has no nearest row and raises :class:`ValueError`.
    """
    n = operands.corpus.n
    if n == 0:
        raise ValueError("nearest-row search over an empty corpus")
    minima = (
        plan.stream(query_min_tile, operands, plan.tiles(n))
        if bound is None
        else _blocked_minima(operands, plan, bound)
    )
    q = operands.n_queries
    best = np.full(q, np.inf, dtype=np.float64)
    best_cols = np.full(q, -1, dtype=np.int64)
    n_candidates = 0
    n_scored = 0
    for min_vals, argmin_cols, raw, scored in minima:
        better = min_vals < best
        best[better] = min_vals[better]
        best_cols[better] = argmin_cols[better]
        n_candidates += raw
        n_scored += scored
    return QueryNearest(
        distances=best,
        columns=best_cols,
        bound=bound,
        n_candidates=n_candidates,
        n_scored=n_scored,
    )


def _blocked_minima(
    operands: QueryOperands, plan: ExecutionPlan, bound: float
) -> Iterator[TileMinima]:
    """The blocked kernel's tile minima.

    The bound travels inside the shipped ``partial``: a module global set
    here would reach forked workers only, never spawned ones.
    """
    kernel = partial(query_candidate_min_tile, bound=bound)
    return plan.stream(kernel, operands, plan.tiles(operands.corpus.n))
