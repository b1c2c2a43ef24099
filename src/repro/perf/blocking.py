"""Exactness-preserving candidate blocking for the pairwise kernels.

The combined WPN distance is ``total = (text + url) / 2`` with both
channels in ``[0, 1]``.  The URL channel is a Jaccard distance over URL
token sets, and two sets that share **no** token (and are not both empty)
have Jaccard distance exactly 1 — so for such a pair::

    total = (text + 1) / 2 >= 0.5

regardless of the text channel.  The **candidate set** — all ordered pairs
that either share at least one URL token or are both URL-empty — is
therefore a provable superset of every pair with ``total < 0.5``.

On top of that recall bound, :func:`candidate_distance_tile` applies two
*certified screens* before its expensive text stage, against a
configurable certification bound ``B <= 0.5`` (the pipeline's sparse path
uses :data:`DEFAULT_SPARSE_BOUND`; the paper's cut thresholds live at
<= 0.25, comfortably below):

* **URL screen** — ``total >= url / 2``, so any candidate with
  ``url >= 2 B`` is certifiably ``>= B`` and is dropped after the (cheap,
  exact) URL channel alone;
* **cosine screen** — the blended text similarity satisfies
  ``sim <= blend * cos_exact + (1 - blend)`` because the embedding
  cosine never exceeds 1, so
  ``total >= (1 - blend * cos_exact - (1 - blend) + url) / 2`` is a
  certified lower bound computable from the (cheap, exact) bag-of-words
  cosine; entries bounded ``>= B`` are dropped before the per-entry
  embedding reduction ever runs.

Every *stored* pair therefore has either its exact distance, or a
certificate that its total is ``>= B`` — which is exactly the absent-pair
contract of :class:`SparsePairwise` (``bound``).  Any consumer that only
needs distances below ``B`` (the certified sparse-graph linkage in
:mod:`repro.core.clustering`, whose cut thresholds stay below ``B``)
loses nothing.  ``tests/perf/test_blocking.py`` asserts the superset
property against the dense kernels (the same oracle pattern as
``silhouette_samples_reference``).

Candidates are enumerated from an inverted URL-token index — the sparse
membership product ``member[rows] @ member.T`` *is* that index lookup —
and emitted in canonical (i, j) order: ascending row, then ascending
column.  The kernel is tiled over rows exactly like the dense kernels, so
it shards over an :class:`~repro.perf.plan.ExecutionPlan` and the
assembled result is bit-identical for any tile size or worker count.

Every stored entry is computed with the **same scalar operation sequence**
as the dense kernels (same sparse products, same ``einsum`` reduction per
entry, same blend/clip steps), so a stored entry of
:class:`SparsePairwise` equals the corresponding dense matrix entry bit
for bit — the property the downstream bit-identity guarantees stand on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.perf.kernels import PairwiseOperands, combined_distance_tile
from repro.perf.plan import Tile

#: Certification bound of the pipeline's sparse path.  Every absent pair
#: of the stored graph is certified ``total >= DEFAULT_SPARSE_BOUND``;
#: the linkage certifies merges strictly below it and the cut stage
#: proves its thresholds (<= 0.25 by default) never reach it.  Must not
#: exceed 0.5 — beyond that the URL-index recall bound no longer holds.
#: 0.45 keeps the certification floor comfortably above the 0.25 max cut
#: threshold at every measured scale (~0.40 at full scale) while still
#: screening out >85% of candidate entries.
DEFAULT_SPARSE_BOUND = 0.45

#: Slack added to the certified screens so float rounding in the bound
#: arithmetic (e.g. an embedding cosine a few ulps above 1.0) can never
#: drop a pair whose true total is below the bound.
_SCREEN_MARGIN = 1e-9

#: Entries per chunk of the gathered embedding product.  Small enough
#: that both gathered operands (chunk x dim float64) stay cache-resident
#: — measured ~3.5x faster than 64k chunks — without changing any value
#: (each entry's einsum reduction is independent of chunk boundaries).
_SOFT_CHUNK = 2048


class BlockingExactnessError(RuntimeError):
    """A blocked computation could not certify bit-identity with dense.

    Raised when the candidate graph does not carry enough information to
    prove that a result (a linkage merge, a cut threshold, a quantile
    candidate) would come out bitwise equal to the dense path.  The caller
    should fall back to ``storage="dense"`` rather than silently produce
    approximate output.
    """


@dataclass(frozen=True)
class SparsePairwise:
    """Candidate-sparse symmetric pairwise distances, upper triangle only.

    Holds one value per unordered stored pair: ``indices[indptr[i]:
    indptr[i+1]]`` are row ``i``'s stored columns *strictly greater than
    i* in ascending order, and ``data`` holds the matching distances —
    the symmetric mirror and the zero diagonal are implicit (the kernels
    are bitwise symmetric, so nothing is lost by storing each pair
    once).  Pairs outside the pattern are *unknown*, bounded below by
    the blocking certificates: their total distance is >= ``bound``.
    """

    n: int
    indptr: np.ndarray   # int64, (n + 1,)
    indices: np.ndarray  # int64, (nnz,) ascending within each row
    data: np.ndarray     # float64, (nnz,)
    bound: float = 0.5

    def __post_init__(self) -> None:
        if self.indptr.shape != (self.n + 1,):
            raise ValueError(
                f"indptr must have shape ({self.n + 1},), "
                f"got {self.indptr.shape}"
            )
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must align")
        if int(self.indptr[-1]) != self.indices.size:
            raise ValueError("indptr does not cover the index array")
        if not 0.0 < self.bound <= 0.5:
            raise ValueError(
                f"absent-pair bound must be in (0, 0.5], got {self.bound}"
            )

    @property
    def nnz(self) -> int:
        """Stored entries — one per unordered stored pair."""
        return int(self.indices.size)

    @property
    def n_stored_pairs(self) -> int:
        """Unordered stored pairs covered by the pattern (= ``nnz``)."""
        return self.nnz

    @property
    def component_bytes(self) -> int:
        """Bytes held by the structure + value arrays."""
        return int(
            self.indptr.nbytes + self.indices.nbytes + self.data.nbytes
        )

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(columns, values)`` views for row ``i``'s columns ``> i``.

        Upper triangle only: row ``i``'s stored partners ``< i`` live in
        *their* rows (the pattern is symmetric by convention).
        """
        start, stop = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[start:stop], self.data[start:stop]

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stored pairs as ``(rows, cols)`` with ``rows < cols``.

        Canonical enumeration order: ascending row, then ascending column
        — the order the oracle tests and gauges use.
        """
        rows = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self.indptr)
        )
        return rows, self.indices.copy()

    def to_square(self, fill_value: float) -> np.ndarray:
        """Dense float64 square with absent pairs set to ``fill_value``.

        Oracle/test helper only — it materializes the O(n^2) matrix the
        sparse path exists to avoid. Its inline ``flow-dense-alloc``
        sanction covers every caller, so production code must not call it.
        """
        # Sanctioned oracle densification (see docstring): deliberate
        # O(n^2), never on the production sparse path.
        out = np.full(  # pushlint: disable=flow-dense-alloc
            (self.n, self.n), float(fill_value)
        )
        rows = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self.indptr)
        )
        out[rows, self.indices] = self.data
        out[self.indices, rows] = self.data
        np.fill_diagonal(out, 0.0)
        return out


def _enumerate_candidates(
    operands: PairwiseOperands, tile: Tile
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw candidate entries for one row tile (diagonal included).

    Returns ``(rows_local, cols, intersection)``: per entry, the local
    row index (0-based within the tile), global column, and the URL token
    intersection count (0.0 for both-empty pairs).  Entries are grouped
    by row but unsorted within a row; callers screen and then sort.
    """
    member = operands.url_member
    empty = operands.url_empty

    # Token-sharing candidates: the sparse membership product enumerates,
    # per row, exactly the columns with a non-empty token intersection.
    inter = (member[tile.start:tile.stop] @ member.T).tocsr()
    share_rows = np.repeat(
        np.arange(tile.size, dtype=np.int64), np.diff(inter.indptr)
    )
    share_cols = inter.indices.astype(np.int64)
    share_vals = inter.data.astype(np.float64)

    # Both-empty candidates: empty URL sets have Jaccard distance 0 to
    # each other, so the empty rows form one clique.
    empty_cols = np.flatnonzero(empty).astype(np.int64)
    tile_empty = np.flatnonzero(empty[tile.start:tile.stop]).astype(np.int64)
    if tile_empty.size and empty_cols.size:
        clique_rows = np.repeat(tile_empty, empty_cols.size)
        clique_cols = np.tile(empty_cols, tile_empty.size)
        rows_local = np.concatenate([share_rows, clique_rows])
        cols = np.concatenate([share_cols, clique_cols])
        inter_vals = np.concatenate(
            [share_vals, np.zeros(clique_cols.size, dtype=np.float64)]
        )
        return rows_local, cols, inter_vals
    return share_rows, share_cols, share_vals


def candidate_pairs_tile(
    operands: PairwiseOperands, tile: Tile
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw candidate pairs ``(rows, cols)`` with row in the tile, row < col.

    The *unscreened* candidate enumeration — the recall-oracle superset
    the 0.5 URL-index bound certifies, before any bound-specific screen.
    Pure and module-level so an :class:`~repro.perf.plan.ExecutionPlan`
    may ship it across process boundaries; concatenating the tiles in
    tile order yields the full canonical candidate enumeration.
    """
    rows_local, cols, _ = _enumerate_candidates(operands, tile)
    rows = rows_local + np.int64(tile.start)
    upper = cols > rows
    rows, cols = rows[upper], cols[upper]
    order = np.argsort(rows * np.int64(operands.n) + cols, kind="stable")
    return rows[order], cols[order]


def candidate_distance_tile(
    operands: PairwiseOperands,
    tile: Tile,
    bound: float = DEFAULT_SPARSE_BOUND,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Screened candidate distances for one row tile.

    Returns ``(counts, cols, text, url, n_raw)``: per-row stored-entry
    counts (length ``tile.size``, upper triangle only) and, concatenated
    in canonical (row, col) order, the stored columns with their text
    and URL distances, plus the raw candidate-pair count before the
    screens (for pruning accounting).  Every entry dropped by a screen carries a
    certificate ``total >= bound``; every stored value reproduces the
    dense kernels' scalar operation sequence exactly (same sparse
    products, same per-entry einsum reduction, same blend/clip steps), so
    each stored entry is bitwise equal to the corresponding
    :func:`~repro.perf.kernels.combined_distance_tile` output entry.
    """
    if not 0.0 < bound <= 0.5:
        raise ValueError(f"bound must be in (0, 0.5], got {bound}")
    sizes = operands.url_sizes
    rows_local, cols, inter_vals = _enumerate_candidates(operands, tile)
    global_rows = rows_local + np.int64(tile.start)
    upper = cols > global_rows
    n_raw = int(upper.sum())

    # URL screen: total >= url / 2, so url >= 2*bound certifies >= bound.
    # Tested in cleared-fraction form — ``intersection > (1 - 2*bound -
    # margin) * union`` is ``url < 2*bound + margin`` up to product
    # rounding the margin dwarfs (union >= 1 for every token-sharing
    # pair) — so the full-entry stream needs one multiply and one
    # compare instead of the division.  Both-empty clique entries
    # (union == 0, url == 0) always pass; only the upper triangle is
    # kept (the mirror and diagonal of SparsePairwise are implicit).
    union = sizes[global_rows] + sizes[cols] - inter_vals
    keep = (
        (inter_vals > (1.0 - 2.0 * bound - _SCREEN_MARGIN) * union)
        | (union == 0.0)
    ) & upper
    rows_local = rows_local[keep]
    cols = cols[keep]
    inter_vals = inter_vals[keep]
    union = union[keep]
    global_rows = rows_local + np.int64(tile.start)

    # URL channel for the survivors, exactly as the dense kernel's
    # union > 0 branch (the screens only *drop* entries — survivors
    # keep these scalars).
    url = np.where(
        inter_vals > 0,
        1.0 - (inter_vals / np.maximum(union, 1e-12)),
        0.0,
    )
    np.clip(url, 0.0, 1.0, out=url)

    # Exact bag-of-words cosine, gathered from the same sparse product
    # the dense kernel densifies.  The O(tile.size * n) expansion is the
    # dense kernel's own transient — bounded by the tile size, never by
    # n^2 — and gathering from it preserves each entry bit for bit.
    prod = np.asarray(
        (
            operands.bow_normed[tile.start:tile.stop] @ operands.bow_normed.T
        ).toarray()
    )
    cos_exact = prod[rows_local, cols]

    # Cosine screen: the embedding cosine never exceeds 1 (unit rows; the
    # margin absorbs ulp excursions), so sim <= blend*cos + (1-blend) and
    # total >= (1 - sim_ub + url) / 2 is a certified lower bound.  The
    # test ``blend*cos > url + blend - 2*(bound + margin)`` is that
    # bound's cleared form, two streaming passes instead of five.
    blend = operands.blend
    keep = blend * cos_exact > url + (
        blend - 2.0 * bound - 2.0 * _SCREEN_MARGIN
    )
    rows_local = rows_local[keep]
    global_rows = global_rows[keep]
    cols = cols[keep]
    url = url[keep]
    cos_exact = cos_exact[keep]

    # Blend with the soft cosine of the doc embeddings — only for the
    # survivors.  einsum sums each entry's reduction sequentially over
    # the embedding axis — the identical per-entry accumulation order as
    # the dense "ik,jk->ij" product — chunked only to bound the gather's
    # transient memory.
    doc_emb = operands.doc_emb
    cos_soft = np.empty(cols.size, dtype=np.float64)
    for start in range(0, cols.size, _SOFT_CHUNK):
        stop = min(start + _SOFT_CHUNK, cols.size)
        cos_soft[start:stop] = np.einsum(
            "ik,ik->i",
            doc_emb[global_rows[start:stop]],
            doc_emb[cols[start:stop]],
        )
    fallback = operands.zero_rows[global_rows] | operands.zero_rows[cols]
    cos_soft[fallback] = cos_exact[fallback]

    sim = blend * cos_exact + (1.0 - blend) * cos_soft
    np.clip(sim, 0.0, 1.0, out=sim)
    text = 1.0 - sim
    np.clip(text, 0.0, 1.0, out=text)

    # Canonical (row, col) order over the survivors.
    order = np.argsort(
        rows_local * np.int64(operands.n) + cols, kind="stable"
    )
    cols = cols[order]
    text = text[order]
    url = url[order]
    counts = np.bincount(rows_local, minlength=tile.size)
    return counts, cols, text, url, n_raw


@dataclass(frozen=True)
class BlockingStats:
    """Accounting of one blocking run, for tracer gauges and provenance.

    ``n_candidate_pairs`` counts the unordered pairs the inverted-index
    stage enumerated; ``n_stored_pairs`` the pairs that survive the
    certified screens and the cross-component prune;
    ``n_components``/``max_component`` describe the sub-``bound``
    stored graph that justifies the prune.
    """

    n: int
    n_candidate_pairs: int
    n_stored_pairs: int
    n_components: int
    max_component: int

    @property
    def n_total_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def pruning_ratio(self) -> float:
        """Fraction of all unordered pairs never materialized."""
        total = self.n_total_pairs
        if total == 0:
            return 0.0
        return 1.0 - self.n_stored_pairs / total


def component_labels(graph: SparsePairwise) -> Tuple[int, np.ndarray]:
    """Connected components of the graph of stored entries below ``bound``.

    Under average linkage, a cluster pair spanning two such components
    averages only leaf pairs that are >= ``graph.bound`` — every
    cross-component stored entry is >= ``bound`` by construction, and
    every absent pair is >= ``bound`` by the blocking certificates — so
    no merge below the certification bound can ever join two components.
    This is what lets both the storage prune
    (:func:`prune_cross_component`) and the per-component sparse linkage
    stand.

    Labels are a deterministic function of the graph arrays (scipy's
    traversal scans rows in index order), so any two bit-identical graphs
    get bit-identical labels.
    """
    n = graph.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    edge = graph.data < graph.bound
    adjacency = sparse.csr_matrix(
        (
            np.ones(int(edge.sum()), dtype=np.int8),
            (rows[edge], graph.indices[edge]),
        ),
        shape=(n, n),
    )
    n_components, labels = connected_components(adjacency, directed=False)
    return int(n_components), labels.astype(np.int64)


def prune_cross_component(
    graph: SparsePairwise, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Entry mask and row pointer dropping cross-component entries.

    Returns ``(keep, indptr)``: a boolean mask over ``graph``'s entries
    keeping exactly the pairs whose endpoints share a component of the
    sub-``bound`` graph, and the matching CSR row pointer.  Dropped
    entries are certifiably >= ``bound`` (they join two components, so
    they carry no sub-``bound`` edge themselves), which keeps the
    :class:`SparsePairwise` absent-pair bound intact while shrinking
    storage to the within-component pairs the sparse linkage actually
    consumes.
    """
    n = graph.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    keep = labels[rows] == labels[graph.indices]
    counts = np.bincount(rows[keep], minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return keep, indptr


@dataclass(frozen=True)
class SilhouetteSchedule:
    """The incremental silhouette sweep's merges and candidates, no data.

    The sweep keeps each point's MEAN distance to every live cluster in
    a matrix ``M`` whose column ``j`` starts as leaf ``j``'s distances.
    Merge ``i`` (``columns[i] = (a, b, last)``, ``sizes[i] = (size_a,
    size_b)``) sets column ``a`` to ``(size_a * M[:, a] + size_b *
    M[:, b]) / (size_a + size_b)`` and moves column ``last`` into the
    freed slot ``b``, keeping the live block at ``M[:, :k]``.  Candidate
    ``c`` is scored after ``stops[c]`` merges, with ``owns[c]`` each
    point's own column, ``own_counts[c]`` its cluster size and ``ks[c]``
    live columns.  Every step acts on one point's row, so row tiles sweep
    independently and stack bit for bit.  Plain arrays only: the
    schedule crosses process boundaries.
    """

    n: int
    thresholds: Tuple[float, ...]
    columns: np.ndarray
    sizes: np.ndarray
    stops: Tuple[int, ...]
    owns: Tuple[np.ndarray, ...]
    own_counts: Tuple[np.ndarray, ...]
    ks: Tuple[int, ...]

    @property
    def n_merges(self) -> int:
        """Merges a sweep applies: the column operations scheduled."""
        return int(self.columns.shape[0])


def silhouette_rows(
    schedule: SilhouetteSchedule, rows: np.ndarray, tile: Tile
) -> np.ndarray:
    """Per-point silhouettes of one row tile, shape ``(cuts, tile.size)``.

    ``rows`` are the tile's distance rows.  ``M`` is held transposed (one
    contiguous row per cluster), which changes no value: every update is
    elementwise and ``b`` is a min.  Singleton points score 0.
    """
    if rows.shape != (tile.size, schedule.n):
        raise ValueError(
            f"distance rows of shape {rows.shape} do not match tile "
            f"[{tile.start}, {tile.stop}) of {schedule.n} leaves"
        )
    means = np.array(rows.T, dtype=np.float64, order="C")
    columns = schedule.columns.tolist()
    sizes = schedule.sizes.tolist()
    local = np.arange(tile.size)
    out = np.empty((len(schedule.stops), tile.size), dtype=np.float64)
    applied = 0
    for c, stop in enumerate(schedule.stops):
        for (col_a, col_b, last), (size_a, size_b) in zip(
            columns[applied:stop], sizes[applied:stop]
        ):
            means[col_a] = (
                size_a * means[col_a] + size_b * means[col_b]
            ) / (size_a + size_b)
            if col_b != last:
                means[col_b] = means[last]
        applied = stop
        own = schedule.owns[c][tile.start:tile.stop]
        own_counts = schedule.own_counts[c][tile.start:tile.stop]
        live = means[:schedule.ks[c]]
        own_means = live[own, local]
        live[own, local] = np.inf
        b = live.min(axis=0)
        live[own, local] = own_means  # restore the masked entries
        # sum-to-own / (count - 1), from the mean: sum = mean * count.
        a = own_means * own_counts / np.maximum(own_counts - 1.0, 1.0)
        denom = np.maximum(a, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(denom > 0, (b - a) / np.maximum(denom, 1e-12), 0.0)
        s[own_counts == 1] = 0.0  # singleton convention
        out[c] = s
    return out


@dataclass(frozen=True)
class CutScoringOperands:
    """Inputs of the streaming cut-silhouette kernel: the pairwise
    operands rows are recomputed from, and the sweep's schedule."""

    pairwise: PairwiseOperands
    schedule: SilhouetteSchedule


def cut_silhouette_tile(
    operands: CutScoringOperands, tile: Tile
) -> np.ndarray:
    """Per-point silhouette values for every candidate cut, one row tile.

    Recomputes the tile's combined-distance rows once — bitwise the dense
    matrix's rows — and sweeps them with :func:`silhouette_rows`, so the
    stacked tiles are the dense sweep's values bit for bit, in
    O(tile.size * n) memory.
    """
    text_rows, url_rows = combined_distance_tile(operands.pairwise, tile)
    total = (text_rows + url_rows) / 2.0
    del text_rows, url_rows
    return silhouette_rows(operands.schedule, total, tile)
