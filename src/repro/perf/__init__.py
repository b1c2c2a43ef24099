"""Deterministic compute kernels for the pairwise-distance hot path.

``repro.perf`` holds the numeric machinery the analysis core runs its
O(n^2) stages on:

* :mod:`repro.perf.plan` — :class:`ExecutionPlan`, a deterministic tile
  scheduler (serial by default, ``ProcessPoolExecutor`` opt-in) with fixed
  static chunking and index-order reduction, so results are bit-identical
  regardless of worker count;
* :mod:`repro.perf.kernels` — blocked pairwise kernels: soft-cosine text
  similarity and URL-token Jaccard computed in row tiles, with every
  floating-point operation tile-size invariant;
* :mod:`repro.perf.blocking` — exactness-preserving candidate blocking:
  an inverted URL-token index emitting candidate pairs in canonical
  (i, j) order with a provable no-missed-pair bound (certified screens
  guarantee total >= the blocking bound for every absent pair), plus
  :class:`SparsePairwise` candidate-sparse storage whose stored entries
  are bitwise equal to the dense kernels', and the silhouette sweep's
  row-tile kernel (:func:`silhouette_rows`, streamed over recomputed
  rows by :func:`cut_silhouette_tile`) that scores every candidate cut
  in one pass, bit for bit the same for any tile split, in
  O(tile * n) memory;
* :mod:`repro.perf.delta` — the nearest-corpus-row search that serving
  and incremental mining share: an exhaustive tile kernel that is
  bitwise ``np.argmin`` over the dense query rows, and a
  candidate-blocked one whose assignment decisions below the
  certification bound match it bit for bit.

The package sits below :mod:`repro.core` in the layering DAG: kernels only
see numpy arrays and scipy sparse matrices, never records or models.
"""

from repro.perf.blocking import (
    DEFAULT_SPARSE_BOUND,
    BlockingExactnessError,
    BlockingStats,
    CutScoringOperands,
    SilhouetteSchedule,
    SparsePairwise,
    candidate_distance_tile,
    candidate_pairs_tile,
    component_labels,
    cut_silhouette_tile,
    prune_cross_component,
    silhouette_rows,
)
from repro.perf.delta import (
    QueryNearest,
    nearest_corpus_rows,
    query_candidate_min_tile,
    query_min_tile,
)
from repro.perf.kernels import (
    PairwiseOperands,
    QueryOperands,
    combined_distance_tile,
    jaccard_distance_tile,
    query_distance_tile,
    query_jaccard_distance_tile,
    query_text_distance_tile,
    soft_cosine_similarity_tile,
    text_distance_tile,
)
from repro.perf.plan import DEFAULT_TILE_SIZE, ExecutionPlan, Tile, row_tiles

__all__ = [
    "DEFAULT_SPARSE_BOUND",
    "DEFAULT_TILE_SIZE",
    "BlockingExactnessError",
    "BlockingStats",
    "CutScoringOperands",
    "ExecutionPlan",
    "PairwiseOperands",
    "QueryNearest",
    "QueryOperands",
    "SilhouetteSchedule",
    "SparsePairwise",
    "Tile",
    "candidate_distance_tile",
    "candidate_pairs_tile",
    "combined_distance_tile",
    "component_labels",
    "cut_silhouette_tile",
    "jaccard_distance_tile",
    "nearest_corpus_rows",
    "prune_cross_component",
    "query_candidate_min_tile",
    "query_distance_tile",
    "query_jaccard_distance_tile",
    "query_min_tile",
    "query_text_distance_tile",
    "row_tiles",
    "silhouette_rows",
    "soft_cosine_similarity_tile",
    "text_distance_tile",
]
