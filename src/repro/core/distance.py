"""Combined WPN distance: mean of text and URL-path distances (section 5.1.1).

The pairwise matrices are assembled tile by tile from the blocked kernels
in :mod:`repro.perf.kernels` under an injectable
:class:`~repro.perf.ExecutionPlan` (serial by default, process-parallel
opt-in) — results are bit-identical for any tile size or worker count.
Dense float64 is the default; ``precision="float32"`` and
``storage="condensed"`` (strict upper triangle of ``total`` only) are
opt-in footprint reducers.  ``storage="sparse"`` (paired with
``blocking="url"``) keeps only the entries surviving the blocking
stage's certified screens — every absent pair provably has total
distance >= the blocking bound (see :mod:`repro.perf.blocking`) — and
stores them bitwise equal to the dense kernels' output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.features import WpnFeatures, extract_all
from repro.core.records import WpnRecord
from repro.core.textsim import SoftCosineModel
from repro.core.urlsim import url_membership_operands
from repro.perf import (
    DEFAULT_SPARSE_BOUND,
    BlockingStats,
    ExecutionPlan,
    PairwiseOperands,
    SparsePairwise,
    candidate_distance_tile,
    combined_distance_tile,
    component_labels,
    condensed_size,
    condensed_to_square,
    prune_cross_component,
)

PRECISIONS = ("float64", "float32")
STORAGES = ("dense", "condensed", "sparse")
BLOCKINGS = ("none", "url")

Matrix = Union[np.ndarray, SparsePairwise]


@dataclass
class DistanceMatrices:
    """The pairwise matrices the clustering stage consumes.

    In the default dense storage, ``text``, ``url``, and ``total`` are all
    square. In condensed storage only ``total`` is kept, as the strict
    upper triangle (row-major, :mod:`repro.perf.condensed` layout) — pass
    ``n`` to size it; ``text`` and ``url`` are ``None``. In sparse
    storage all three are :class:`~repro.perf.SparsePairwise` holding
    only the blocking stage's certified entries (absent pairs provably
    have total >= the blocking bound), sharing one index structure.
    """

    text: Optional[Matrix]
    url: Optional[Matrix]
    total: Matrix
    n: Optional[int] = None
    #: Sparse storage only: the kernel operands the matrices were computed
    #: from, retained so downstream stages (cut scoring) can recompute any
    #: full distance tile bit-identically instead of densifying.
    operands: Optional[PairwiseOperands] = None
    #: Sparse storage only: blocking-stage accounting for tracer gauges.
    blocking_stats: Optional[BlockingStats] = None

    def __post_init__(self):
        if isinstance(self.total, SparsePairwise):
            if self.n is None:
                self.n = self.total.n
            elif self.n != self.total.n:
                raise ValueError("n does not match the sparse matrix")
            for name in ("text", "url"):
                matrix = getattr(self, name)
                if matrix is not None and not (
                    isinstance(matrix, SparsePairwise)
                    and matrix.n == self.n
                ):
                    raise ValueError(
                        f"{name} must be a SparsePairwise over n={self.n}"
                    )
            return
        if self.total.ndim == 2:
            if self.total.shape[0] != self.total.shape[1]:
                raise ValueError("total distance matrix must be square")
            if self.n is None:
                self.n = self.total.shape[0]
            elif self.n != self.total.shape[0]:
                raise ValueError("n does not match the total matrix shape")
        elif self.total.ndim == 1:
            if self.n is None:
                raise ValueError("condensed storage requires an explicit n")
            if self.total.size != condensed_size(self.n):
                raise ValueError(
                    f"condensed total for n={self.n} needs "
                    f"{condensed_size(self.n)} entries, got {self.total.size}"
                )
        else:
            raise ValueError("total must be a square matrix or condensed 1-D")
        for name in ("text", "url"):
            matrix = getattr(self, name)
            if matrix is None:
                continue
            if matrix.ndim != 2 or matrix.shape != (self.n, self.n):
                raise ValueError(f"{name} distance matrix must be square")

    @property
    def size(self) -> int:
        assert self.n is not None  # __post_init__ always resolves it
        return self.n

    @property
    def storage(self) -> str:
        """``"dense"``, ``"condensed"``, or ``"sparse"`` from ``total``."""
        if isinstance(self.total, SparsePairwise):
            return "sparse"
        return "condensed" if self.total.ndim == 1 else "dense"

    @property
    def component_bytes(self) -> int:
        """Bytes held by every materialized matrix (text + url + total)."""
        total = 0
        for m in (self.text, self.url, self.total):
            if m is None:
                continue
            if isinstance(m, SparsePairwise):
                # The three sparse components share one index structure;
                # count it once (on total) and the values everywhere.
                total += (
                    m.component_bytes if m is self.total else int(m.data.nbytes)
                )
            else:
                total += int(m.nbytes)
        return total

    def total_square(self, dtype: Optional[np.dtype] = None) -> np.ndarray:
        """The combined distance as a square matrix.

        Dense storage returns ``total`` as-is (no copy) unless a different
        ``dtype`` is requested; condensed storage expands.  Sparse storage
        refuses: non-candidate entries are unknown (only bounded below),
        so there is no dense matrix to return — oracle code that really
        wants the candidate picture uses ``total.to_square(...)``.
        """
        if isinstance(self.total, SparsePairwise):
            raise TypeError(
                "sparse storage cannot densify: absent distances are "
                "unknown (>= the blocking bound); use the sparse-aware "
                "sweeps, or SparsePairwise.to_square(fill) in oracle code"
            )
        if self.total.ndim == 2:
            if dtype is None or self.total.dtype == np.dtype(dtype):
                return self.total
            return self.total.astype(dtype)
        # The explicit densify API: dense-mode code outside the kernel
        # region, so flow-dense-alloc does not police it.
        return condensed_to_square(self.total, self.size, dtype=dtype)


def compute_distances(
    records: Sequence[WpnRecord],
    features: Optional[List[WpnFeatures]] = None,
    text_model: Optional[SoftCosineModel] = None,
    *,
    plan: Optional[ExecutionPlan] = None,
    precision: str = "float64",
    storage: str = "dense",
    blocking: str = "none",
    blocking_bound: float = DEFAULT_SPARSE_BOUND,
) -> DistanceMatrices:
    """Full pairwise distances for a corpus of valid WPN records.

    The total distance is the unweighted mean of the soft-cosine text
    distance and the URL-path Jaccard distance, exactly as in the paper.

    ``text_model`` contract: a *fitted* model is used as-is; an *unfitted*
    model contributes only its hyperparameters — an internal
    :meth:`~repro.core.textsim.SoftCosineModel.clone` is fitted on this
    corpus, and the caller's object is never mutated.

    ``plan`` controls tiling and parallelism (serial,
    :data:`~repro.perf.DEFAULT_TILE_SIZE` tiles by default); any plan
    yields bit-identical matrices. Every tile is computed in float64;
    ``precision="float32"`` casts on store. ``storage="condensed"`` keeps
    only the upper triangle of ``total`` (``text``/``url`` are ``None``).
    ``storage="sparse"`` requires ``blocking="url"`` (and vice versa):
    only the entries surviving the blocking stage's certified screens are
    materialized, bitwise equal to the dense entries, with every absent
    pair certified >= ``blocking_bound``.
    """
    if precision not in PRECISIONS:
        raise ValueError(f"precision must be one of {PRECISIONS}, got {precision!r}")
    if storage not in STORAGES:
        raise ValueError(f"storage must be one of {STORAGES}, got {storage!r}")
    if blocking not in BLOCKINGS:
        raise ValueError(f"blocking must be one of {BLOCKINGS}, got {blocking!r}")
    if (storage == "sparse") != (blocking == "url"):
        raise ValueError(
            "storage='sparse' and blocking='url' must be enabled together: "
            "sparse storage holds exactly the candidate entries the "
            "blocking stage certifies"
        )
    if not 0.0 < blocking_bound <= 0.5:
        raise ValueError(
            f"blocking_bound must be in (0, 0.5], got {blocking_bound}"
        )
    if features is None:
        features = extract_all(records)
    if len(features) != len(records):
        raise ValueError("features and records must align")

    corpus = [list(f.text_tokens) for f in features]
    model = text_model if text_model is not None else SoftCosineModel()
    if not model.is_fitted:
        model = model.clone().fit(corpus)

    bow_normed, doc_emb, zero_rows = model.corpus_operands(corpus)
    member, sizes, empty = url_membership_operands(
        [f.url_tokens for f in features]
    )
    operands = PairwiseOperands(
        bow_normed=bow_normed,
        doc_emb=doc_emb,
        zero_rows=zero_rows,
        blend=model.blend,
        url_member=member,
        url_sizes=sizes,
        url_empty=empty,
    )

    plan = plan if plan is not None else ExecutionPlan()
    n = len(records)
    dtype = np.float64 if precision == "float64" else np.float32
    tiles = plan.tiles(n)

    if storage == "sparse":
        counts_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        text_parts: List[np.ndarray] = []
        url_parts: List[np.ndarray] = []
        n_raw = 0
        kernel = partial(candidate_distance_tile, bound=blocking_bound)
        for counts, cols, text_vals, url_vals, raw in plan.stream(
            kernel, operands, tiles
        ):
            counts_parts.append(counts)
            cols_parts.append(cols)
            text_parts.append(text_vals)
            url_parts.append(url_vals)
            n_raw += raw
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(counts_parts), out=indptr[1:])
        indices = (
            np.concatenate(cols_parts)
            if cols_parts
            else np.empty(0, dtype=np.int64)
        )
        text_data = np.concatenate(text_parts)
        url_data = np.concatenate(url_parts)
        # Assemble exactly as the dense branch does: float64 mean of the
        # channels, then one cast on store.
        total_data = ((text_data + url_data) / 2.0).astype(dtype)
        candidate = SparsePairwise(
            n, indptr, indices, total_data, bound=blocking_bound
        )
        # Keep only within-component entries of the sub-bound graph: the
        # dropped entries are certifiably >= bound and can never influence
        # a certified merge, so storage shrinks without weakening the
        # absent-pair bound.
        n_components, labels = component_labels(candidate)
        keep, kept_indptr = prune_cross_component(candidate, labels)
        stats = BlockingStats(
            n=n,
            n_candidate_pairs=n_raw,
            n_stored_pairs=int(keep.sum()),
            n_components=n_components,
            max_component=(
                int(np.bincount(labels).max()) if n else 0
            ),
        )
        kept_indices = indices[keep]
        return DistanceMatrices(
            text=SparsePairwise(
                n, kept_indptr, kept_indices, text_data[keep].astype(dtype),
                bound=blocking_bound,
            ),
            url=SparsePairwise(
                n, kept_indptr, kept_indices, url_data[keep].astype(dtype),
                bound=blocking_bound,
            ),
            total=SparsePairwise(
                n, kept_indptr, kept_indices, total_data[keep],
                bound=blocking_bound,
            ),
            n=n,
            operands=operands,
            blocking_stats=stats,
        )

    results = plan.stream(combined_distance_tile, operands, tiles)

    if storage == "dense":
        text_out = np.empty((n, n), dtype=dtype)
        url_out = np.empty((n, n), dtype=dtype)
        total_out = np.empty((n, n), dtype=dtype)
        for tile, (text_rows, url_rows) in zip(tiles, results):
            span = slice(tile.start, tile.stop)
            text_out[span] = text_rows
            url_out[span] = url_rows
            total_out[span] = (text_rows + url_rows) / 2.0
        return DistanceMatrices(text=text_out, url=url_out, total=total_out)

    condensed = np.empty(condensed_size(n), dtype=dtype)
    offset = 0
    for tile, (text_rows, url_rows) in zip(tiles, results):
        total_rows = (text_rows + url_rows) / 2.0
        for i in range(tile.start, tile.stop):
            length = n - i - 1
            condensed[offset : offset + length] = total_rows[
                i - tile.start, i + 1 :
            ]
            offset += length
    return DistanceMatrices(text=None, url=None, total=condensed, n=n)
