"""Combined WPN distance: mean of text and URL-path distances (section 5.1.1).

The pairwise matrices are assembled tile by tile from the blocked kernels
in :mod:`repro.perf.kernels` under an injectable
:class:`~repro.perf.ExecutionPlan` (serial by default, process-parallel
opt-in) — results are bit-identical for any tile size or worker count.
Both storages are exact float64.  ``storage="dense"`` (the default and
the test oracle) holds full squares.  ``storage="sparse"`` runs the URL
blocking stage and keeps only the entries surviving its certified
screens — every absent pair provably has total distance >= the blocking
bound (see :mod:`repro.perf.blocking`) — stored bitwise equal to the
dense kernels' output.

:class:`CorpusIndex` is the one place that turns token lists into kernel
operands, for the batch mine, the serving layer and the incremental miner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.core.features import WpnFeatures, extract_all
from repro.core.records import WpnRecord
from repro.core.textsim import SoftCosineModel
from repro.core.urlsim import url_membership_matrix, url_token_vocabulary
from repro.perf import (
    DEFAULT_SPARSE_BOUND,
    BlockingStats,
    ExecutionPlan,
    PairwiseOperands,
    QueryOperands,
    SparsePairwise,
    candidate_distance_tile,
    combined_distance_tile,
    component_labels,
    prune_cross_component,
)

STORAGES = ("dense", "sparse")

Matrix = Union[np.ndarray, SparsePairwise]


@dataclass(frozen=True)
class CorpusIndex:
    """A fitted text model plus the distance operands of one corpus.

    The URL vocabulary is first-seen over *sorted* token lists, so it is
    the same in every process; Jaccard values do not depend on column
    order anyway (memberships are exact 0/1 and their sums are exact).
    Immutable: :meth:`extended` returns a new index and leaves this one,
    and any :class:`QueryOperands` built from it, untouched.
    """

    model: SoftCosineModel
    operands: PairwiseOperands
    url_vocabulary: Mapping[str, int]

    @classmethod
    def build(
        cls,
        model: SoftCosineModel,
        texts: Sequence[Sequence[str]],
        url_lists: Sequence[Iterable[str]],
    ) -> "CorpusIndex":
        """Index a corpus of distinct URL-token lists under a fitted model."""
        sorted_lists = [sorted(tokens) for tokens in url_lists]
        vocabulary = url_token_vocabulary(sorted_lists)
        return cls._of(
            model,
            model.corpus_operands(texts),
            url_membership_matrix(sorted_lists, vocabulary),
            vocabulary,
        )

    @classmethod
    def _of(
        cls,
        model: SoftCosineModel,
        text_operands: Tuple[sparse.csr_matrix, np.ndarray, np.ndarray],
        member: sparse.csr_matrix,
        vocabulary: Mapping[str, int],
    ) -> "CorpusIndex":
        bow_normed, doc_emb, zero_rows = text_operands
        sizes = np.asarray(member.sum(axis=1)).ravel()
        operands = PairwiseOperands(
            bow_normed=bow_normed,
            doc_emb=doc_emb,
            zero_rows=zero_rows,
            blend=model.blend,
            url_member=member,
            url_sizes=sizes,
            url_empty=sizes == 0,
        )
        return cls(model, operands, vocabulary)

    def queries(
        self,
        texts: Sequence[Sequence[str]],
        url_lists: Sequence[Iterable[str]],
    ) -> QueryOperands:
        """Operands of new documents against this corpus.

        Out-of-vocabulary URL tokens cannot intersect a corpus row: they
        are dropped from the membership but count in the true set size.
        """
        q_bow, q_emb, q_zero = self.model.corpus_operands(texts)
        sorted_lists = [sorted(tokens) for tokens in url_lists]
        q_sizes = np.asarray(
            [len(tokens) for tokens in sorted_lists], dtype=np.float64
        )
        return QueryOperands(
            corpus=self.operands,
            q_bow_normed=q_bow,
            q_doc_emb=q_emb,
            q_zero_rows=q_zero,
            q_url_member=url_membership_matrix(
                sorted_lists, self.url_vocabulary
            ),
            q_url_sizes=q_sizes,
            q_url_empty=q_sizes == 0,
        )

    def extended(
        self, queries: QueryOperands, url_lists: Sequence[Iterable[str]]
    ) -> "CorpusIndex":
        """This corpus plus the rows of one :meth:`queries` call.

        Every operand is row-independent and the vocabulary only grows,
        in first-seen order, so this is bitwise :meth:`build` over the
        union with the same model.
        """
        sorted_lists = [sorted(tokens) for tokens in url_lists]
        vocabulary = url_token_vocabulary(
            [list(self.url_vocabulary), *sorted_lists]
        )
        old = self.operands
        # Widen the existing membership rows to the grown vocabulary (no
        # stored entry moves), then stack the new rows under them.
        widened = sparse.csr_matrix(
            (
                old.url_member.data,
                old.url_member.indices,
                old.url_member.indptr,
            ),
            shape=(old.n, len(vocabulary)),
        )
        return self._of(
            self.model,
            (
                sparse.vstack(
                    [old.bow_normed, queries.q_bow_normed], format="csr"
                ),
                np.concatenate([old.doc_emb, queries.q_doc_emb]),
                np.concatenate([old.zero_rows, queries.q_zero_rows]),
            ),
            sparse.vstack(
                [widened, url_membership_matrix(sorted_lists, vocabulary)],
                format="csr",
            ),
            vocabulary,
        )


@dataclass
class DistanceMatrices:
    """The pairwise matrices the clustering stage consumes.

    In dense storage ``text``, ``url``, and ``total`` are float64
    squares.  In sparse storage all three are
    :class:`~repro.perf.SparsePairwise` holding only the blocking stage's
    certified entries (absent pairs provably have total >= the blocking
    bound), sharing one index structure.
    """

    text: Matrix
    url: Matrix
    total: Matrix
    #: Sparse storage only: the kernel operands the matrices were computed
    #: from, retained so downstream stages (cut scoring) can recompute any
    #: full distance tile bit-identically instead of densifying.
    operands: Optional[PairwiseOperands] = None
    #: Sparse storage only: blocking-stage accounting for tracer gauges.
    blocking_stats: Optional[BlockingStats] = None

    def __post_init__(self):
        if isinstance(self.total, SparsePairwise):
            n = self.total.n
            for name in ("text", "url"):
                matrix = getattr(self, name)
                if not (isinstance(matrix, SparsePairwise) and matrix.n == n):
                    raise ValueError(
                        f"{name} must be a SparsePairwise over n={n}"
                    )
            return
        if self.total.ndim != 2 or self.total.shape[0] != self.total.shape[1]:
            raise ValueError("total distance matrix must be square")
        for name in ("text", "url"):
            matrix = getattr(self, name)
            if (
                isinstance(matrix, SparsePairwise)
                or matrix.shape != self.total.shape
            ):
                raise ValueError(f"{name} distance matrix must be square")

    @property
    def size(self) -> int:
        """The number of records the matrices cover."""
        if isinstance(self.total, SparsePairwise):
            return self.total.n
        return int(self.total.shape[0])

    @property
    def storage(self) -> str:
        """``"dense"`` or ``"sparse"``, from ``total``."""
        return "sparse" if isinstance(self.total, SparsePairwise) else "dense"

    @property
    def component_bytes(self) -> int:
        """Bytes held by every materialized matrix (text + url + total)."""
        total = 0
        for m in (self.text, self.url, self.total):
            if isinstance(m, SparsePairwise):
                # The three sparse components share one index structure;
                # count it once (on total) and the values everywhere.
                total += (
                    m.component_bytes if m is self.total else int(m.data.nbytes)
                )
            else:
                total += int(m.nbytes)
        return total

    def total_square(self) -> np.ndarray:
        """The combined distance as a square matrix.

        Dense storage returns ``total`` as-is (no copy).  Sparse storage
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
        return self.total


def compute_distances(
    records: Sequence[WpnRecord],
    features: Optional[List[WpnFeatures]] = None,
    text_model: Optional[SoftCosineModel] = None,
    *,
    plan: Optional[ExecutionPlan] = None,
    storage: str = "dense",
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
    yields bit-identical float64 matrices. ``storage="sparse"`` runs the
    URL blocking stage: only the entries surviving its certified screens
    are materialized, bitwise equal to the dense entries, with every
    absent pair certified >= ``blocking_bound``.
    """
    if storage not in STORAGES:
        raise ValueError(f"storage must be one of {STORAGES}, got {storage!r}")
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

    operands = CorpusIndex.build(
        model, corpus, [f.url_tokens for f in features]
    ).operands

    plan = plan if plan is not None else ExecutionPlan()
    n = len(records)
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
        # Assemble exactly as the dense branch does: the mean of the
        # channels.
        total_data = (text_data + url_data) / 2.0
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
                n, kept_indptr, kept_indices, text_data[keep],
                bound=blocking_bound,
            ),
            url=SparsePairwise(
                n, kept_indptr, kept_indices, url_data[keep],
                bound=blocking_bound,
            ),
            total=SparsePairwise(
                n, kept_indptr, kept_indices, total_data[keep],
                bound=blocking_bound,
            ),
            operands=operands,
            blocking_stats=stats,
        )

    text_out = np.empty((n, n))
    url_out = np.empty((n, n))
    total_out = np.empty((n, n))
    for tile, (text_rows, url_rows) in zip(
        tiles, plan.stream(combined_distance_tile, operands, tiles)
    ):
        span = slice(tile.start, tile.stop)
        text_out[span] = text_rows
        url_out[span] = url_rows
        total_out[span] = (text_rows + url_rows) / 2.0
    return DistanceMatrices(text=text_out, url=url_out, total=total_out)
