"""Append-oriented mining: absorb new WPN batches without a full re-mine.

The batch pipeline re-pays features → text model → pairwise distances →
linkage for the whole corpus on every run, even when 95%+ of it is
unchanged.  :class:`IncrementalMiner` instead *absorbs* a batch against a
frozen base state:

* featurize only the new records, against the base run's frozen
  :class:`~repro.core.textsim.SoftCosineModel` (its per-row operands are
  row-independent, so the new rows are bitwise the rows a batch run with
  this model would compute);
* build the batch's query operands from the union corpus's
  :class:`~repro.core.distance.CorpusIndex`, run
  :func:`~repro.perf.delta.nearest_corpus_rows` — the search serve's
  classify runs, blocked by the blocking bound under
  ``storage="sparse"`` and exhaustive otherwise — and assign each new
  WPN to its nearest existing cluster iff the combined distance clears
  the frozen ``cut_threshold``, opening a singleton cluster for the
  rest (ties break to the lowest corpus index, the dense-argmin
  convention); the index is then extended by the batch rows;
* re-run the deterministic post-clustering verdict stages (campaigns →
  blocklist labeling → meta clustering → suspicion) over the union via
  :meth:`~repro.core.pipeline.PushAdMiner.run_verdict_stages` — they are
  pure functions of ``(records, labels, config)``, so the refreshed
  verdicts carry no incremental approximation at all.

**What is and is not exact.** Between compactions the *clustering* is an
approximation by construction: the text model stays frozen (a batch run
would refit on the union) and absorbed records never trigger re-linkage.
Everything the incremental path *does* compute — distances, assignment
decisions, verdicts over the incremental labels — is exact, and any state
it cannot update exactly raises :class:`IncrementalDriftError` instead of
silently approximating: dendrogram-derived artifacts
(``distances``/``linkage``/``silhouette`` on :class:`IncrementalResult`),
a sparse configuration whose ``cut_threshold`` reaches the blocking
bound (the delta kernel's certificates would no longer cover the
assignment decision), stale or mismatched base state.

:meth:`IncrementalMiner.compact` is the convergence contract's other
half: a full from-scratch re-mine of the union corpus (text model refit
included) that resets the base state.  ``tests/incremental`` enforces
that absorb-then-compact output is **bit-identical** to
``PushAdMiner.run`` over the same union — the same discipline as the
incremental cut sweep vs. ``Linkage.cut``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Set

import numpy as np

from repro.core.campaigns import WpnCluster
from repro.core.distance import CorpusIndex
from repro.core.features import extract_all
from repro.core.labeling import LabelingResult
from repro.core.metacluster import MetaCluster
from repro.core.pipeline import (
    MinerConfig,
    PipelineResult,
    PushAdMiner,
    ResultSummaryMixin,
)
from repro.core.records import WpnRecord
from repro.core.suspicious import SuspicionResult
from repro.core.textsim import SoftCosineModel
from repro.core.verification import ManualVerificationOracle
from repro.obs import Tracer
from repro.perf import ExecutionPlan, nearest_corpus_rows
from repro.serve.snapshot import MinedSnapshot, SnapshotSchemaError


class IncrementalDriftError(RuntimeError):
    """Incremental state cannot be updated (or read) exactly.

    The incremental path never silently approximates: any artifact it
    cannot keep bit-exact relative to its own contract — and any base
    state it cannot verify — is refused with this error.  The remedy is
    always the same: run :meth:`IncrementalMiner.compact` (or a full
    batch mine) to re-establish an exact base.
    """


@dataclass(frozen=True)
class AbsorbReport:
    """Accounting of one :meth:`IncrementalMiner.absorb` call."""

    batch_size: int
    assigned: int
    opened: int
    corpus_size: int
    #: Records absorbed since the last compaction (or the base run):
    #: clustered against a frozen text model and without re-linkage, so
    #: their placement is re-derived exactly at the next compaction.
    deferred_to_compaction: int
    #: Blocked path only: raw candidate pairs the inverted URL-token
    #: index enumerated, and pairs that survived the certified screens.
    n_candidates: int = 0
    n_scored: int = 0


@dataclass
class IncrementalResult(ResultSummaryMixin):
    """A :class:`~repro.core.pipeline.PipelineResult`-shaped view of
    incremental state.

    Shares every verdict/summary derivation with the batch result via
    :class:`~repro.core.pipeline.ResultSummaryMixin`, and is accepted by
    :meth:`~repro.serve.snapshot.MinedSnapshot.from_result` (which reads
    none of the dendrogram artifacts).  The artifacts the incremental
    path does not maintain — ``distances``, ``linkage``, ``silhouette``
    — raise :class:`IncrementalDriftError` instead of returning stale
    base-run values.
    """

    records: List[WpnRecord]
    labels: np.ndarray
    clusters: List[WpnCluster]
    campaign_cluster_ids: Set[int]
    labeling: LabelingResult
    metas: List[MetaCluster]
    suspicion: SuspicionResult
    oracle: ManualVerificationOracle
    cut_threshold: float
    config: MinerConfig = field(default_factory=lambda: MinerConfig())
    text_model: Optional[SoftCosineModel] = None
    #: Records absorbed on top of the last exact (batch/compacted) state.
    absorbed_since_compaction: int = 0

    @property
    def distances(self) -> Any:
        raise IncrementalDriftError(
            "incremental results carry no pairwise distance matrices: "
            "absorbed records were never paired against each other; "
            "compact() re-mines the union and yields exact matrices"
        )

    @property
    def linkage(self) -> Any:
        raise IncrementalDriftError(
            "incremental results carry no dendrogram: absorption assigns "
            "against the frozen cut threshold without re-linkage; "
            "compact() re-mines the union and yields an exact linkage"
        )

    @property
    def silhouette(self) -> Any:
        raise IncrementalDriftError(
            "incremental results carry no silhouette score: the frozen "
            "cut threshold was selected on the base corpus, not re-scored "
            "per batch; compact() re-selects the cut on the union"
        )


class IncrementalMiner:
    """Absorb new WPN batches into a completed mining run's state.

    Construct with :meth:`from_result` (live pipeline output) or
    :meth:`from_snapshot` (a saved serving snapshot plus its source
    records); then :meth:`absorb` batches, :meth:`result` at any point
    for a queryable/exportable view, and :meth:`compact` periodically to
    re-establish the exact batch state.
    """

    def __init__(
        self,
        config: MinerConfig,
        *,
        records: Sequence[WpnRecord],
        labels: np.ndarray,
        cut_threshold: float,
        text_model: SoftCosineModel,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config
        self.tracer: Tracer = tracer if tracer is not None else Tracer()
        self._miner = PushAdMiner(config, tracer=self.tracer)
        self._records: List[WpnRecord] = list(records)
        self._labels = np.asarray(labels, dtype=np.int64).copy()
        self._cut_threshold = float(cut_threshold)
        self._model = text_model
        self._absorbed_since_compaction = 0
        self._adopt_base()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls, result: PipelineResult, *, tracer: Optional[Tracer] = None
    ) -> "IncrementalMiner":
        """Adopt a completed :class:`PipelineResult` as the base state."""
        if result.text_model is None or not result.text_model.is_fitted:
            raise IncrementalDriftError(
                "base result carries no fitted text model; incremental "
                "absorption requires the frozen model the base run "
                "featurized with"
            )
        return cls(
            result.config,
            records=result.records,
            labels=np.asarray(result.labels),
            cut_threshold=result.cut_threshold,
            text_model=result.text_model,
            tracer=tracer,
        )

    @classmethod
    def from_snapshot(
        cls,
        snapshot: MinedSnapshot,
        records: Sequence[WpnRecord],
        *,
        tracer: Optional[Tracer] = None,
    ) -> "IncrementalMiner":
        """Adopt a saved :class:`MinedSnapshot` plus its source records.

        Snapshots store features and labels but not the full
        :class:`WpnRecord` rows the verdict stages need, so the caller
        supplies the records the snapshot was exported from (e.g. from a
        deterministic re-crawl).  Alignment is verified per row — wpn id
        order and landing URL must match the snapshot exactly — and any
        mismatch raises :class:`IncrementalDriftError`.  A recorded config
        this build cannot rebuild (an unknown field, or a storage or
        precision mode it no longer has) raises
        :class:`~repro.serve.SnapshotSchemaError`.
        """
        rows = snapshot.records
        if len(records) != len(rows):
            raise IncrementalDriftError(
                f"snapshot holds {len(rows)} records but {len(records)} "
                f"were supplied; incremental state must adopt the exact "
                f"base corpus"
            )
        for i, (record, row) in enumerate(zip(records, rows)):
            if record.wpn_id != row["wpn_id"]:
                raise IncrementalDriftError(
                    f"record {i} is {record.wpn_id!r} but the snapshot "
                    f"expects {row['wpn_id']!r}; supply the snapshot's "
                    f"source records in corpus order"
                )
            if record.landing_url != row["landing_url"]:
                raise IncrementalDriftError(
                    f"record {record.wpn_id!r} landing URL does not match "
                    f"the snapshot; the supplied corpus drifted from the "
                    f"mined one"
                )
        try:
            config = MinerConfig(**snapshot.provenance["config"])
        except (TypeError, ValueError) as exc:
            # An unknown key (TypeError) or a mode this build removed
            # (ValueError); both messages name the field.
            raise SnapshotSchemaError(
                f"snapshot config is not a MinerConfig this build accepts: "
                f"{exc}"
            ) from exc
        labels = np.asarray(
            [int(row["cluster_id"]) for row in rows], dtype=np.int64
        )
        return cls(
            config,
            records=records,
            labels=labels,
            cut_threshold=snapshot.cut_threshold,
            text_model=snapshot.restore_text_model(),
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Base-state adoption
    # ------------------------------------------------------------------
    def _adopt_base(self) -> None:
        """Validate the exact base state and derive everything else from it."""
        self._validate_base()
        features = extract_all(self._records)
        self._index = CorpusIndex.build(
            self._model,
            [list(f.text_tokens) for f in features],
            [f.url_tokens for f in features],
        )
        self._next_label = int(self._labels.max()) + 1
        self._verdicts = self._miner.run_verdict_stages(
            self._records, self._labels
        )

    def _validate_base(self) -> None:
        if not self._records:
            raise IncrementalDriftError("base state holds no records")
        if self._labels.shape != (len(self._records),):
            raise IncrementalDriftError(
                f"base labels have shape {self._labels.shape} for "
                f"{len(self._records)} records; the base state is corrupt"
            )
        if not all(r.valid for r in self._records):
            raise IncrementalDriftError(
                "base state contains invalid records; the batch pipeline "
                "only ever clusters valid ones"
            )
        if not self._model.is_fitted:
            raise IncrementalDriftError(
                "text model is unfitted; incremental featurization "
                "requires the frozen base model"
            )
        if (
            self.config.storage == "sparse"
            and self._cut_threshold >= self.config.blocking_bound
        ):
            raise IncrementalDriftError(
                f"cut threshold {self._cut_threshold} reaches the blocking "
                f"bound {self.config.blocking_bound}: the delta kernel's "
                f"certificates only cover assignment decisions strictly "
                f"below the bound; re-mine with a larger blocking_bound "
                f"or dense storage"
            )

    # ------------------------------------------------------------------
    # Absorption
    # ------------------------------------------------------------------
    def _check_batch(self, batch: Sequence[WpnRecord]) -> None:
        if not batch:
            raise ValueError("absorb() takes a non-empty batch")
        seen = {r.wpn_id for r in self._records}
        batch_ids: Set[str] = set()
        for record in batch:
            if not record.valid:
                raise IncrementalDriftError(
                    f"batch record {record.wpn_id!r} is invalid; absorb() "
                    f"takes pre-filtered valid records (dataset"
                    f".valid_records), so a dropped row can never make "
                    f"the absorbed corpus drift from the compaction union"
                )
            if record.wpn_id in seen or record.wpn_id in batch_ids:
                raise IncrementalDriftError(
                    f"duplicate wpn id {record.wpn_id!r}: per-record "
                    f"verdicts are keyed by wpn id, so a collision would "
                    f"corrupt the incremental state"
                )
            batch_ids.add(record.wpn_id)

    def absorb(self, batch: Sequence[WpnRecord]) -> AbsorbReport:
        """Absorb one batch of new records; returns the accounting.

        Assignment compares each batch record against the corpus as of
        the batch start (batch records are not paired with each other —
        two identical new records open one singleton each, to be joined
        at the next compaction), then the verdict stages re-run over the
        union exactly.
        """
        with self.tracer.span("incremental.absorb") as span:
            self._check_batch(batch)
            cfg = self.config
            plan = ExecutionPlan(workers=cfg.workers, tile_size=cfg.tile_size)

            with self.tracer.span("incremental.assign") as assign_span:
                features = extract_all(batch)
                url_lists = [f.url_tokens for f in features]
                queries = self._index.queries(
                    [list(f.text_tokens) for f in features], url_lists
                )
                found = nearest_corpus_rows(
                    queries,
                    plan,
                    bound=(
                        cfg.blocking_bound if cfg.storage == "sparse" else None
                    ),
                )
                new_labels = np.empty(len(batch), dtype=np.int64)
                assign = found.distances <= self._cut_threshold
                for i in range(len(batch)):
                    if assign[i]:
                        new_labels[i] = self._labels[found.columns[i]]
                    else:
                        new_labels[i] = self._next_label
                        self._next_label += 1
                assigned = int(assign.sum())
                assign_span.gauge("batch", len(batch))
                assign_span.gauge("assigned", assigned)
                assign_span.gauge("opened", len(batch) - assigned)
                assign_span.gauge("candidate_pairs", found.n_candidates)
                assign_span.gauge("scored_pairs", found.n_scored)
                assign_span.gauge("workers", plan.workers)

            self._records.extend(batch)
            self._labels = np.concatenate([self._labels, new_labels])
            self._index = self._index.extended(queries, url_lists)

            with self.tracer.span("incremental.verdicts"):
                self._verdicts = self._miner.run_verdict_stages(
                    self._records, self._labels
                )

            self._absorbed_since_compaction += len(batch)
            span.gauge("batch", len(batch))
            span.gauge("assigned", assigned)
            span.gauge("opened", len(batch) - assigned)
            span.gauge("corpus", len(self._records))
            span.gauge(
                "deferred_to_compaction", self._absorbed_since_compaction
            )
            return AbsorbReport(
                batch_size=len(batch),
                assigned=assigned,
                opened=len(batch) - assigned,
                corpus_size=len(self._records),
                deferred_to_compaction=self._absorbed_since_compaction,
                n_candidates=found.n_candidates,
                n_scored=found.n_scored,
            )

    # ------------------------------------------------------------------
    # Views and compaction
    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return len(self._records)

    @property
    def absorbed_since_compaction(self) -> int:
        """Records clustered incrementally since the last exact state."""
        return self._absorbed_since_compaction

    def result(self) -> IncrementalResult:
        """The current union state as a queryable/exportable result."""
        verdicts = self._verdicts
        return IncrementalResult(
            records=list(self._records),
            labels=self._labels.copy(),
            clusters=verdicts.clusters,
            campaign_cluster_ids=verdicts.campaign_cluster_ids,
            labeling=verdicts.labeling,
            metas=verdicts.metas,
            suspicion=verdicts.suspicion,
            oracle=verdicts.oracle,
            cut_threshold=self._cut_threshold,
            config=self.config,
            text_model=self._model,
            absorbed_since_compaction=self._absorbed_since_compaction,
        )

    def compact(self) -> PipelineResult:
        """Full re-mine of the union corpus; resets the base state.

        This *is* the from-scratch batch pipeline over every record this
        miner holds — text model refit on the union, full pairwise
        distances, fresh linkage and cut selection — so its output is
        bit-identical to ``PushAdMiner(config).run(union_records)`` by
        construction, and the incremental state adopted from it carries
        no drift (``absorbed_since_compaction`` resets to 0).
        """
        with self.tracer.span("incremental.compact") as span:
            span.gauge("corpus", len(self._records))
            span.gauge(
                "absorbed_since_compaction", self._absorbed_since_compaction
            )
            full = PushAdMiner(self.config, tracer=self.tracer).run(
                self._records
            )
            self._records = list(full.records)
            self._labels = np.asarray(full.labels, dtype=np.int64).copy()
            self._cut_threshold = float(full.cut_threshold)
            assert full.text_model is not None  # run() always fits one
            self._model = full.text_model
            self._absorbed_since_compaction = 0
            self._adopt_base()
            return full
