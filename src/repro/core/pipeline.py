"""The end-to-end PushAdMiner analysis pipeline.

Wires together every analysis stage over a harvested
:class:`~repro.crawler.harvest.WpnDataset`:

    valid WPNs -> features -> text-model fit -> distances
    -> linkage -> cut selection -> ad campaigns
    -> blocklist labeling + propagation -> meta clustering
    -> suspicion rules -> manual verification -> measurement tables

Each arrow is a named ``stage_*`` method on :class:`PushAdMiner`, so
partial pipelines are first-class (fit a dendrogram once, try several
cuts; reuse distances across experiments) and every stage is a span
boundary for the :mod:`repro.obs` tracer.  Configuration lives in the
frozen :class:`MinerConfig`; the resulting :class:`PipelineResult`
exposes every intermediate artifact plus the stage counters of Table 4
and the headline numbers of Table 3.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # crawler / webenv sit above core in the package DAG
    from repro.crawler.harvest import WpnDataset
    from repro.webenv.scenario import ScenarioConfig

import numpy as np

from repro.blocklists.base import UrlTruth
from repro.blocklists.gsb import GoogleSafeBrowsingModel
from repro.blocklists.virustotal import VirusTotalModel
from repro.core.campaigns import (
    WpnCluster,
    ad_campaign_clusters,
    build_clusters,
)
from repro.core.clustering import (
    AgglomerativeClusterer,
    CutSelection,
    Linkage,
    evaluate_cuts,
    evaluate_cuts_sparse,
)
from repro.core.distance import STORAGES, DistanceMatrices, compute_distances
from repro.core.features import WpnFeatures, extract_all
from repro.core.labeling import LabelingResult, label_malicious_clusters
from repro.core.metacluster import MetaCluster, build_meta_clusters, meta_of_cluster
from repro.core.records import WpnRecord
from repro.core.suspicious import SuspicionResult, find_suspicious
from repro.core.textsim import SoftCosineModel
from repro.core.verification import ManualVerificationOracle
from repro.obs import Tracer
from repro.perf import DEFAULT_SPARSE_BOUND, DEFAULT_TILE_SIZE, ExecutionPlan


@dataclass
class VerdictStages:
    """Output bundle of :meth:`PushAdMiner.run_verdict_stages`.

    The post-clustering half of the pipeline (campaigns → labeling →
    meta clustering → suspicion) packaged as one deterministic unit so
    callers that already hold a clustering — the incremental miner, cut
    experiments — can refresh every verdict artifact in one call.
    """

    clusters: List[WpnCluster]
    campaign_cluster_ids: Set[int]
    labeling: LabelingResult
    metas: List[MetaCluster]
    suspicion: SuspicionResult
    oracle: ManualVerificationOracle


@dataclass
class StageRow:
    """One row of Table 4."""

    stage: str
    n_clusters: int
    n_ad_related: int
    n_wpn_ads: int
    n_known_malicious: int
    n_additional_malicious: int


class ResultSummaryMixin:
    """Verdict bookkeeping and measurement tables over clustering output.

    Everything here is a pure function of the verdict-stage artifacts
    (``records``, ``clusters``, ``campaign_cluster_ids``, ``labeling``,
    ``metas``, ``suspicion``), so both :class:`PipelineResult` and
    ``repro.incremental.IncrementalResult`` share one implementation —
    the convergence contract between them covers these derived views for
    free once the underlying artifacts match.
    """

    records: List[WpnRecord]
    clusters: List[WpnCluster]
    campaign_cluster_ids: Set[int]
    labeling: LabelingResult
    metas: List[MetaCluster]
    suspicion: SuspicionResult

    # ------------------------------------------------------------------
    # Ad / malicious bookkeeping
    # ------------------------------------------------------------------
    @property
    def campaign_ad_ids(self) -> Set[str]:
        """WPNs inside ad-campaign clusters (stage-1 ads)."""
        out: Set[str] = set()
        for cluster in self.clusters:
            if cluster.cluster_id in self.campaign_cluster_ids:
                out.update(cluster.wpn_ids)
        return out

    @property
    def all_ad_ids(self) -> Set[str]:
        """All WPN ads: campaign-cluster ads + meta-propagated ads."""
        return self.campaign_ad_ids | self.suspicion.additional_ad_ids

    @property
    def malicious_ad_ids(self) -> Set[str]:
        """Ads confirmed malicious by any stage."""
        confirmed = (
            self.labeling.known_malicious_ids
            | self.labeling.propagated_confirmed_ids
            | self.suspicion.confirmed_malicious_ids
        )
        return confirmed & self.all_ad_ids

    @property
    def malicious_campaign_cluster_ids(self) -> Set[int]:
        """Ad-campaign clusters with at least one confirmed-malicious WPN."""
        malicious = (
            self.labeling.known_malicious_ids
            | self.labeling.propagated_confirmed_ids
            | self.suspicion.confirmed_malicious_ids
        )
        out: Set[int] = set()
        for cluster in self.clusters:
            if cluster.cluster_id not in self.campaign_cluster_ids:
                continue
            if cluster.wpn_ids & malicious:
                out.add(cluster.cluster_id)
        return out

    @property
    def residual_singleton_clusters(self) -> List[WpnCluster]:
        """Singletons whose meta cluster holds no non-singleton cluster."""
        index = meta_of_cluster(self.metas)
        out = []
        for cluster in self.clusters:
            if not cluster.is_singleton:
                continue
            meta = index[cluster.cluster_id]
            if all(c.is_singleton for c in meta.clusters):
                out.append(cluster)
        return out

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def stage_rows(self) -> List[StageRow]:
        """Table 4: per-stage counters plus the combined totals row."""
        campaign_ads = self.campaign_ad_ids
        known = self.labeling.known_malicious_ids
        row1 = StageRow(
            stage="After WPN Clustering",
            n_clusters=len(self.clusters),
            n_ad_related=len(self.campaign_cluster_ids),
            n_wpn_ads=len(campaign_ads),
            n_known_malicious=len(known & campaign_ads),
            n_additional_malicious=len(
                self.labeling.propagated_confirmed_ids & campaign_ads
            ),
        )
        additional_ads = self.suspicion.additional_ad_ids
        row2 = StageRow(
            stage="After Meta Clustering",
            n_clusters=len(self.metas),
            n_ad_related=len(self.suspicion.ad_related_meta_ids),
            n_wpn_ads=len(additional_ads),
            n_known_malicious=len(
                self.suspicion.known_malicious_additional_ad_ids
            ),
            n_additional_malicious=len(
                self.suspicion.confirmed_malicious_ids & self.all_ad_ids
            ),
        )
        total = StageRow(
            stage="Total",
            n_clusters=row1.n_clusters,
            n_ad_related=row1.n_ad_related,
            n_wpn_ads=row1.n_wpn_ads + row2.n_wpn_ads,
            n_known_malicious=row1.n_known_malicious + row2.n_known_malicious,
            n_additional_malicious=(
                row1.n_additional_malicious + row2.n_additional_malicious
            ),
        )
        return [row1, row2, total]

    def summary(self) -> Dict[str, float]:
        """Table 3: the headline measurement numbers."""
        ads = self.all_ad_ids
        malicious_ads = self.malicious_ad_ids
        campaigns = self.campaign_cluster_ids
        malicious_campaigns = self.malicious_campaign_cluster_ids
        return {
            "wpns_clustered": len(self.records),
            "wpn_clusters": len(self.clusters),
            "singleton_clusters": sum(1 for c in self.clusters if c.is_singleton),
            "ad_campaigns": len(campaigns),
            "wpn_ads": len(ads),
            "malicious_campaigns": len(malicious_campaigns),
            "malicious_ads": len(malicious_ads),
            "malicious_ad_pct": (
                round(100.0 * len(malicious_ads) / len(ads), 1) if ads else 0.0
            ),
            "meta_clusters": len(self.metas),
            "suspicious_meta_clusters": len(self.suspicion.suspicious_meta_ids),
            "residual_singletons": len(self.residual_singleton_clusters),
        }


@dataclass
class PipelineResult(ResultSummaryMixin):
    """Every artifact of one full pipeline run.

    ``config`` and ``text_model`` are the snapshot export hooks: a
    completed run carries the exact :class:`MinerConfig` it executed under
    and the *fitted* :class:`~repro.core.textsim.SoftCosineModel`, so
    ``repro.serve.MinedSnapshot.from_result`` can freeze everything a
    query endpoint needs without re-running any stage.
    """

    records: List[WpnRecord]
    distances: DistanceMatrices
    linkage: Linkage
    cut_threshold: float
    silhouette: float
    labels: np.ndarray
    clusters: List[WpnCluster]
    campaign_cluster_ids: Set[int]
    labeling: LabelingResult
    metas: List[MetaCluster]
    suspicion: SuspicionResult
    oracle: ManualVerificationOracle
    config: MinerConfig = field(default_factory=lambda: MinerConfig())
    text_model: Optional[SoftCosineModel] = None


@dataclass(frozen=True, kw_only=True)
class MinerConfig:
    """All scalar knobs of one :class:`PushAdMiner` run, immutably.

    Keyword-only and frozen: a config can be shared across miners, hashed
    into experiment identifiers, and tweaked only through :meth:`replace`.
    Blocklist rates default to the paper's empirical values;
    :meth:`from_scenario` derives them from a
    :class:`~repro.webenv.scenario.ScenarioConfig` instead.

    The performance knobs (``tile_size``, ``workers``, ``storage``)
    select how the pairwise-distance stage executes without changing
    *what* it computes: any tile size or worker count yields
    bit-identical matrices.  ``storage="sparse"`` routes the distance,
    linkage, and cut stages through the exactness-certified candidate
    graph of :mod:`repro.perf.blocking` — same merge sequence, threshold,
    and labels as the default ``"dense"``, without the O(n^2) matrices;
    ``blocking_bound`` sets the certification bound (every absent pair
    provably has total distance >= it).  ``precision`` and ``blocking``
    are recorded snapshot provenance (the config fingerprint hashes every
    field), not choices: ``precision`` must be ``"float64"``, and
    ``blocking`` must be ``"url"`` exactly when ``storage`` is
    ``"sparse"`` (else ``"none"``).  ``crawl_workers`` does
    the same for the crawl that *produces* a dataset: shards of container
    sessions fan out to that many processes with byte-identical results
    for any value (the CLI and benchmarks thread it into
    :func:`~repro.crawler.harvest.run_full_crawl`).
    """

    seed: int = 0
    vt_early_rate: float = 0.035
    vt_late_rate: float = 0.50
    gsb_rate: float = 0.03
    vt_fp_rate: float = 0.004
    unconfirmable_rate: float = 0.02
    cut_threshold: Optional[float] = None
    months_elapsed: int = 1
    tile_size: int = DEFAULT_TILE_SIZE
    workers: int = 1
    crawl_workers: int = 1
    precision: str = "float64"
    storage: str = "dense"
    blocking: str = "none"
    blocking_bound: float = DEFAULT_SPARSE_BOUND

    def __post_init__(self) -> None:
        for name in (
            "vt_early_rate", "vt_late_rate", "gsb_rate", "vt_fp_rate",
            "unconfirmable_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.months_elapsed < 0:
            raise ValueError("months_elapsed must be >= 0")
        if self.tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.crawl_workers < 1:
            raise ValueError("crawl_workers must be >= 1")
        if self.precision != "float64":
            raise ValueError(
                f"precision must be 'float64', got {self.precision!r}"
            )
        if self.storage not in STORAGES:
            raise ValueError(
                f"storage must be one of {STORAGES}, got {self.storage!r}"
            )
        blocking = "url" if self.storage == "sparse" else "none"
        if self.blocking != blocking:
            raise ValueError(
                f"storage={self.storage!r} requires blocking={blocking!r}, "
                f"got {self.blocking!r}: sparse storage holds exactly the "
                "candidate entries the URL blocking stage certifies"
            )
        if not 0.0 < self.blocking_bound <= 0.5:
            raise ValueError(
                f"blocking_bound must be in (0, 0.5], got {self.blocking_bound}"
            )

    @classmethod
    def from_scenario(
        cls, scenario: "ScenarioConfig", **overrides: Any
    ) -> "MinerConfig":
        """Blocklist parameters from the crawl scenario, plus overrides."""
        params: Dict[str, Any] = dict(
            seed=scenario.seed,
            vt_early_rate=scenario.vt_early_rate,
            vt_late_rate=scenario.vt_late_rate,
            gsb_rate=scenario.gsb_rate,
            vt_fp_rate=scenario.vt_benign_fp_rate,
        )
        params.update(overrides)
        return cls(**params)

    def replace(self, **changes: Any) -> "MinerConfig":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)


class PushAdMiner:
    """Driver for the full analysis over a record corpus.

    :meth:`run` executes everything; each ``stage_*`` method is also
    individually callable for partial pipelines, and opens one tracer span
    per call.  Construct with a :class:`MinerConfig`::

        miner = PushAdMiner(config=MinerConfig(seed=7), tracer=tracer)
        result = miner.run(dataset.valid_records)
    """

    def __init__(
        self,
        config: Optional[MinerConfig] = None,
        *,
        text_model: Optional[SoftCosineModel] = None,
        tracer: Optional[Tracer] = None,
    ):
        if config is not None and not isinstance(config, MinerConfig):
            raise TypeError(
                "PushAdMiner() takes config=MinerConfig(...); the "
                f"pre-MinerConfig constructor forms were removed "
                f"(got {type(config).__name__!r})"
            )
        self.config: MinerConfig = config if config is not None else MinerConfig()
        self.text_model = text_model
        self.tracer: Tracer = tracer if tracer is not None else Tracer()

    # -- read-only views of the config under the old attribute names ----
    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def vt_early_rate(self) -> float:
        return self.config.vt_early_rate

    @property
    def vt_late_rate(self) -> float:
        return self.config.vt_late_rate

    @property
    def gsb_rate(self) -> float:
        return self.config.gsb_rate

    @property
    def vt_fp_rate(self) -> float:
        return self.config.vt_fp_rate

    @property
    def unconfirmable_rate(self) -> float:
        return self.config.unconfirmable_rate

    @property
    def cut_threshold(self) -> Optional[float]:
        return self.config.cut_threshold

    @property
    def months_elapsed(self) -> int:
        return self.config.months_elapsed

    @classmethod
    def for_dataset(
        cls,
        dataset: WpnDataset,
        *,
        text_model: Optional[SoftCosineModel] = None,
        tracer: Optional[Tracer] = None,
        **overrides: Any,
    ) -> "PushAdMiner":
        """Build a miner whose blocklist parameters come from the scenario.

        ``overrides`` are :class:`MinerConfig` fields (e.g.
        ``cut_threshold=0.1``, ``months_elapsed=3``) layered on top of the
        scenario-derived values.
        """
        config = MinerConfig.from_scenario(dataset.config, **overrides)
        return cls(config=config, text_model=text_model, tracer=tracer)

    # ------------------------------------------------------------------
    # Stages (each one span; individually callable for partial pipelines)
    # ------------------------------------------------------------------
    def stage_features(self, records: Sequence[WpnRecord]) -> List[WpnFeatures]:
        """Extract text/URL token features for every record."""
        with self.tracer.span("pipeline.features") as span:
            features = extract_all(records)
            span.gauge("records", len(records))
            span.gauge(
                "text_tokens", sum(len(f.text_tokens) for f in features)
            )
            return features

    def stage_text_model(
        self, features: Sequence[WpnFeatures]
    ) -> SoftCosineModel:
        """The fitted soft-cosine model for this corpus.

        Uses the miner's ``text_model`` as-is when already fitted;
        otherwise fits a clone on this corpus (the caller's model object
        is never mutated — see :func:`~repro.core.distance.compute_distances`).
        """
        with self.tracer.span("pipeline.text_model") as span:
            corpus = [list(f.text_tokens) for f in features]
            model = (
                self.text_model if self.text_model is not None
                else SoftCosineModel()
            )
            if not model.is_fitted:
                model = model.clone().fit(corpus)
            span.gauge("documents", len(corpus))
            span.gauge("vocabulary", len(model.vocabulary))
            span.gauge("embedding_bytes", int(model.embeddings.nbytes))
            return model

    def stage_distances(
        self,
        records: Sequence[WpnRecord],
        features: Optional[List[WpnFeatures]] = None,
        text_model: Optional[SoftCosineModel] = None,
    ) -> DistanceMatrices:
        """The text / URL / combined pairwise distance matrices.

        Executed by the blocked kernels under this miner's
        :class:`~repro.perf.ExecutionPlan` (``tile_size`` / ``workers`` /
        ``storage`` config knobs).
        """
        with self.tracer.span("pipeline.distances") as span:
            cfg = self.config
            plan = ExecutionPlan(workers=cfg.workers, tile_size=cfg.tile_size)
            with self.tracer.memory.measure() as mem:
                distances = compute_distances(
                    records,
                    features=features,
                    text_model=text_model if text_model is not None else self.text_model,
                    plan=plan,
                    storage=cfg.storage,
                    blocking_bound=cfg.blocking_bound,
                )
            stats = distances.blocking_stats
            if stats is not None:
                with self.tracer.span("pipeline.blocking") as blocking_span:
                    blocking_span.gauge("bound", cfg.blocking_bound)
                    blocking_span.gauge(
                        "candidate_pairs", stats.n_candidate_pairs
                    )
                    blocking_span.gauge("stored_pairs", stats.n_stored_pairs)
                    blocking_span.gauge("pruning_ratio", stats.pruning_ratio)
                    blocking_span.gauge("components", stats.n_components)
                    blocking_span.gauge("max_component", stats.max_component)
            span.gauge("records", len(records))
            span.gauge("matrix_shape", distances.size)
            span.gauge("matrix_bytes", distances.component_bytes)
            span.gauge("tiles", len(plan.tiles(len(records))))
            span.gauge("tile_size", plan.tile_size)
            span.gauge("workers", plan.workers)
            if mem.peak_bytes is not None:
                span.gauge("peak_bytes", mem.peak_bytes)
            return distances

    def stage_linkage(self, distances: DistanceMatrices) -> Linkage:
        """The average-linkage dendrogram over the combined distances."""
        with self.tracer.span("pipeline.linkage") as span:
            with self.tracer.memory.measure() as mem:
                linkage = AgglomerativeClusterer().fit(distances.total)
            span.gauge("leaves", linkage.n_leaves)
            span.gauge("merges", len(linkage.merges))
            if distances.storage == "sparse":
                # The sparse fit never builds the n x n matrix: its
                # largest allocations are the per-component work + known
                # mirrors of the biggest candidate component.
                stats = distances.blocking_stats
                largest = stats.max_component if stats is not None else 0
                span.gauge("work_bytes", int(largest * largest * 8 * 2))
                span.gauge("exact_merges", linkage.exact_merges)
            else:
                # fit() works on a float64 square copy of the distance
                # matrix.
                span.gauge("work_bytes", int(distances.size ** 2 * 8))
            if mem.peak_bytes is not None:
                span.gauge("peak_bytes", mem.peak_bytes)
            return linkage

    def stage_cut(
        self, linkage: Linkage, distances: DistanceMatrices
    ) -> CutSelection:
        """Silhouette-selected (or configured fixed) dendrogram cut.

        Every candidate, a fixed cut included, is scored by one ascending
        incremental silhouette sweep over row tiles of the distance
        matrix: the dense square's row slices, or each tile's rows
        recomputed once on the sparse path — bitwise the same scores.
        """
        with self.tracer.span("pipeline.cut") as span:
            cfg = self.config
            fixed = cfg.cut_threshold
            if distances.storage == "sparse":
                # Never densify: score candidates tile by tile from the
                # retained kernel operands (bitwise the dense sweep), with
                # every threshold certified against the linkage's
                # exactness floor.
                assert distances.operands is not None
                plan = ExecutionPlan(
                    workers=cfg.workers, tile_size=cfg.tile_size
                )
                selection = evaluate_cuts_sparse(
                    linkage,
                    distances.operands,
                    plan=plan,
                    candidates=[fixed] if fixed is not None else None,
                )
                span.gauge("matrix_bytes", distances.component_bytes)
            else:
                total = distances.total_square()
                selection = evaluate_cuts(
                    linkage,
                    total,
                    candidates=[fixed] if fixed is not None else None,
                )
                span.gauge("matrix_bytes", int(total.nbytes))
            span.gauge("candidates_evaluated", selection.n_candidates)
            span.gauge("threshold", selection.threshold)
            span.gauge("silhouette", selection.score)
            span.gauge("clusters", int(selection.labels.max()) + 1)
            span.gauge("merges_swept", selection.merges_swept)
            span.gauge("workers", self.config.workers)
            return selection

    def stage_campaigns(
        self, records: Sequence[WpnRecord], labels: np.ndarray
    ) -> Tuple[List[WpnCluster], Set[int]]:
        """Materialized clusters plus the ad-campaign cluster ids."""
        with self.tracer.span("pipeline.campaigns") as span:
            clusters = build_clusters(records, labels)
            campaign_ids = {c.cluster_id for c in ad_campaign_clusters(clusters)}
            span.gauge("clusters", len(clusters))
            span.gauge(
                "singletons", sum(1 for c in clusters if c.is_singleton)
            )
            span.gauge("campaign_clusters", len(campaign_ids))
            return clusters, campaign_ids

    def stage_labeling(
        self, records: Sequence[WpnRecord], clusters: List[WpnCluster]
    ) -> Tuple[LabelingResult, ManualVerificationOracle]:
        """Blocklist labeling + propagation, and the shared oracle.

        The returned oracle must be passed on to :meth:`stage_suspicion`:
        its draws are sequential, so sharing one instance preserves the
        exact record-level decisions of a one-call run.
        """
        with self.tracer.span("pipeline.labeling") as span:
            cfg = self.config
            truth = UrlTruth.from_records(records)
            virustotal = VirusTotalModel(
                truth,
                seed=cfg.seed,
                early_rate=cfg.vt_early_rate,
                late_rate=cfg.vt_late_rate,
                fp_rate=cfg.vt_fp_rate,
            )
            gsb = GoogleSafeBrowsingModel(
                truth, seed=cfg.seed, coverage=cfg.gsb_rate
            )
            oracle = ManualVerificationOracle(
                seed=cfg.seed, unconfirmable_rate=cfg.unconfirmable_rate
            )
            labeling = label_malicious_clusters(
                clusters, virustotal, gsb, oracle,
                months_elapsed=cfg.months_elapsed,
            )
            span.gauge("known_malicious", len(labeling.known_malicious_ids))
            span.gauge(
                "propagated_confirmed", len(labeling.propagated_confirmed_ids)
            )
            return labeling, oracle

    def stage_metacluster(self, clusters: List[WpnCluster]) -> List[MetaCluster]:
        """Group clusters into meta clusters by shared infrastructure."""
        with self.tracer.span("pipeline.metacluster") as span:
            metas = build_meta_clusters(clusters)
            span.gauge("meta_clusters", len(metas))
            return metas

    def stage_suspicion(
        self,
        metas: List[MetaCluster],
        labeling: LabelingResult,
        oracle: ManualVerificationOracle,
    ) -> SuspicionResult:
        """Suspicion rules over meta clusters + manual verification."""
        with self.tracer.span("pipeline.suspicion") as span:
            suspicion = find_suspicious(metas, labeling, oracle)
            span.gauge(
                "suspicious_metas", len(suspicion.suspicious_meta_ids)
            )
            span.gauge("additional_ads", len(suspicion.additional_ad_ids))
            span.gauge(
                "confirmed_malicious", len(suspicion.confirmed_malicious_ids)
            )
            return suspicion

    # ------------------------------------------------------------------
    # The one-call drivers
    # ------------------------------------------------------------------
    def run_verdict_stages(
        self, records: Sequence[WpnRecord], labels: np.ndarray
    ) -> VerdictStages:
        """Campaigns → labeling → meta clustering → suspicion, as one unit.

        Everything downstream of the clustering is a deterministic
        function of ``(records, labels, config)``: the blocklist models
        and the manual-verification oracle are rebuilt from the config
        seed on every call, and the oracle's sequential draws replay the
        labeling-then-suspicion order of :meth:`run` exactly.  The
        incremental miner leans on this to recompute verdicts per
        absorbed batch without any drift from a from-scratch run over
        the same records and labels.
        """
        clusters, campaign_ids = self.stage_campaigns(records, labels)
        labeling, oracle = self.stage_labeling(records, clusters)
        metas = self.stage_metacluster(clusters)
        suspicion = self.stage_suspicion(metas, labeling, oracle)
        return VerdictStages(
            clusters=clusters,
            campaign_cluster_ids=campaign_ids,
            labeling=labeling,
            metas=metas,
            suspicion=suspicion,
            oracle=oracle,
        )

    def run(self, records: Sequence[WpnRecord]) -> PipelineResult:
        """Analyze a corpus of *valid* WPN records end to end."""
        with self.tracer.span("pipeline") as span:
            valid = [r for r in records if r.valid]
            span.gauge("records_in", len(records))
            span.gauge("records_valid", len(valid))
            if not valid:
                raise ValueError("no valid records to analyze")

            features = self.stage_features(valid)
            model = self.stage_text_model(features)
            distances = self.stage_distances(valid, features, model)
            linkage = self.stage_linkage(distances)
            cut = self.stage_cut(linkage, distances)
            verdicts = self.run_verdict_stages(valid, cut.labels)

            return PipelineResult(
                records=list(valid),
                distances=distances,
                linkage=linkage,
                cut_threshold=cut.threshold,
                silhouette=cut.score,
                labels=cut.labels,
                clusters=verdicts.clusters,
                campaign_cluster_ids=verdicts.campaign_cluster_ids,
                labeling=verdicts.labeling,
                metas=verdicts.metas,
                suspicion=verdicts.suspicion,
                oracle=verdicts.oracle,
                config=self.config,
                text_model=model,
            )
