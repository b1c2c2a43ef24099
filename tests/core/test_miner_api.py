"""Tests for MinerConfig, the legacy-kwarg shim, and the staged API."""

import dataclasses

import numpy as np
import pytest

from repro import PushAdMiner
from repro.core.pipeline import MinerConfig
from repro.obs import Tracer
from repro.webenv.scenario import paper_scenario


class TestMinerConfig:
    def test_defaults_match_paper_rates(self):
        config = MinerConfig()
        assert config.seed == 0
        assert config.vt_early_rate == 0.035
        assert config.vt_late_rate == 0.50
        assert config.cut_threshold is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MinerConfig().seed = 3

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            MinerConfig(7)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            MinerConfig(vt_early_rate=1.5)
        with pytest.raises(ValueError):
            MinerConfig(gsb_rate=-0.1)
        with pytest.raises(ValueError):
            MinerConfig(months_elapsed=-1)

    def test_replace_revalidates(self):
        config = MinerConfig(seed=2)
        changed = config.replace(cut_threshold=0.1)
        assert changed.cut_threshold == 0.1
        assert changed.seed == 2
        assert config.cut_threshold is None
        with pytest.raises(ValueError):
            config.replace(vt_late_rate=2.0)

    def test_from_scenario(self):
        scenario = paper_scenario(seed=5)
        config = MinerConfig.from_scenario(scenario)
        assert config.seed == 5
        assert config.vt_early_rate == scenario.vt_early_rate
        assert config.vt_late_rate == scenario.vt_late_rate
        assert config.gsb_rate == scenario.gsb_rate
        assert config.vt_fp_rate == scenario.vt_benign_fp_rate

    def test_from_scenario_overrides(self):
        scenario = paper_scenario(seed=5)
        config = MinerConfig.from_scenario(
            scenario, seed=9, cut_threshold=0.2
        )
        assert config.seed == 9
        assert config.cut_threshold == 0.2
        assert config.gsb_rate == scenario.gsb_rate


class TestMinerConstruction:
    def test_config_object(self):
        config = MinerConfig(seed=4, months_elapsed=3)
        miner = PushAdMiner(config=config)
        assert miner.config is config
        assert miner.seed == 4
        assert miner.months_elapsed == 3

    def test_default_config(self):
        assert PushAdMiner().config == MinerConfig()

    def test_default_tracer_is_null_clocked(self):
        assert PushAdMiner().tracer.clock.name == "null"

    def test_explicit_tracer_kept(self):
        tracer = Tracer()
        assert PushAdMiner(tracer=tracer).tracer is tracer

    def test_loose_kwargs_are_a_hard_type_error(self):
        """The PR-2 loose-kwarg shim is gone: no warning, just TypeError."""
        with pytest.raises(TypeError):
            PushAdMiner(seed=3, cut_threshold=0.15)

    def test_positional_seed_is_a_hard_type_error(self):
        with pytest.raises(TypeError, match="MinerConfig"):
            PushAdMiner(11)

    def test_unknown_kwarg_is_type_error(self):
        with pytest.raises(TypeError):
            PushAdMiner(bogus=1)


class TestForDataset:
    def test_round_trips_scenario(self, small_dataset):
        miner = PushAdMiner.for_dataset(small_dataset)
        scenario = small_dataset.config
        assert miner.config == MinerConfig.from_scenario(scenario)
        assert miner.seed == scenario.seed

    def test_overrides_round_trip(self, small_dataset):
        miner = PushAdMiner.for_dataset(
            small_dataset, cut_threshold=0.1, months_elapsed=4
        )
        assert miner.cut_threshold == 0.1
        assert miner.months_elapsed == 4
        # untouched fields still come from the scenario
        assert miner.gsb_rate == small_dataset.config.gsb_rate

    def test_tracer_threaded(self, small_dataset):
        tracer = Tracer()
        miner = PushAdMiner.for_dataset(small_dataset, tracer=tracer)
        assert miner.tracer is tracer


class TestStagedApi:
    def test_stages_compose_to_run(self, small_dataset, small_result):
        """Calling the stage methods by hand reproduces run() exactly."""
        miner = PushAdMiner.for_dataset(small_dataset)
        records = [r for r in small_dataset.valid_records if r.valid]

        features = miner.stage_features(records)
        model = miner.stage_text_model(features)
        distances = miner.stage_distances(records, features, model)
        linkage = miner.stage_linkage(distances)
        cut = miner.stage_cut(linkage, distances)
        clusters, campaign_ids = miner.stage_campaigns(records, cut.labels)
        labeling, oracle = miner.stage_labeling(records, clusters)
        metas = miner.stage_metacluster(clusters)
        suspicion = miner.stage_suspicion(metas, labeling, oracle)

        assert cut.threshold == small_result.cut_threshold
        assert cut.score == small_result.silhouette
        assert campaign_ids == small_result.campaign_cluster_ids
        assert (
            labeling.known_malicious_ids
            == small_result.labeling.known_malicious_ids
        )
        assert (
            suspicion.confirmed_malicious_ids
            == small_result.suspicion.confirmed_malicious_ids
        )

    def test_each_stage_opens_a_span(self, small_dataset):
        tracer = Tracer()
        miner = PushAdMiner.for_dataset(small_dataset, tracer=tracer)
        miner.run(small_dataset.valid_records)
        names = [s.name for s in tracer.root.walk()]
        for stage in (
            "pipeline", "pipeline.features", "pipeline.text_model",
            "pipeline.distances", "pipeline.linkage", "pipeline.cut",
            "pipeline.campaigns", "pipeline.labeling",
            "pipeline.metacluster", "pipeline.suspicion",
        ):
            assert stage in names

    def test_fixed_cut_threshold_respected(self, small_dataset):
        miner = PushAdMiner.for_dataset(small_dataset, cut_threshold=0.2)
        result = miner.run(small_dataset.valid_records)
        assert result.cut_threshold == 0.2

    def test_fixed_cut_scores_alike_dense_and_sparse(self, small_dataset):
        records = small_dataset.valid_records
        runs = {}
        for storage, blocking in (("dense", "none"), ("sparse", "url")):
            tracer = Tracer()
            result = PushAdMiner.for_dataset(
                small_dataset,
                tracer=tracer,
                cut_threshold=0.1,
                storage=storage,
                blocking=blocking,
            ).run(records)
            runs[storage] = (result, tracer.finish().find("pipeline.cut"))
        dense, dense_cut = runs["dense"]
        sparse, sparse_cut = runs["sparse"]
        assert sparse.silhouette.hex() == dense.silhouette.hex()
        assert sparse.labels.tobytes() == dense.labels.tobytes()
        # merges_swept counts the merges the scorer applied (heights up
        # to the cut), not the sparse linkage's placeholder tail.
        swept = int(np.sum(dense.linkage.heights() <= 0.1))
        assert dense_cut.metrics["merges_swept"] == swept
        assert sparse_cut.metrics["merges_swept"] == swept
        assert swept < len(sparse.linkage.merges)


class TestGoldenRegression:
    """run() output for the fixed small seed; guards refactors of the
    staged pipeline (and the seeded-SVD determinism fix) against drift."""

    GOLDEN_SUMMARY = {
        "wpns_clustered": 524,
        "wpn_clusters": 336,
        "singleton_clusters": 246,
        "ad_campaigns": 48,
        "wpn_ads": 241,
        "malicious_campaigns": 28,
        "malicious_ads": 138,
        "malicious_ad_pct": 57.3,
        "meta_clusters": 72,
        "suspicious_meta_clusters": 16,
        "residual_singletons": 69,
    }

    def test_summary(self, small_result):
        assert small_result.summary() == self.GOLDEN_SUMMARY

    def test_cut_threshold(self, small_result):
        assert small_result.cut_threshold == pytest.approx(
            0.17140258097139482, abs=1e-12
        )
        assert small_result.silhouette == pytest.approx(
            0.4229129568440438, abs=1e-12
        )
