"""Worker-count invariance of the sharded crawl engine.

The engine's contract is byte-identity: the serialized dataset, the crawl
stats, and the full downstream PushAdMiner summary must not change with the
number of crawl workers or the shard size. These tests also pin the
regression that motivated per-session id derivation — a process-global WPN
counter once made back-to-back crawls of the same scenario disagree on
``wpn_id`` while every other field matched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import PushAdMiner, paper_scenario, run_full_crawl

SEED = 11
SCALE = 0.02

#: sha256 of ``_dataset_bytes`` / ``_stats_bytes`` at ``(SEED, SCALE)``,
#: pinned before sessions without a prompt stopped building a browser.
DATASET_SHA256 = "c30be347bdb5ec33580d41696f51cbe81b11e42823bdf1403556632b84a292b2"
STATS_SHA256 = "1dfcf497c398efc794f4f92932dbcd63d3bbad9ccc88441a9d80280184339445"


def _dataset_bytes(dataset) -> str:
    """Canonical serialization of every record, id included."""
    return json.dumps(
        [dataclasses.asdict(r) for r in dataset.records], sort_keys=True
    )


def _stats_bytes(dataset) -> str:
    return json.dumps(
        [
            dataclasses.asdict(dataset.desktop_stats),
            dataclasses.asdict(dataset.mobile_stats),
        ],
        sort_keys=True,
    )


def _miner_summary(dataset):
    return PushAdMiner.for_dataset(dataset).run(dataset.valid_records).summary()


@pytest.fixture(scope="module")
def serial_dataset():
    return run_full_crawl(
        config=paper_scenario(seed=SEED, scale=SCALE), crawl_workers=1
    )


class TestBackToBackDeterminism:
    def test_repeated_crawls_are_byte_identical(self, serial_dataset):
        # Regression: a process-global WPN counter kept ticking across
        # crawls, so a second crawl in the same interpreter minted
        # different wpn_ids. Ids now derive from (platform, url, index).
        again = run_full_crawl(config=paper_scenario(seed=SEED, scale=SCALE))
        assert _dataset_bytes(again) == _dataset_bytes(serial_dataset)
        assert _stats_bytes(again) == _stats_bytes(serial_dataset)

    def test_wpn_ids_derive_from_session_not_process(self, serial_dataset):
        from repro.crawler.session import session_key

        for record in serial_dataset.records[:50]:
            key = session_key(record.platform, record.source_url)
            assert record.wpn_id.startswith(f"wpn-{key}-")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedCrawl:
    def test_dataset_and_stats_digests(self, serial_dataset):
        assert _sha256(_dataset_bytes(serial_dataset)) == DATASET_SHA256
        assert _sha256(_stats_bytes(serial_dataset)) == STATS_SHA256

    def test_digests_survive_derived_reads(self, serial_dataset):
        # Records cache their derived observables outside the dataclass
        # fields, so reading them never moves the serialized bytes.
        derived = [
            (r.source_etld1, r.landing_etld1, r.features if r.valid else None)
            for r in serial_dataset.records
        ]
        assert all(source for source, _, _ in derived)
        assert _sha256(_dataset_bytes(serial_dataset)) == DATASET_SHA256
        assert _sha256(_stats_bytes(serial_dataset)) == STATS_SHA256

    @pytest.mark.no_detsan  # counts browsers built; DetSan's tile
    # verification reruns every crawl shard once more
    def test_only_prompting_sessions_build_a_browser(self, monkeypatch):
        import repro.crawler.session as session_module

        built = []
        real = session_module.InstrumentedBrowser

        def counting(*args, **kwargs):
            built.append(kwargs["platform"])
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "InstrumentedBrowser", counting)
        dataset = run_full_crawl(
            config=paper_scenario(seed=SEED, scale=SCALE), crawl_workers=1
        )
        stats = (dataset.desktop_stats, dataset.mobile_stats)
        assert sum(s.visited_urls for s in stats) == 1843
        assert len(built) == sum(s.npr_urls for s in stats) == 208
        assert set(built) == {"desktop", "mobile"}
        assert _sha256(_dataset_bytes(dataset)) == DATASET_SHA256


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_dataset_and_stats_invariant(self, serial_dataset, workers):
        sharded = run_full_crawl(
            config=paper_scenario(seed=SEED, scale=SCALE),
            crawl_workers=workers,
            shard_size=3,
        )
        assert _dataset_bytes(sharded) == _dataset_bytes(serial_dataset)
        assert _stats_bytes(sharded) == _stats_bytes(serial_dataset)
        assert sharded.summary() == serial_dataset.summary()

    def test_both_platforms_covered(self, serial_dataset):
        platforms = {r.platform for r in serial_dataset.records}
        assert platforms == {"desktop", "mobile"}

    def test_downstream_summary_invariant(self, serial_dataset):
        sharded = run_full_crawl(
            config=paper_scenario(seed=SEED, scale=SCALE),
            crawl_workers=2,
            shard_size=4,
        )
        assert _miner_summary(sharded) == _miner_summary(serial_dataset)

    def test_shard_size_invariant(self, serial_dataset):
        odd_shards = run_full_crawl(
            config=paper_scenario(seed=SEED, scale=SCALE),
            crawl_workers=1,
            shard_size=1,
        )
        assert _dataset_bytes(odd_shards) == _dataset_bytes(serial_dataset)


class TestEngineUnits:
    def test_rejects_bad_workers(self, small_ecosystem):
        from repro.crawler.engine import CrawlEngine

        with pytest.raises(ValueError):
            CrawlEngine(small_ecosystem, workers=0)
        with pytest.raises(ValueError):
            CrawlEngine(small_ecosystem, shard_size=0)

    def test_rejects_duplicate_platforms(self, small_ecosystem):
        from repro.crawler.engine import CrawlEngine, PlatformWave

        engine = CrawlEngine(small_ecosystem)
        waves = [
            PlatformWave(platform="desktop", sites=()),
            PlatformWave(platform="desktop", sites=()),
        ]
        with pytest.raises(ValueError):
            engine.crawl(waves)

    def test_rejects_unknown_platform(self):
        from repro.crawler.engine import PlatformWave

        with pytest.raises(ValueError):
            PlatformWave(platform="vr", sites=())

    def test_wave_spans_recorded(self):
        from repro.obs import Tracer

        tracer = Tracer()
        run_full_crawl(
            config=paper_scenario(seed=SEED, scale=0.015), tracer=tracer
        )
        names = [s.name for s in tracer.root.walk()]
        assert "crawl.wave1" in names
        assert "crawl.wave2" in names
