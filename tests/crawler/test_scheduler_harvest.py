"""Tests for crawl scheduling, second-wave discovery, and harvesting."""

import pytest

from repro.crawler.harvest import run_full_crawl


class TestScheduler:
    def test_second_wave_sites_created(self, small_dataset):
        stats = small_dataset.desktop_stats
        assert stats.discovered_landing_urls > 0
        assert stats.second_wave_urls <= stats.discovered_landing_urls

    def test_stats_consistency(self, small_dataset):
        for stats in (small_dataset.desktop_stats, small_dataset.mobile_stats):
            assert stats.npr_urls <= stats.visited_urls
            assert stats.granted_urls == stats.npr_urls  # auto-grant
            assert stats.registered_sw_urls <= stats.npr_urls
            assert stats.notifications_valid <= stats.notifications_collected


class TestHarvest:
    def test_dataset_summary_keys(self, small_dataset):
        summary = small_dataset.summary()
        for key in ("seed_urls", "npr_urls", "collected_wpns", "valid_wpns",
                    "desktop_wpns", "mobile_wpns", "landing_domains"):
            assert key in summary

    def test_valid_subset(self, small_dataset):
        assert len(small_dataset.valid_records) <= len(small_dataset.records)
        assert all(r.valid for r in small_dataset.valid_records)

    def test_platforms_partition(self, small_dataset):
        desktop = small_dataset.records_for("desktop")
        mobile = small_dataset.records_for("mobile")
        assert len(desktop) + len(mobile) == len(small_dataset.records)
        assert desktop and mobile

    def test_wpn_ids_unique(self, small_dataset):
        ids = [r.wpn_id for r in small_dataset.records]
        assert len(ids) == len(set(ids))

    def test_desktop_validity_exceeds_mobile(self, small_dataset):
        # Paper: 77% desktop vs ~30% mobile clicks reach a landing page.
        def rate(platform):
            records = small_dataset.records_for(platform)
            return sum(r.valid for r in records) / len(records)

        assert rate("desktop") > rate("mobile") + 0.2

    def test_latency_pilot_data_present(self, small_dataset):
        latencies = small_dataset.first_latencies_min
        assert latencies
        within = sum(1 for l in latencies if l <= 15.0) / len(latencies)
        assert within > 0.9  # paper: 98% within 15 minutes

    def test_requires_config_or_ecosystem(self):
        with pytest.raises(ValueError):
            run_full_crawl()

    def test_sw_requests_from_both_platforms(self, small_dataset):
        assert small_dataset.sw_requests
        assert all(
            r.initiator == "service_worker" for r in small_dataset.sw_requests
        )
