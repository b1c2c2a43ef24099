"""Tests for the second-wave crawl (click-discovered landing URLs)."""

import pytest

from repro import paper_scenario, run_full_crawl
from repro.crawler.engine import CrawlEngine, PlatformWave
from repro.crawler.harvest import select_mobile_sites
from repro.crawler.seeds import discover_seeds
from repro.util.rng import RngFactory
from repro.webenv.generator import generate_ecosystem


class TestSecondWave:
    def test_discovered_records_exist(self, small_dataset):
        seed_urls = {str(s.url) for s in small_dataset.ecosystem.websites}
        discovered = [
            r for r in small_dataset.records if r.source_url not in seed_urls
        ]
        # Click-discovered landing pages that prompted also pushed to us.
        assert discovered
        # They are publisher-style subscriptions on real networks.
        assert all(r.network_name is not None for r in discovered)

    def test_second_wave_stats_bounded(self, small_dataset):
        for stats in (small_dataset.desktop_stats, small_dataset.mobile_stats):
            assert stats.second_wave_urls <= stats.discovered_landing_urls

    def test_landing_prompt_rate_near_config(self):
        ecosystem = generate_ecosystem(paper_scenario(seed=19, scale=0.02))
        rng = RngFactory(19).stream("prompt-rate")
        domains = [f"probe-{i}.xyz" for i in range(800)]
        prompting = sum(ecosystem.landing_prompts(d) for d in domains)
        expected = ecosystem.config.landing_npr_rate
        assert abs(prompting / len(domains) - expected) < 0.05

    def test_landing_prompt_decision_cached(self):
        ecosystem = generate_ecosystem(paper_scenario(seed=19, scale=0.02))
        first = ecosystem.landing_prompts("stable-probe.xyz")
        for _ in range(5):
            assert ecosystem.landing_prompts("stable-probe.xyz") == first

    def test_second_wave_sites_marked(self, small_ecosystem):
        discovery = discover_seeds(small_ecosystem)
        wave = PlatformWave("desktop", tuple(discovery.npr_sites()[:40]))
        results = CrawlEngine(small_ecosystem).crawl([wave])["desktop"].results
        second_wave = [
            r for r in results if r.site.discovered_via_click
        ]
        for result in second_wave:
            assert result.site.kind == "publisher"
            assert result.site.seed_keyword == "(discovered-via-click)"


class TestEmulatedMobileCrawl:
    def test_emulator_crawl_sees_less_abuse(self):
        ecosystem = generate_ecosystem(paper_scenario(seed=31, scale=0.03))
        discovery = discover_seeds(ecosystem)

        def malicious_share(real_device):
            sites = select_mobile_sites(
                ecosystem, discovery, RngFactory(31).stream(f"mob-{real_device}")
            )
            wave = PlatformWave("mobile", tuple(sites), emulated=not real_device)
            outcome = CrawlEngine(ecosystem).crawl([wave])["mobile"]
            records = [r for result in outcome.results for r in result.records]
            ads = [r for r in records if r.truth.kind == "ad"]
            if not ads:
                return 0.0
            return sum(r.truth.malicious for r in ads) / len(ads)

        real = malicious_share(True)
        emulated = malicious_share(False)
        # The paper's observation, end to end: emulators get served far
        # fewer malicious mobile WPNs.
        assert real > emulated
