"""Harvesting: assemble session outputs into the WPN dataset.

``run_full_crawl`` is the one-call entry point the examples and benchmarks
use: generate (or accept) an ecosystem, discover seeds, run the desktop and
mobile crawls, and return a :class:`WpnDataset` ready for the analysis
pipeline.

The crawl itself runs on the wave-structured
:class:`repro.crawler.engine.CrawlEngine`: both platforms' seed sessions
form wave 1, click-discovered landing sessions form wave 2, and each wave
is executed as static shards over ``crawl_workers`` processes. Because
every session is a pure kernel keyed by ``(seed, platform, url)`` and
shard results are reduced in canonical order, the returned dataset is
byte-identical for any worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.browser.network import NetworkRequest
from repro.core.records import WpnRecord
from repro.crawler.engine import CrawlEngine, CrawlStats, PlatformWave
from repro.crawler.seeds import SeedDiscovery, discover_seeds
from repro.crawler.session import SessionResult
from repro.obs import Tracer
from repro.util.rng import RngFactory
from repro.webenv.generator import WebEcosystem, generate_ecosystem
from repro.webenv.scenario import ScenarioConfig
from repro.webenv.website import Website


@dataclass
class WpnDataset:
    """The collected corpus plus everything the measurement tables need."""

    ecosystem: WebEcosystem
    discovery: SeedDiscovery
    records: List[WpnRecord]
    desktop_stats: CrawlStats
    mobile_stats: CrawlStats
    sw_requests: List[NetworkRequest] = field(default_factory=list)
    first_latencies_min: List[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def config(self) -> ScenarioConfig:
        return self.ecosystem.config

    @property
    def valid_records(self) -> List[WpnRecord]:
        """WPNs whose click reached an analyzable landing page (the 12,262
        of the paper); this is the clustering input."""
        return [r for r in self.records if r.valid]

    def records_for(self, platform: str) -> List[WpnRecord]:
        return [r for r in self.records if r.platform == platform]

    @property
    def landing_domains(self) -> Set[str]:
        """Distinct landing eTLD+1 across valid records."""
        return {
            r.landing_etld1 for r in self.valid_records if r.landing_etld1
        }

    def npr_domain_count(self) -> int:
        return len(self.discovery.npr_domains())

    def summary(self) -> Dict[str, int]:
        """Headline crawl counters (pre-analysis)."""
        return {
            "seed_urls": self.discovery.total_urls,
            "npr_urls": self.discovery.total_nprs,
            "npr_domains": self.npr_domain_count(),
            "collected_wpns": len(self.records),
            "desktop_wpns": len(self.records_for("desktop")),
            "mobile_wpns": len(self.records_for("mobile")),
            "valid_wpns": len(self.valid_records),
            "landing_domains": len(self.landing_domains),
            "discovered_urls": (
                self.desktop_stats.discovered_landing_urls
                + self.mobile_stats.discovered_landing_urls
            ),
        }


def _collect(results: List[SessionResult], dataset: WpnDataset) -> None:
    for result in results:
        dataset.records.extend(result.records)
        dataset.sw_requests.extend(result.sw_requests)
        if result.first_latency_min is not None:
            dataset.first_latencies_min.append(result.first_latency_min)


def _record_platform_stats(span, stats: CrawlStats) -> None:
    """Copy a platform's :class:`CrawlStats` counters onto its span."""
    span.gauge("sessions", stats.visited_urls)
    span.gauge("npr_urls", stats.npr_urls)
    span.gauge("registered_sw_urls", stats.registered_sw_urls)
    span.gauge("discovered_landing_urls", stats.discovered_landing_urls)
    span.gauge("second_wave_urls", stats.second_wave_urls)
    span.gauge("notifications_collected", stats.notifications_collected)
    span.gauge("notifications_valid", stats.notifications_valid)
    span.gauge("live_deliveries", stats.live_deliveries)
    span.gauge("queued_deliveries", stats.queued_deliveries)


def select_mobile_sites(
    ecosystem: WebEcosystem, discovery: SeedDiscovery, rng: random.Random
) -> List[Website]:
    """The NPR-site sample the single mobile device has capacity to monitor.

    The paper ran one physical Nexus 5 (emulators get served fewer
    malicious WPNs), which cannot parallelize like the Docker farm, so it
    visits only ``mobile_visit_fraction`` of the sites the desktop crawl
    saw prompt.
    """
    candidates = discovery.npr_sites()
    count = int(round(len(candidates) * ecosystem.config.mobile_visit_fraction))
    if count >= len(candidates):
        return list(candidates)
    return rng.sample(candidates, count)


def run_full_crawl(
    config: Optional[ScenarioConfig] = None,
    ecosystem: Optional[WebEcosystem] = None,
    tracer: Optional[Tracer] = None,
    crawl_workers: int = 1,
    shard_size: Optional[int] = None,
) -> WpnDataset:
    """Generate the world (unless given), seed, and crawl it end to end.

    ``crawl_workers`` fans crawl shards out to that many processes (desktop
    and mobile crawl concurrently); the dataset is byte-identical for any
    value. ``tracer`` (optional) records a ``crawl`` span tree — world
    generation, seed discovery, the two crawl waves with shard counters,
    and per-platform session/delivery gauges — without affecting the
    dataset.
    """
    tracer = tracer if tracer is not None else Tracer()
    with tracer.span("crawl") as crawl_span:
        if ecosystem is None:
            if config is None:
                raise ValueError("provide a config or a pre-built ecosystem")
            ecosystem = generate_ecosystem(config, tracer=tracer)
        rngs = RngFactory(ecosystem.config.seed).child("crawl")

        with tracer.span("crawl.seeds") as seed_span:
            discovery = discover_seeds(ecosystem)
            seed_span.gauge("seed_urls", discovery.total_urls)
            seed_span.gauge("npr_urls", discovery.total_nprs)

        # The mobile sample is drawn from a named stream before any
        # sharding, so it is worker-count independent.
        mobile_sites = select_mobile_sites(
            ecosystem, discovery, rngs.stream("mobile")
        )
        waves = [
            PlatformWave(platform="desktop", sites=tuple(discovery.seed_sites)),
            PlatformWave(platform="mobile", sites=tuple(mobile_sites)),
        ]

        engine = CrawlEngine(
            ecosystem,
            workers=crawl_workers,
            shard_size=shard_size,
            tracer=tracer,
        )
        outcomes = engine.crawl(waves)
        desktop_stats = outcomes["desktop"].stats
        mobile_stats = outcomes["mobile"].stats

        with tracer.span("crawl.desktop") as desktop_span:
            _record_platform_stats(desktop_span, desktop_stats)
        with tracer.span("crawl.mobile") as mobile_span:
            _record_platform_stats(mobile_span, mobile_stats)

        dataset = WpnDataset(
            ecosystem=ecosystem,
            discovery=discovery,
            records=[],
            desktop_stats=desktop_stats,
            mobile_stats=mobile_stats,
        )
        _collect(outcomes["desktop"].results, dataset)
        _collect(outcomes["mobile"].results, dataset)
        crawl_span.gauge("records", len(dataset.records))
        crawl_span.gauge("valid_records", len(dataset.valid_records))
        crawl_span.gauge("crawl_workers", crawl_workers)
    return dataset
