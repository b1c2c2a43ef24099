"""The April 2020 re-measurement (paper section 6.3.3, last paragraph).

The paper revisited 300 randomly chosen websites from the original
datasets for five days: 35 still sent notifications (305 WPNs). PushAdMiner
labeled 198 as ads and 48 as malicious (manually verified), while
VirusTotal flagged only 15 of the landing URLs — the freshness gap again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.blocklists.base import UrlTruth
from repro.blocklists.virustotal import VirusTotalModel
from repro.core.pipeline import PipelineResult, PushAdMiner
from repro.core.records import WpnRecord
from repro.crawler.engine import CrawlEngine, PlatformWave
from repro.crawler.harvest import WpnDataset
from repro.util.rng import RngFactory


@dataclass
class RevisitResult:
    """Outcome of the five-day revisit crawl."""

    revisited_sites: int
    active_sites: int
    notifications: int
    valid_notifications: int
    wpn_ads: int
    malicious_ads: int
    vt_flagged_urls: int
    pipeline: Optional[PipelineResult]


def run_revisit_experiment(
    dataset: WpnDataset,
    n_sites: int = 300,
    revisit_days: int = 5,
    survival_rate: float = 0.33,
) -> RevisitResult:
    """Re-crawl a random sample of the original NPR sites months later.

    ``survival_rate`` models churn: many sites that notified during the
    main study have stopped (dead campaigns, expired domains) by the
    revisit — the paper saw 35 of 300 still active.
    """
    ecosystem = dataset.ecosystem
    rng = RngFactory(ecosystem.config.seed).child("revisit").stream("sample")

    candidates = dataset.discovery.npr_sites()
    sample = candidates if len(candidates) <= n_sites else rng.sample(candidates, n_sites)

    # Churn: most previously-active notifiers have gone quiet.
    revisit_sites = []
    for site in sample:
        active = site.active_notifier and rng.random() < survival_rate
        revisit_sites.append(replace_site_activity(site, active))

    short_config = replace(ecosystem.config, study_days=revisit_days)
    original_config = ecosystem.config
    ecosystem.config = short_config
    try:
        wave = PlatformWave(platform="desktop", sites=tuple(revisit_sites))
        results = CrawlEngine(ecosystem).crawl([wave])["desktop"].results
    finally:
        ecosystem.config = original_config

    records: List[WpnRecord] = [r for res in results for r in res.records]
    active_sites = sum(1 for res in results if res.records and not res.site.discovered_via_click)
    valid = [r for r in records if r.valid]

    pipeline_result = None
    wpn_ads = malicious = 0
    if len(valid) >= 4:
        miner = PushAdMiner.for_dataset(dataset, months_elapsed=0)
        pipeline_result = miner.run(valid)
        wpn_ads = len(pipeline_result.all_ad_ids)
        malicious = len(pipeline_result.malicious_ad_ids)

    # Fresh campaigns, fresh URLs: VT coverage is back at its early rate.
    truth = UrlTruth.from_records(valid)
    vt = VirusTotalModel(
        truth,
        seed=ecosystem.config.seed,
        early_rate=ecosystem.config.vt_early_rate,
        late_rate=ecosystem.config.vt_late_rate,
        fp_rate=ecosystem.config.vt_benign_fp_rate,
    )
    flagged = sum(
        1
        for url in {r.landing_url for r in valid if r.landing_url}
        if vt.scan(url, months_elapsed=0).flagged
    )

    return RevisitResult(
        revisited_sites=len(sample),
        active_sites=active_sites,
        notifications=len(records),
        valid_notifications=len(valid),
        wpn_ads=wpn_ads,
        malicious_ads=malicious,
        vt_flagged_urls=flagged,
        pipeline=pipeline_result,
    )


def replace_site_activity(site, active: bool):
    """Copy a website with its notifier activity overridden."""
    return replace(site, active_notifier=active)
