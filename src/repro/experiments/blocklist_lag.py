"""Blocklist coverage over time (paper section 6.3.2).

The paper submitted all landing URLs twice: on first scan VT flagged <1%
(108 URLs), GSB ~1%; a month later VT flagged 1,388 URLs (11.31% of the
12,262), GSB still ~1%. This experiment reruns those scans against the
model and reports the same fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blocklists.base import UrlTruth
from repro.blocklists.gsb import GoogleSafeBrowsingModel
from repro.blocklists.virustotal import VirusTotalModel
from repro.crawler.harvest import WpnDataset
from repro.util.stats import safe_ratio


@dataclass
class BlocklistLagResult:
    """VT/GSB coverage at first scan and one month later."""

    total_urls: int
    truly_malicious_urls: int
    vt_flagged_initial: int
    vt_flagged_late: int
    gsb_flagged_initial: int
    gsb_flagged_late: int

    @property
    def vt_initial_pct(self) -> float:
        return 100.0 * safe_ratio(self.vt_flagged_initial, self.total_urls)

    @property
    def vt_late_pct(self) -> float:
        return 100.0 * safe_ratio(self.vt_flagged_late, self.total_urls)

    @property
    def gsb_late_pct(self) -> float:
        return 100.0 * safe_ratio(self.gsb_flagged_late, self.total_urls)

    @property
    def vt_recall_late(self) -> float:
        """Of the truly malicious URLs, what share VT eventually flags."""
        return safe_ratio(self.vt_flagged_late, self.truly_malicious_urls)


def run_blocklist_lag(dataset: WpnDataset) -> BlocklistLagResult:
    """Scan every landing URL at month 0 and month 1."""
    valid = dataset.valid_records
    truth = UrlTruth.from_records(valid)
    config = dataset.config
    vt = VirusTotalModel(
        truth,
        seed=config.seed,
        early_rate=config.vt_early_rate,
        late_rate=config.vt_late_rate,
        fp_rate=config.vt_benign_fp_rate,
    )
    gsb = GoogleSafeBrowsingModel(truth, seed=config.seed, coverage=config.gsb_rate)

    urls = sorted({r.landing_url for r in valid if r.landing_url})
    vt_initial = sum(1 for u in urls if vt.scan(u, months_elapsed=0).flagged)
    vt_late = sum(1 for u in urls if vt.scan(u, months_elapsed=1).flagged)
    gsb_initial = sum(1 for u in urls if gsb.scan(u, months_elapsed=0).flagged)
    gsb_late = sum(1 for u in urls if gsb.scan(u, months_elapsed=1).flagged)

    return BlocklistLagResult(
        total_urls=len(urls),
        truly_malicious_urls=sum(1 for u in urls if truth.is_malicious(u)),
        vt_flagged_initial=vt_initial,
        vt_flagged_late=vt_late,
        gsb_flagged_initial=gsb_initial,
        gsb_flagged_late=gsb_late,
    )
