"""Malicious-cluster labeling (paper section 5.2).

Steps:

1. Submit every landing-page URL to Google Safe Browsing and VirusTotal.
2. A WPN whose full landing URL is flagged by either becomes a *candidate*
   known-malicious WPN; the manual oracle weeds out blocklist false
   positives (the paper confirmed 96.8% of 1,388 flags).
3. Guilt-by-association: any cluster containing >= 1 known-malicious WPN is
   labeled a malicious cluster; its other members become propagated
   candidates, which the oracle verifies as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Set

from repro.blocklists.gsb import GoogleSafeBrowsingModel
from repro.blocklists.virustotal import VirusTotalModel
from repro.core.campaigns import WpnCluster
from repro.core.verification import ManualVerificationOracle


@dataclass
class LabelingResult:
    """All labels produced by the blocklist + propagation stage."""

    flagged_urls: Set[str] = field(default_factory=set)
    flagged_candidate_ids: Set[str] = field(default_factory=set)
    known_malicious_ids: Set[str] = field(default_factory=set)
    blocklist_fp_ids: Set[str] = field(default_factory=set)
    malicious_cluster_ids: Set[int] = field(default_factory=set)
    propagated_confirmed_ids: Set[str] = field(default_factory=set)
    propagated_unconfirmed_ids: Set[str] = field(default_factory=set)

    @property
    def confirmed_malicious_ids(self) -> Set[str]:
        """Known malicious + propagated-and-confirmed WPN ids."""
        return self.known_malicious_ids | self.propagated_confirmed_ids


def label_malicious_clusters(
    clusters: Sequence[WpnCluster],
    virustotal: VirusTotalModel,
    gsb: GoogleSafeBrowsingModel,
    oracle: ManualVerificationOracle,
    months_elapsed: int = 1,
) -> LabelingResult:
    """Run the full section-5.2 labeling over all clusters."""
    result = LabelingResult()

    # Scan every full landing URL, once.
    urls: Set[str] = set()
    for cluster in clusters:
        urls.update(cluster.landing_urls)
    for url in sorted(urls):
        vt = virustotal.scan(url, months_elapsed=months_elapsed)
        g = gsb.scan(url, months_elapsed=months_elapsed)
        if vt.flagged or g.flagged:
            result.flagged_urls.add(url)

    # Candidates = WPNs whose landing URL was flagged; manual FP filtering.
    for cluster in clusters:
        for record in cluster.records:
            if record.landing_url in result.flagged_urls:
                result.flagged_candidate_ids.add(record.wpn_id)
                if oracle.confirm_malicious(record):
                    result.known_malicious_ids.add(record.wpn_id)
                else:
                    result.blocklist_fp_ids.add(record.wpn_id)

    # Guilt by association within each cluster.
    for cluster in clusters:
        members_known = [
            r for r in cluster.records if r.wpn_id in result.known_malicious_ids
        ]
        if not members_known:
            continue
        result.malicious_cluster_ids.add(cluster.cluster_id)
        for record in cluster.records:
            if record.wpn_id in result.known_malicious_ids:
                continue
            if oracle.confirm_malicious(record):
                result.propagated_confirmed_ids.add(record.wpn_id)
            else:
                result.propagated_unconfirmed_ids.add(record.wpn_id)

    return result
