"""Suspicious-ad discovery over meta clusters (paper section 5.4).

Three rules, applied after meta-clustering:

1. **Ad propagation** — a meta cluster containing at least one WPN ad
   campaign makes every WPN in the component an ad (they share landing
   infrastructure with confirmed push-advertising).
2. **Malicious association** — a meta cluster containing a known-malicious
   landing URL (or a cluster already labeled malicious) makes its other,
   not-yet-labeled clusters *suspicious*.
3. **Duplicate ads** — ad-policy abuse: the same campaign content pointing
   at multiple landing domains; meta clusters exhibiting it are suspicious.

Suspicious WPNs then go to manual verification (the paper confirmed 86.5%
of 1,479 as malicious; the remainder were benign duplicate-ad look-alikes:
job boards, horoscopes, adult sites, welcome pages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Set

from repro.core.campaigns import WpnCluster, is_ad_campaign
from repro.core.labeling import LabelingResult
from repro.core.metacluster import MetaCluster
from repro.core.records import WpnRecord
from repro.core.verification import ManualVerificationOracle


@dataclass
class SuspicionResult:
    """Everything the meta-cluster suspicion stage produces."""

    ad_related_meta_ids: Set[int] = field(default_factory=set)
    additional_ad_ids: Set[str] = field(default_factory=set)
    known_malicious_additional_ad_ids: Set[str] = field(default_factory=set)
    suspicious_meta_ids: Set[int] = field(default_factory=set)
    duplicate_ad_campaign_cluster_ids: Set[int] = field(default_factory=set)
    suspicious_campaign_cluster_ids: Set[int] = field(default_factory=set)
    suspicious_wpn_ids: Set[str] = field(default_factory=set)
    confirmed_malicious_ids: Set[str] = field(default_factory=set)
    unconfirmed_ids: Set[str] = field(default_factory=set)


def cluster_has_duplicate_ads(cluster: WpnCluster) -> bool:
    """Same campaign content leading to multiple landing domains."""
    return is_ad_campaign(cluster) and len(cluster.landing_etld1s) > 1


def find_suspicious(
    metas: Sequence[MetaCluster],
    labeling: LabelingResult,
    oracle: ManualVerificationOracle,
) -> SuspicionResult:
    """Apply the section-5.4 rules over all meta clusters."""
    result = SuspicionResult()

    for meta in metas:
        campaign_clusters = [c for c in meta.clusters if is_ad_campaign(c)]
        non_campaign_clusters = [c for c in meta.clusters if not is_ad_campaign(c)]

        # Rule 1: ad-ness propagates through shared landing domains.
        if campaign_clusters and non_campaign_clusters:
            result.ad_related_meta_ids.add(meta.meta_id)
            for cluster in non_campaign_clusters:
                for record in cluster.records:
                    result.additional_ad_ids.add(record.wpn_id)
                    if record.wpn_id in labeling.known_malicious_ids:
                        result.known_malicious_additional_ad_ids.add(record.wpn_id)

        # Rule 3: duplicate ads inside this component.
        duplicates = {
            c.cluster_id for c in campaign_clusters if cluster_has_duplicate_ads(c)
        }
        result.duplicate_ad_campaign_cluster_ids.update(duplicates)

        # Rule 2 + 3: is the component suspicious?
        has_known_malicious = any(
            r.wpn_id in labeling.known_malicious_ids for r in meta.records
        ) or any(
            c.cluster_id in labeling.malicious_cluster_ids for c in meta.clusters
        )
        if has_known_malicious or duplicates:
            result.suspicious_meta_ids.add(meta.meta_id)
            for cluster in meta.clusters:
                if is_ad_campaign(cluster) and (
                    cluster.cluster_id not in labeling.malicious_cluster_ids
                ):
                    result.suspicious_campaign_cluster_ids.add(cluster.cluster_id)
            for record in meta.records:
                already = (
                    record.wpn_id in labeling.known_malicious_ids
                    or record.wpn_id in labeling.propagated_confirmed_ids
                    or record.wpn_id in labeling.propagated_unconfirmed_ids
                )
                if not already:
                    result.suspicious_wpn_ids.add(record.wpn_id)

    # Manual verification of every suspicious WPN.
    id_to_record: Dict[str, WpnRecord] = {
        r.wpn_id: r for meta in metas for r in meta.records
    }
    for wpn_id in sorted(result.suspicious_wpn_ids):
        record = id_to_record[wpn_id]
        if oracle.confirm_malicious(record):
            result.confirmed_malicious_ids.add(wpn_id)
        else:
            result.unconfirmed_ids.add(wpn_id)
    return result
