"""WPN clusters and the ad-campaign rule (paper sections 5.1 / 6.3.1).

A cluster of similar WPNs is a *WPN ad campaign* when its messages were
pushed by more than one distinct effective second-level source domain —
advertisers publish across sites, while site alerts stay on one source.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Sequence, Set

import numpy as np

from repro.core.records import WpnRecord


@dataclass
class WpnCluster:
    """One flat cluster of WPN records.

    The source domains, landing domains and WPN ids are built once per
    cluster, on first read, and kept as frozensets: the verdict stages and
    the snapshot export ask each cluster for them many times. ``records``
    is therefore not mutated after construction.
    """

    cluster_id: int
    records: List[WpnRecord]

    def __post_init__(self):
        if not self.records:
            raise ValueError("a cluster needs at least one record")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def is_singleton(self) -> bool:
        return len(self.records) == 1

    @cached_property
    def source_etld1s(self) -> FrozenSet[str]:
        """Distinct second-level domains of the notifying websites."""
        return frozenset(r.source_etld1 for r in self.records)

    @cached_property
    def landing_etld1s(self) -> FrozenSet[str]:
        return frozenset(
            r.landing_etld1 for r in self.records if r.landing_etld1
        )

    @property
    def landing_urls(self) -> Set[str]:
        return {r.landing_url for r in self.records if r.landing_url}

    @cached_property
    def wpn_ids(self) -> FrozenSet[str]:
        return frozenset(r.wpn_id for r in self.records)

    def titles(self) -> List[str]:
        return [r.title for r in self.records]


def build_clusters(
    records: Sequence[WpnRecord], labels: np.ndarray
) -> List[WpnCluster]:
    """Group records by flat cluster label; clusters ordered by id."""
    if len(records) != len(labels):
        raise ValueError("records and labels must align")
    grouped: Dict[int, List[WpnRecord]] = {}
    for record, label in zip(records, labels):
        grouped.setdefault(int(label), []).append(record)
    return [
        WpnCluster(cluster_id=cid, records=members)
        for cid, members in sorted(grouped.items())
    ]


def is_ad_campaign(cluster: WpnCluster) -> bool:
    """The paper's rule: pushed by >1 distinct second-level source domain."""
    return len(cluster.source_etld1s) > 1


def ad_campaign_clusters(clusters: Sequence[WpnCluster]) -> List[WpnCluster]:
    return [c for c in clusters if is_ad_campaign(c)]


def singleton_clusters(clusters: Sequence[WpnCluster]) -> List[WpnCluster]:
    return [c for c in clusters if c.is_singleton]
