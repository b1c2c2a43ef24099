"""Meta-clustering over shared landing domains (paper section 5.3).

Bipartite graph G = (W, D, E): W are WPN clusters, D are landing-page
eTLD+1 domains, and each cluster is connected to every domain its members
land on. Connected components of G are *meta clusters* — groups of WPN
clusters tied together by shared landing infrastructure, typically one
advertiser "operation".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.campaigns import WpnCluster
from repro.core.records import WpnRecord
from repro.util.graph import UnionFind


@dataclass
class MetaCluster:
    """One connected component: a set of WPN clusters + their domains."""

    meta_id: int
    clusters: List[WpnCluster]
    domains: Set[str]

    def __post_init__(self):
        if not self.clusters:
            raise ValueError("a meta cluster needs at least one WPN cluster")

    @property
    def cluster_ids(self) -> Set[int]:
        return {c.cluster_id for c in self.clusters}

    @property
    def records(self) -> List[WpnRecord]:
        return [r for c in self.clusters for r in c.records]

    @property
    def wpn_ids(self) -> Set[str]:
        return {r.wpn_id for c in self.clusters for r in c.records}

    @property
    def landing_urls(self) -> Set[str]:
        return {u for c in self.clusters for u in c.landing_urls}

    def edges(self) -> List[Tuple[int, str]]:
        """Bipartite edges (cluster_id, domain) inside this component."""
        out = []
        for cluster in self.clusters:
            for domain in sorted(cluster.landing_etld1s):
                out.append((cluster.cluster_id, domain))
        return out


def build_meta_clusters(clusters: Sequence[WpnCluster]) -> List[MetaCluster]:
    """Connected components of the cluster-domain bipartite graph.

    Clusters with no landing domain at all (possible only if every member
    lacked a landing page, which the valid-record filter prevents) become
    their own components.
    """
    uf = UnionFind()
    cluster_node: Dict[int, Tuple[str, int]] = {}
    for cluster in clusters:
        node = ("w", cluster.cluster_id)
        uf.add(node)
        for domain in cluster.landing_etld1s:
            uf.union(node, ("d", domain))

    groups: Dict[object, List[WpnCluster]] = {}
    for cluster in clusters:
        root = uf.find(("w", cluster.cluster_id))
        groups.setdefault(root, []).append(cluster)

    metas: List[MetaCluster] = []
    for meta_id, (root, members) in enumerate(
        sorted(groups.items(), key=lambda kv: min(c.cluster_id for c in kv[1]))
    ):
        domains: Set[str] = set()
        for cluster in members:
            domains.update(cluster.landing_etld1s)
        metas.append(MetaCluster(meta_id=meta_id, clusters=members, domains=domains))
    return metas


def meta_of_cluster(metas: Sequence[MetaCluster]) -> Dict[int, MetaCluster]:
    """Index: WPN cluster id -> its meta cluster."""
    index: Dict[int, MetaCluster] = {}
    for meta in metas:
        for cluster_id in meta.cluster_ids:
            index[cluster_id] = meta
    return index
