"""Measurement tables and figures (paper section 6).

Builders for every table and figure of the evaluation, each returning plain
data structures (lists of rows / dicts) plus an ASCII renderer, so the
benchmarks can print the same rows the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # crawler sits above core in the package DAG
    import networkx as nx

    from repro.crawler.harvest import WpnDataset
    from repro.crawler.seeds import SeedDiscovery

from repro.core.campaigns import WpnCluster, is_ad_campaign
from repro.core.pipeline import PipelineResult
from repro.util.stats import empirical_cdf

#: iZooto's standard push-ad CPM in USD (paper's ethics section).
STANDARD_CPM_USD = 2.54


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain ASCII table (the benchmarks print these)."""
    table = [list(map(str, headers))] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 1 / Table 2 (crawl seeding)
# ----------------------------------------------------------------------
def table1_rows(discovery: SeedDiscovery) -> List[Tuple[str, int, int]]:
    """(seed name, URLs found, NPRs) per Table 1 row, plus the total."""
    rows = [(r.name, r.urls_found, r.npr_count) for r in discovery.rows]
    rows.append(("Total", discovery.total_urls, discovery.total_nprs))
    return rows


def table2_rows(dataset: WpnDataset) -> List[Tuple[str, int]]:
    """Alexa-rank bucket breakdown of the NPR domains."""
    popularity = dataset.ecosystem.popularity
    domains = sorted(dataset.discovery.npr_domains())
    for domain in domains:
        popularity.assign(f"www.{domain}" if "." not in domain else domain)
    return popularity.bucket_breakdown(domains)


# ----------------------------------------------------------------------
# Table 3 / Table 4 (analysis summary)
# ----------------------------------------------------------------------
def table3_summary(dataset: WpnDataset, result: PipelineResult) -> Dict[str, object]:
    """The headline Table 3 numbers: collection + analysis combined."""
    crawl = dataset.summary()
    analysis = result.summary()
    return {
        "collected_wpns": crawl["collected_wpns"],
        "desktop_wpns": crawl["desktop_wpns"],
        "mobile_wpns": crawl["mobile_wpns"],
        "valid_wpns": crawl["valid_wpns"],
        "wpn_ad_campaigns": analysis["ad_campaigns"],
        "wpn_ads": analysis["wpn_ads"],
        "malicious_campaigns": analysis["malicious_campaigns"],
        "malicious_ads": analysis["malicious_ads"],
        "malicious_ad_pct": analysis["malicious_ad_pct"],
    }


def table4_rows(result: PipelineResult) -> List[Tuple[str, int, int, int, int, int]]:
    return [
        (
            row.stage,
            row.n_clusters,
            row.n_ad_related,
            row.n_wpn_ads,
            row.n_known_malicious,
            row.n_additional_malicious,
        )
        for row in result.stage_rows()
    ]


# ----------------------------------------------------------------------
# Table 5 (residual singleton examples)
# ----------------------------------------------------------------------
def table5_singletons(
    result: PipelineResult, sample: int = 10
) -> List[Tuple[str, str, str]]:
    """(title, landing domain, analyst read) for residual singletons."""
    rows = []
    for cluster in result.residual_singleton_clusters[:sample]:
        record = cluster.records[0]
        verdict = (
            "spurious suspicious ad"
            if result.oracle.matched_factors(record)
            else "simple alert"
        )
        rows.append((record.title, record.landing_etld1 or "-", verdict))
    return rows


# ----------------------------------------------------------------------
# Figure 4 (example WPN clusters)
# ----------------------------------------------------------------------
@dataclass
class ClusterExample:
    """One Figure 4 panel."""

    label: str
    cluster: WpnCluster
    description: str

    def sample_messages(self, n: int = 3) -> List[Tuple[str, str, str]]:
        return [
            (r.source_etld1, r.title, r.landing_etld1 or "-")
            for r in self.cluster.records[:n]
        ]


def fig4_cluster_examples(result: PipelineResult) -> List[ClusterExample]:
    """Find analogues of WPN-C1..C4: malicious multi-source campaign,
    duplicate-ads campaign missed by blocklists, single-source alert
    cluster, and a singleton."""
    examples: List[ClusterExample] = []
    known = result.labeling.known_malicious_ids

    campaign_clusters = [
        c for c in result.clusters if c.cluster_id in result.campaign_cluster_ids
    ]
    flagged = [c for c in campaign_clusters if c.wpn_ids & known]
    if flagged:
        c1 = max(flagged, key=len)
        examples.append(
            ClusterExample(
                "WPN-C1",
                c1,
                "ad campaign from multiple sources, flagged by blocklists",
            )
        )
    unflagged = [
        c
        for c in campaign_clusters
        if not (c.wpn_ids & known) and len(c.landing_etld1s) > 1
    ]
    if unflagged:
        c2 = max(unflagged, key=len)
        examples.append(
            ClusterExample(
                "WPN-C2",
                c2,
                "duplicate-ads campaign entirely missed by URL blocklists",
            )
        )
    single_source = [
        c
        for c in result.clusters
        if not c.is_singleton and len(c.source_etld1s) == 1
    ]
    if single_source:
        c3 = max(single_source, key=len)
        examples.append(
            ClusterExample(
                "WPN-C3", c3, "repeated self alerts from a single source site"
            )
        )
    singles = [c for c in result.clusters if c.is_singleton]
    if singles:
        examples.append(
            ClusterExample("WPN-C4", singles[0], "an isolated one-off message")
        )
    return examples


# ----------------------------------------------------------------------
# Figure 5 (meta-cluster graphs)
# ----------------------------------------------------------------------
def fig5_meta_graphs(result: PipelineResult, top: int = 2) -> List["nx.Graph"]:
    """The ``top`` largest suspicious meta clusters as networkx bipartite
    graphs (WPN-cluster nodes vs landing-domain nodes)."""
    import networkx as nx

    suspicious = [
        m for m in result.metas if m.meta_id in result.suspicion.suspicious_meta_ids
    ]
    suspicious.sort(key=lambda m: (-len(m.clusters), m.meta_id))
    graphs = []
    for meta in suspicious[:top]:
        graph = nx.Graph()
        for cluster in meta.clusters:
            node = f"W{cluster.cluster_id}"
            graph.add_node(
                node,
                bipartite="cluster",
                size=len(cluster),
                campaign=is_ad_campaign(cluster),
            )
        for cluster_id, domain in meta.edges():
            graph.add_node(domain, bipartite="domain")
            graph.add_edge(f"W{cluster_id}", domain)
        graphs.append(graph)
    return graphs


# ----------------------------------------------------------------------
# Figure 6 (WPN ads per ad network)
# ----------------------------------------------------------------------
def fig6_network_distribution(
    result: PipelineResult,
) -> List[Tuple[str, int, int]]:
    """(network, #WPN ads, #malicious WPN ads), descending by ad count."""
    ads = result.all_ad_ids
    malicious = result.malicious_ad_ids
    by_network: Dict[str, List[int]] = {}
    for record in result.records:
        if record.wpn_id not in ads:
            continue
        name = record.network_name or "(site-owned SW)"
        entry = by_network.setdefault(name, [0, 0])
        entry[0] += 1
        if record.wpn_id in malicious:
            entry[1] += 1
    rows = [(name, c[0], c[1]) for name, c in by_network.items()]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


# ----------------------------------------------------------------------
# Ethics: advertiser click-cost accounting
# ----------------------------------------------------------------------
@dataclass
class CostReport:
    """CPM-based estimate of what our clicks cost legitimate advertisers."""

    per_domain_visits: Dict[str, int]
    cpm_usd: float = STANDARD_CPM_USD

    @property
    def max_cost_usd(self) -> float:
        if not self.per_domain_visits:
            return 0.0
        return max(self.per_domain_visits.values()) * self.cpm_usd / 1000.0

    @property
    def mean_visits(self) -> float:
        if not self.per_domain_visits:
            return 0.0
        visits = list(self.per_domain_visits.values())
        return sum(visits) / len(visits)

    @property
    def mean_cost_usd(self) -> float:
        return self.mean_visits * self.cpm_usd / 1000.0


def advertiser_cost_report(result: PipelineResult) -> CostReport:
    """Cost to *legitimate* advertisers (malicious landing pages excluded,
    as in the paper's ethics accounting)."""
    malicious = result.malicious_ad_ids
    visits: Dict[str, int] = {}
    for record in result.records:
        domain = record.landing_etld1
        if domain is None or record.wpn_id in malicious:
            continue
        visits[domain] = visits.get(domain, 0) + 1
    return CostReport(per_domain_visits=visits)


# ----------------------------------------------------------------------
# Pilot: first-notification latency
# ----------------------------------------------------------------------
def latency_report(
    first_latencies_min: Sequence[float],
    window_min: float = 15.0,
) -> Dict[str, float]:
    """Share of sites whose first WPN arrived within the live window."""
    if not first_latencies_min:
        return {"sites": 0, "within_window_pct": 0.0}
    points = [1.0, 5.0, window_min, 60.0, 24 * 60.0]
    cdf = empirical_cdf(list(first_latencies_min), points)
    within = cdf[points.index(window_min)]
    return {
        "sites": len(first_latencies_min),
        "within_window_pct": round(100.0 * within, 1),
        "cdf_minutes": dict(zip(points, [round(c, 3) for c in cdf])),
    }


# ----------------------------------------------------------------------
# One-call markdown summary
# ----------------------------------------------------------------------
def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "| " + " | ".join(map(str, headers)) + " |"
    sep = "|" + "|".join("---" for _ in headers) + "|"
    body = "\n".join("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return "\n".join([head, sep, body])


def summary_markdown(dataset: WpnDataset, result: PipelineResult) -> str:
    """A compact Markdown report of the run: Tables 3/4 + Figure 6 data.

    Intended for dropping into issues/readmes; the CLI's
    ``analyze --markdown`` writes it to disk.
    """
    lines = ["# PushAdMiner run summary", ""]
    config = dataset.config
    lines.append(
        f"Scenario: seed={config.seed}, scale={config.scale}, "
        f"{config.study_days}-day study."
    )

    lines += ["", "## Table 3 — summary of findings", ""]
    lines.append(_markdown_table(
        ["metric", "value"], list(table3_summary(dataset, result).items())
    ))

    lines += ["", "## Table 4 — results per clustering stage", ""]
    lines.append(_markdown_table(
        ["stage", "#clusters", "#ad-related", "#WPN ads",
         "#known malicious", "#additional malicious"],
        table4_rows(result),
    ))

    lines += ["", "## Figure 6 — WPN ads per ad network", ""]
    lines.append(_markdown_table(
        ["ad network", "#WPN ads", "#malicious"],
        fig6_network_distribution(result),
    ))

    cost = advertiser_cost_report(result)
    lines += [
        "",
        f"Advertiser click-cost estimate (CPM ${cost.cpm_usd}): max "
        f"${cost.max_cost_usd:.3f}, mean ${cost.mean_cost_usd:.4f} per "
        f"legitimate landing domain.",
        "",
    ]
    return "\n".join(lines)
