"""Seeding the WPN crawler from the code-search engine.

Mirrors paper section 6.1.1: search publicwww for each of the 19 keywords
(15 ad-network SDK markers + 4 generic push-API strings), keep HTTPS URLs,
then visit each to learn which actually request notification permission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.webenv.adnetworks import ALL_SEEDS
from repro.util.domains import effective_second_level_domain
from repro.webenv.generator import WebEcosystem
from repro.webenv.website import Website


@dataclass
class SeedRow:
    """One Table 1 row: keyword, URLs found, NPRs observed when visited."""

    name: str
    is_generic_keyword: bool
    urls_found: int
    npr_count: int = 0

    def register_npr(self) -> None:
        self.npr_count += 1


@dataclass
class SeedDiscovery:
    """The result of the code-search seeding step."""

    rows: List[SeedRow]
    seed_sites: List[Website]

    @property
    def total_urls(self) -> int:
        return sum(row.urls_found for row in self.rows)

    @property
    def total_nprs(self) -> int:
        return sum(row.npr_count for row in self.rows)

    def npr_sites(self) -> List[Website]:
        return [s for s in self.seed_sites if s.requests_permission]

    def npr_domains(self) -> Set[str]:
        """Distinct eTLD+1 of NPR sites (5,697 in the paper)."""
        return {
            effective_second_level_domain(s.domain) for s in self.npr_sites()
        }

    def row(self, name: str) -> SeedRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"unknown seed row: {name!r}")


def discover_seeds(ecosystem: WebEcosystem) -> SeedDiscovery:
    """Run all 19 keyword searches and resolve hits back to websites.

    NPR counts are filled by *observing* each site's permission behaviour —
    the simulated analogue of visiting every URL — and attributed to the
    seed row whose keyword discovered the site.
    """
    engine = ecosystem.search_engine
    site_by_url: Dict[str, Website] = {
        str(site.url): site for site in ecosystem.websites
    }

    rows: List[SeedRow] = []
    seen: Set[str] = set()
    seed_sites: List[Website] = []
    for spec in ALL_SEEDS:
        hits = engine.search(spec.search_keyword)
        row = SeedRow(
            name=spec.name,
            is_generic_keyword=spec.is_generic_keyword,
            urls_found=len(hits),
        )
        for url in hits:
            text = str(url)
            site = site_by_url.get(text)
            if site is None:
                continue
            if site.requests_permission:
                row.register_npr()
            if text not in seen:
                seen.add(text)
                seed_sites.append(site)
        rows.append(row)
    return SeedDiscovery(rows=rows, seed_sites=seed_sites)
