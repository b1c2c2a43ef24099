"""Descriptive statistics over a WPN corpus.

The paper's prose quotes many distributional facts beyond its tables (how
many WPNs per source, how landing domains concentrate, the mobile/desktop
differences). This module computes those descriptions from any record
corpus — used by the examples, the CLI, and the characterization tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.records import WpnRecord
from repro.util.stats import counter_table, percentile, safe_ratio


@dataclass
class CorpusDescription:
    """A bundle of distributional facts about one record corpus."""

    total: int
    valid: int
    by_platform: Dict[str, int]
    valid_rate_by_platform: Dict[str, float]
    by_network: List[Tuple[str, int]]
    by_category: List[Tuple[str, int]]
    messages_per_source: Dict[str, float]     # min/median/p90/max
    landing_urls_per_domain: Dict[str, float]
    top_landing_tlds: List[Tuple[str, int]]
    redirect_hops: Dict[str, float]

    def render(self) -> str:
        """Human-readable multi-line description."""
        lines = [
            f"WPNs: {self.total} collected, {self.valid} valid",
            "platforms: "
            + ", ".join(
                f"{name}={count} (valid {self.valid_rate_by_platform[name]:.0%})"
                for name, count in sorted(self.by_platform.items())
            ),
            "top networks: "
            + ", ".join(f"{n}={c}" for n, c in self.by_network[:5]),
            "top categories: "
            + ", ".join(f"{n}={c}" for n, c in self.by_category[:5]),
            "messages per source: "
            + ", ".join(f"{k}={v:g}" for k, v in self.messages_per_source.items()),
            "landing URLs per domain: "
            + ", ".join(
                f"{k}={v:g}" for k, v in self.landing_urls_per_domain.items()
            ),
            "top landing TLDs: "
            + ", ".join(f".{t}={c}" for t, c in self.top_landing_tlds[:5]),
            "redirect hops: "
            + ", ".join(f"{k}={v:g}" for k, v in self.redirect_hops.items()),
        ]
        return "\n".join(lines)


def _spread(values: Sequence[float]) -> Dict[str, float]:
    if not values:
        return {"min": 0.0, "median": 0.0, "p90": 0.0, "max": 0.0}
    return {
        "min": float(min(values)),
        "median": percentile(values, 50),
        "p90": percentile(values, 90),
        "max": float(max(values)),
    }


def describe_corpus(records: Sequence[WpnRecord]) -> CorpusDescription:
    """Compute the full description for a record corpus."""
    records = list(records)
    valid = [r for r in records if r.valid]

    by_platform: Dict[str, int] = {}
    valid_by_platform: Dict[str, int] = {}
    for record in records:
        by_platform[record.platform] = by_platform.get(record.platform, 0) + 1
        if record.valid:
            valid_by_platform[record.platform] = (
                valid_by_platform.get(record.platform, 0) + 1
            )
    valid_rate = {
        name: safe_ratio(valid_by_platform.get(name, 0), count)
        for name, count in by_platform.items()
    }

    per_source: Dict[str, int] = {}
    for record in records:
        per_source[record.source_etld1] = per_source.get(record.source_etld1, 0) + 1

    urls_per_domain: Dict[str, set] = {}
    tlds: List[str] = []
    for record in valid:
        domain = record.landing_etld1
        urls_per_domain.setdefault(domain, set()).add(record.landing_url)
        tlds.append(domain.rsplit(".", 1)[-1])

    return CorpusDescription(
        total=len(records),
        valid=len(valid),
        by_platform=by_platform,
        valid_rate_by_platform=valid_rate,
        by_network=[
            (str(name), count)
            for name, count in counter_table(
                r.network_name or "(site-owned)" for r in records
            )
        ],
        by_category=[
            (str(name), count)
            for name, count in counter_table(r.truth.category for r in records)
        ],
        messages_per_source=_spread(list(per_source.values())),
        landing_urls_per_domain=_spread(
            [len(urls) for urls in urls_per_domain.values()]
        ),
        top_landing_tlds=[
            (str(t), c) for t, c in counter_table(tlds, top=10)
        ],
        redirect_hops=_spread([len(r.redirect_hops) for r in valid]),
    )
