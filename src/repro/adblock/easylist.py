"""A synthetic EasyList: what crowd-sourced filters knew in 2019.

EasyList's blocking rules target the *web-page* delivery surface of the big
ad networks (banner scripts, pop JS, known ad-serving hosts). Push-specific
infrastructure — the per-publisher service worker scripts and the networks'
push API endpoints — was barely covered, which is why the paper measured
under 2% of SW requests matched. The synthetic list below encodes exactly
that coverage profile against the generated ecosystem:

* domain-anchored rules for a few monetization networks' *ad* paths, which
  incidentally catch a small share of SW traffic;
* generic banner/pop patterns that never occur in SW request URLs;
* no rules at all for SW script paths (``*-push-sw.js``) or the
  re-engagement platforms.
"""

from __future__ import annotations

from typing import Dict, List

from repro.adblock.rules import FilterList

_GENERIC_RULES = [
    "! *** easylist:easylist_general_block.txt ***",
    "/banner/ads/",
    "/adframe.",
    "/pagead2.",
    "&popunder=",
    "/popads/*",
    "||googlesyndication-cdn.example^",
    "/ads/display?",
    "-banner-300x250.",
    "/adserver/;",
]


def synthetic_easylist(network_domains: Dict[str, str]) -> FilterList:
    """Build the 2019-era list against the generated network domains.

    ``network_domains`` maps ad-network name -> serving domain (from the
    ecosystem). Coverage is deliberately partial: only the networks whose
    display/pop products were already well-known to list maintainers get
    rules, and those rules target their *click/ad* endpoints, not the push
    delivery path.
    """
    rules: List[str] = list(_GENERIC_RULES)
    # Networks whose display-ads infrastructure EasyList knew well. Their
    # click redirectors get caught; their push resolve/report APIs do not.
    covered = ("PopAds", "PropellerAds", "AdsTerra", "AdCash")
    for name in covered:
        domain = network_domains.get(name)
        if domain is None:
            continue
        rules.append(f"||click.{domain}^")
        rules.append(f"||{domain}/c/redirect")
    # A few narrow push rules had made it into the list by late 2019: the
    # *legacy* API hosts of the big monetizers (their current endpoints
    # rotated away), which is why under 2% of SW requests end up filtered.
    for name in ("Ad-Maven", "PopAds", "PropellerAds", "AdsTerra", "HillTopAds"):
        domain = network_domains.get(name)
        if domain is not None:
            rules.append(f"||legacy-api.{domain}^")
    return FilterList.parse("\n".join(rules))
