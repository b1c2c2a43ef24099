"""Advertiser campaigns and the operations behind them.

A *campaign* is one advertiser's push creative-set: a content family, a
small set of concrete title/body variants, a landing URL path template, and
one or more landing domains. Malicious campaigns typically rotate several
cheap landing domains to out-run URL blocklists ("duplicate ads" in ad-policy
terms), and several campaigns run by the same *operation* share landing
domains, IP addresses and registrants — exactly the structure the paper's
meta-clustering step (section 5.3) recovers as connected components.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.webenv.content import (
    ContentFamily,
    fill_template,
    one_off_creative,
)
from repro.webenv.domains import DomainFactory


@dataclass(frozen=True)
class MessageCreative:
    """One concrete push message an ad network can deliver."""

    title: str
    body: str
    landing_domain: str
    landing_path: str           # path component only, starts with "/"
    landing_query: str          # query string, no leading "?"
    campaign_id: Optional[str]  # None for site-specific (non-ad) alerts
    family_name: str
    malicious: bool
    is_one_off: bool = False    # one-off creative (text won't cluster)
    icon_brand: Optional[str] = None  # brand icon the creative displays
                                      # (spoofed for phishing families)
    actions: Tuple[str, ...] = ()     # custom notification action buttons


@dataclass(frozen=True)
class Operation:
    """A group of campaigns run by the same (possibly malicious) operator."""

    operation_id: str
    registrant: str
    ip_addresses: Tuple[str, ...]
    shared_domains: Tuple[str, ...]


@dataclass
class AdCampaign:
    """An advertiser's campaign as carried by one or more ad networks."""

    campaign_id: str
    family: ContentFamily
    network_names: Tuple[str, ...]
    landing_domains: Tuple[str, ...]
    path_template: str
    title_variants: Tuple[str, ...]
    body_variants: Tuple[str, ...]
    weight: float
    operation_id: Optional[str] = None
    rotation_period_min: Optional[float] = None  # domain-rotation cadence:
                                                 # malicious campaigns cycle
                                                 # their landing domains over
                                                 # time to out-run blocklists

    def __post_init__(self):
        if not self.landing_domains:
            raise ValueError("campaign needs at least one landing domain")
        if not self.title_variants or not self.body_variants:
            raise ValueError("campaign needs concrete creative variants")
        if self.weight <= 0:
            raise ValueError("campaign weight must be positive")

    @property
    def malicious(self) -> bool:
        return self.family.malicious

    @property
    def platforms(self) -> Tuple[str, ...]:
        return self.family.platforms

    def active_domain(self, at_min: float) -> str:
        """The landing domain this campaign currently fronts with.

        Rotating campaigns cycle through their domain list over time: the
        domain that served last week's clicks gets parked once blocklists
        start catching up (paper section 5.2).
        """
        if self.rotation_period_min is None or len(self.landing_domains) == 1:
            return self.landing_domains[0]
        index = int(at_min // self.rotation_period_min) % len(self.landing_domains)
        return self.landing_domains[index]

    def make_message(
        self, rng: random.Random, at_min: Optional[float] = None
    ) -> MessageCreative:
        """Instantiate one push message for this campaign.

        With probability ``family.text_variability`` the message is a
        one-off creative: it keeps the campaign's landing domains (and thus
        stays attached via meta-clustering) but its text is unique. When
        ``at_min`` is given and the campaign rotates domains, the message
        mostly points at the currently-active one.
        """
        if at_min is not None and self.rotation_period_min is not None:
            # Mostly the active domain; stragglers (cached SW configs, slow
            # publishers) still point at the rest of the pool.
            if rng.random() < 0.8:
                domain = self.active_domain(at_min)
            else:
                domain = rng.choice(self.landing_domains)
        else:
            domain = rng.choice(self.landing_domains)
        path, query = _fill_path_template(self.path_template, rng)
        if rng.random() < self.family.text_variability:
            title, body = one_off_creative(self.family, rng)
            one_off = True
        else:
            title = rng.choice(self.title_variants)
            body = rng.choice(self.body_variants)
            one_off = False
        return MessageCreative(
            title=title,
            body=body,
            landing_domain=domain,
            landing_path=path,
            landing_query=query,
            campaign_id=self.campaign_id,
            family_name=self.family.name,
            malicious=self.malicious,
            is_one_off=one_off,
            icon_brand=(
                rng.choice(self.family.icon_brands)
                if self.family.icon_brands
                else None
            ),
            actions=self.family.action_labels,
        )


def _fill_path_template(template: str, rng: random.Random) -> Tuple[str, str]:
    """Fill slot values in a path template and split path from query."""
    filled = fill_template(template, rng)
    if "?" in filled:
        path, query = filled.split("?", 1)
    else:
        path, query = filled, ""
    return path, query


def make_alert_message(
    family: ContentFamily, source_domain: str, rng: random.Random
) -> MessageCreative:
    """A site-specific (non-ad) alert landing back on its own origin."""
    if family.kind != "alert":
        raise ValueError(f"{family.name} is not an alert family")
    title = fill_template(rng.choice(family.titles), rng)
    body = fill_template(rng.choice(family.bodies), rng)
    path, query = _fill_path_template(rng.choice(family.path_templates), rng)
    return MessageCreative(
        title=title,
        body=body,
        landing_domain=source_domain,
        landing_path=path,
        landing_query=query,
        campaign_id=None,
        family_name=family.name,
        malicious=False,
    )


class CampaignFactory:
    """Builds operations and campaigns with the paper's sharing structure."""

    # Related families that one malicious operation tends to run together
    # (e.g. the sweepstakes/survey-scam operators of Figure 5a).
    _OPERATION_FAMILY_POOLS: Tuple[Tuple[str, ...], ...] = (
        ("survey_scam", "sweepstakes"),
        ("tech_support", "scareware"),
        ("fake_paypal", "phishing_bank"),
        ("fake_delivery", "fake_missed_call", "spoofed_im"),
        ("crypto_scam", "survey_scam"),
        ("fake_flash_update", "browser_locker", "tech_support"),
    )

    def __init__(self, rng: random.Random, domain_factory: DomainFactory):
        self._rng = rng
        self._domains = domain_factory
        self._next_campaign = 1
        self._next_operation = 1
        self.operations: List[Operation] = []

    def _new_operation(self, n_domains: int) -> Operation:
        rng = self._rng
        # Mostly throwaway registrations, but operators also park campaigns
        # on innocuous-looking domains to dodge lexical heuristics.
        domains = tuple(
            self._domains.shady() if rng.random() < 0.75 else self._domains.benign()
            for _ in range(n_domains)
        )
        op = Operation(
            operation_id=f"op{self._next_operation:04d}",
            registrant=f"registrant-{rng.randrange(100, 999)}@privacyguard.example",
            ip_addresses=tuple(
                f"185.{rng.randrange(10, 250)}.{rng.randrange(1, 250)}.{rng.randrange(2, 250)}"
                for _ in range(rng.choice([1, 1, 2]))
            ),
            shared_domains=domains,
        )
        self._next_operation += 1
        self.operations.append(op)
        return op

    def _concrete_variants(
        self, family: ContentFamily, n_title: int, n_body: int
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Fill family templates once so the campaign has fixed creatives."""
        rng = self._rng
        titles = {fill_template(rng.choice(family.titles), rng) for _ in range(n_title)}
        bodies = {fill_template(rng.choice(family.bodies), rng) for _ in range(n_body)}
        return tuple(sorted(titles)), tuple(sorted(bodies))

    def _make_campaign(
        self,
        family: ContentFamily,
        networks: Sequence[str],
        landing_domains: Sequence[str],
        operation_id: Optional[str],
    ) -> AdCampaign:
        rng = self._rng
        titles, bodies = self._concrete_variants(family, n_title=2, n_body=2)
        campaign_id = f"cmp{self._next_campaign:05d}"
        # Campaigns deploy under a campaign-specific landing path (affiliate
        # offer slug); messages of one campaign share it across every
        # landing domain, while other campaigns — even with identical
        # creative text — land elsewhere.
        slug = f"of{rng.randrange(100, 10_000)}{rng.choice('abcdefghk')}"
        template = rng.choice(family.path_templates)
        # Malicious multi-domain campaigns rotate their landing domains on
        # a 1-3 week cadence to stay ahead of blocklists.
        rotation = None
        if family.malicious and len(landing_domains) > 1:
            rotation = rng.uniform(7.0, 21.0) * 24 * 60
        campaign = AdCampaign(
            campaign_id=campaign_id,
            family=family,
            network_names=tuple(networks),
            landing_domains=tuple(landing_domains),
            path_template=f"/{slug}{template}",
            title_variants=titles,
            body_variants=bodies,
            weight=rng.uniform(0.5, 2.0),
            operation_id=operation_id,
            rotation_period_min=rotation,
        )
        self._next_campaign += 1
        return campaign

    def malicious_operation_campaigns(
        self,
        networks_for: Dict[str, float],
        n_campaigns: int,
        families: Dict[str, ContentFamily],
    ) -> List[AdCampaign]:
        """Create one malicious operation running ``n_campaigns`` campaigns.

        ``networks_for`` maps network name -> abuse_level, used to pick the
        networks that carry this operation's campaigns.

        Operations rotate through the family pools so every attack theme is
        represented even in small worlds (the wild ecosystem carries all of
        them simultaneously).
        """
        rng = self._rng
        pool_index = (self._next_operation - 1) % len(self._OPERATION_FAMILY_POOLS)
        pool_names = self._OPERATION_FAMILY_POOLS[pool_index]
        pool = [families[n] for n in pool_names if n in families]
        if not pool:
            raise ValueError("no known families in operation pool")
        op = self._new_operation(n_domains=rng.randrange(3, 8))
        campaigns = []
        for _ in range(n_campaigns):
            family = rng.choice(pool)
            # Each campaign uses a subset of the operation's shared domains,
            # occasionally plus one private domain of its own.
            k = rng.randrange(2, min(5, len(op.shared_domains)) + 1)
            domains = list(rng.sample(list(op.shared_domains), k))
            if rng.random() < 0.3:
                domains.append(self._domains.shady())
            networks = _pick_networks(rng, networks_for, prefer_abusive=True)
            campaigns.append(self._make_campaign(family, networks, domains, op.operation_id))
        return campaigns

    def benign_campaign(
        self, networks_for: Dict[str, float], family: ContentFamily
    ) -> AdCampaign:
        """One stand-alone benign campaign.

        ``duplicate_ads`` families (job boards, horoscope feeds, dating) get
        several landing domains — the benign look-alikes of the paper's
        "duplicate ads" heuristic (its measured false-positive source).
        """
        rng = self._rng
        if family.duplicate_ads:
            n = rng.randrange(2, 5)
        else:
            n = rng.choice([1, 1, 2])
        # Low-rent but benign advertisers (dating, horoscopes, job boards)
        # also buy cheap shady-looking TLDs.
        domains = [
            self._domains.benign() if rng.random() < 0.8 else self._domains.shady()
            for _ in range(n)
        ]
        networks = _pick_networks(rng, networks_for, prefer_abusive=False)
        return self._make_campaign(family, networks, domains, operation_id=None)


def _pick_networks(
    rng: random.Random, networks_for: Dict[str, object], prefer_abusive: bool
) -> List[str]:
    """Pick 1-3 carrying networks.

    ``networks_for`` maps name -> abuse_level, or -> (abuse_level,
    traffic). Choice is weighted by fit (abusive campaigns go to abusive
    networks) *and* by the network's traffic footprint, so the
    high-volume monetizers actually carry most campaigns.
    """
    if not networks_for:
        raise ValueError("no networks available")
    names = sorted(networks_for)

    def parts(name: str):
        value = networks_for[name]
        if isinstance(value, tuple):
            abuse, traffic = value
        else:
            abuse, traffic = float(value), 1.0
        return abuse, math.sqrt(traffic + 1.0)

    weights = []
    for name in names:
        abuse, volume = parts(name)
        fit = abuse if prefer_abusive else (1.0 - abuse)
        weights.append((0.05 + fit) * volume)
    k = min(len(names), rng.choice([1, 1, 2, 2, 3]))
    picked: List[str] = []
    for _ in range(k):
        name = rng.choices(names, weights=weights, k=1)[0]
        if name not in picked:
            picked.append(name)
    return picked
