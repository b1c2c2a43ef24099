"""Whole-ecosystem generator.

``generate_ecosystem(config)`` builds, deterministically from the scenario
seed, the entire simulated push-ad world the crawler will measure:

* one website population per Table 1 seed row (ad-network SDK keyword or
  generic push keyword), with the paper's per-row URL count (scaled) and
  notification-permission-request rate;
* the ad networks' campaign pools: malicious operations spanning several
  campaigns with shared landing infrastructure, plus stand-alone benign
  campaigns;
* a code-search index over all page sources (the publicwww stand-in);
* a popularity index (the Alexa stand-in) and landing-page infrastructure
  (IPs, registrants) shared inside operations.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.obs import Tracer
from repro.util.rng import RngFactory
from repro.webenv.adnetworks import ALL_SEEDS, AdNetworkSpec
from repro.webenv.alexa import PopularityIndex
from repro.webenv.campaigns import (
    AdCampaign,
    CampaignFactory,
    MessageCreative,
    Operation,
    make_alert_message,
)
from repro.webenv.content import (
    ALERT_FAMILIES,
    BENIGN_AD_FAMILIES,
    MALICIOUS_AD_FAMILIES,
    ContentFamily,
    family_by_name,
)
from repro.webenv.domains import DomainFactory
from repro.webenv.landing import (
    LandingInfrastructure,
    LandingPage,
    RedirectChain,
    RedirectChainBuilder,
    visual_signature,
)
from repro.webenv.scenario import ScenarioConfig
from repro.webenv.search import CodeSearchEngine
from repro.util.urls import Url
from repro.webenv.website import (
    Website,
    alert_page_source,
    plain_page_source,
    publisher_page_source,
)


def _keyed_unit_float(key: str) -> float:
    """Uniform [0, 1) float derived statelessly from a string key.

    blake2b rather than ``hash()``: the builtin is salted per process, so
    worker processes would disagree on every derived decision.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass
class WebEcosystem:
    """The generated world: everything the crawler can observe."""

    config: ScenarioConfig
    networks: Dict[str, AdNetworkSpec]
    network_domains: Dict[str, str]
    campaigns: List[AdCampaign]
    operations: List[Operation]
    websites: List[Website]
    search_engine: CodeSearchEngine
    popularity: PopularityIndex
    infrastructure: LandingInfrastructure
    redirect_builder: RedirectChainBuilder
    campaigns_by_network: Dict[str, List[AdCampaign]] = field(default_factory=dict)
    _campaign_index: Dict[str, AdCampaign] = field(default_factory=dict)
    _landing_prompt_cache: Dict[str, bool] = field(default_factory=dict)
    _landing_rng: random.Random = field(default_factory=random.Random)
    #: ``sample_ad_message``'s pools, per ``(network, platform, penalty)``.
    _ad_pools: Dict[
        Tuple[str, str, float], Tuple[List[AdCampaign], List[float]]
    ] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.campaigns_by_network:
            for campaign in self.campaigns:
                for name in campaign.network_names:
                    self.campaigns_by_network.setdefault(name, []).append(campaign)
        if not self._campaign_index:
            self._campaign_index = {c.campaign_id: c for c in self.campaigns}

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def campaign(self, campaign_id: str) -> AdCampaign:
        return self._campaign_index[campaign_id]

    def operation(self, operation_id: str) -> Operation:
        for op in self.operations:
            if op.operation_id == operation_id:
                return op
        raise KeyError(f"unknown operation: {operation_id!r}")

    # ------------------------------------------------------------------
    # Message generation (called by the push broker during the crawl)
    # ------------------------------------------------------------------
    def sample_ad_message(
        self,
        network_name: str,
        platform: str,
        rng: random.Random,
        emulated: bool = False,
        at_min: Optional[float] = None,
    ) -> Optional[MessageCreative]:
        """One ad push from ``network_name``'s pool, platform-targeted.

        Campaign choice is biased by the network's abuse level: an abusive
        network mostly monetizes malicious campaigns, a mainstream one
        mostly benign ones — this is what shapes Figure 6.

        ``emulated`` models the emulator detection the paper observed on
        mobile (section 6.1.3): malicious campaigns largely withhold their
        payloads from emulated devices, so the paper crawled a real Nexus 5.
        """
        # Keyed on the penalty, not on ``emulated``: a caller that swaps
        # ``config`` must never be served another config's weights.
        penalty = self.config.emulator_malicious_penalty if emulated else 1.0
        key = (network_name, platform, penalty)
        if key not in self._ad_pools:
            self._ad_pools[key] = self._ad_pool(network_name, platform, penalty)
        pool, cum_weights = self._ad_pools[key]
        if not pool:
            return None
        campaign = rng.choices(pool, cum_weights=cum_weights, k=1)[0]
        return campaign.make_message(rng, at_min=at_min)

    def _ad_pool(
        self, network_name: str, platform: str, penalty: float
    ) -> Tuple[List[AdCampaign], List[float]]:
        """``network_name``'s campaigns on ``platform``, cumulative weights.

        Accumulated left to right, as ``random.choices`` accumulates plain
        weights, so every draw is the same.
        """
        pool = [
            c
            for c in self.campaigns_by_network.get(network_name, [])
            if platform in c.platforms
        ]
        spec = self.networks.get(network_name)
        abuse = spec.abuse_level if spec else 0.5
        weights = [
            c.weight * ((abuse * penalty) if c.malicious else (1.0 - abuse)) + 1e-6
            for c in pool
        ]
        return pool, list(accumulate(weights))

    def sample_alert_message(
        self, family_name: str, source_domain: str, rng: random.Random
    ) -> MessageCreative:
        """One site-specific alert from an alert site's own family."""
        return make_alert_message(family_by_name(family_name), source_domain, rng)

    # ------------------------------------------------------------------
    # Click resolution
    # ------------------------------------------------------------------
    def resolve_click(
        self,
        message: MessageCreative,
        network_name: Optional[str],
        rng: Optional[random.Random] = None,
    ) -> Tuple[RedirectChain, LandingPage]:
        """Redirect chain and rendered landing page for a clicked WPN.

        ``rng`` is the clicking session's own stream. Parallel crawl
        sessions must pass it: every draw here then depends only on that
        session's keyed stream, never on how many clicks other sessions
        resolved first. Without it the shared landing stream is used
        (fine for single-session use and direct calls in tests).
        """
        if rng is None:
            rng = self._landing_rng
        landing_url = Url(
            host=message.landing_domain,
            path=message.landing_path,
            query=message.landing_query,
        )
        chain = self.redirect_builder.build(network_name, landing_url, rng=rng)
        campaign = (
            self._campaign_index.get(message.campaign_id)
            if message.campaign_id
            else None
        )
        operation_id = campaign.operation_id if campaign else None
        family = family_by_name(message.family_name)
        page_signals = self._render_page_signals(family, rng)
        page = LandingPage(
            url=landing_url,
            family_name=family.name,
            campaign_id=message.campaign_id,
            malicious=message.malicious,
            theme_tokens=family.theme_tokens,
            visual_hash=visual_signature(family.name, operation_id),
            ip_address=self.infrastructure.ip_of(message.landing_domain),
            registrant=self.infrastructure.registrant_of(message.landing_domain),
            requests_permission=self.landing_prompts(message.landing_domain),
            page_signals=page_signals,
        )
        return chain, page

    def _render_page_signals(
        self, family: ContentFamily, rng: random.Random
    ) -> Tuple[str, ...]:
        """Elements actually present on one rendered landing page.

        Real pages vary: the family's signature elements usually but not
        always render, legitimate sales pages also run countdown timers,
        and plenty of benign destinations sit behind login/signup forms —
        so page elements are evidence, not proof.
        """
        signals = [s for s in family.page_signals if rng.random() < 0.85]
        if not family.malicious:
            if family.kind == "ad" and rng.random() < 0.30:
                signals.append("countdown-timer")     # flash-sale pressure
            if rng.random() < 0.08:
                signals.append("credential-form")     # login/signup wall
        return tuple(sorted(set(signals)))

    def landing_prompts(self, domain: str) -> bool:
        """Whether this landing domain itself asks for push permission.

        Decided once per domain; clicking WPN ads is how the paper's crawl
        discovered 10,898 further URLs, ~19% of which prompted. The
        decision is a stateless hash of ``(seed, domain)`` — never a draw
        from a shared stream — so it is identical no matter which session
        (or worker process) first clicks through to the domain; the dict
        is a pure memo.
        """
        decision = self._landing_prompt_cache.get(domain)
        if decision is None:
            key = f"landing-prompt|{self.config.seed}|{domain}"
            decision = _keyed_unit_float(key) < self.config.landing_npr_rate
            self._landing_prompt_cache[domain] = decision
        return decision

    def networks_of_landing(self, message: MessageCreative) -> Tuple[str, ...]:
        """Ad networks a prompting landing page would subscribe the user to
        (malicious landing pages re-monetize through the same networks)."""
        campaign = (
            self._campaign_index.get(message.campaign_id)
            if message.campaign_id
            else None
        )
        return campaign.network_names if campaign else ()


def _build_campaigns(
    config: ScenarioConfig,
    rng: random.Random,
    domain_factory: DomainFactory,
    infra: LandingInfrastructure,
    networks: Dict[str, AdNetworkSpec],
) -> Tuple[List[AdCampaign], List[Operation]]:
    factory = CampaignFactory(rng, domain_factory)
    abuse = {
        name: (spec.abuse_level, float(spec.paper_nprs))
        for name, spec in networks.items()
    }
    families = {f.name: f for f in MALICIOUS_AD_FAMILIES}

    campaigns: List[AdCampaign] = []
    lo, hi = config.campaigns_per_operation
    for _ in range(config.n_malicious_operations):
        campaigns.extend(
            factory.malicious_operation_campaigns(
                abuse, n_campaigns=rng.randint(lo, hi), families=families
            )
        )
    for _ in range(config.n_benign_ad_campaigns):
        family = rng.choice(BENIGN_AD_FAMILIES)
        campaigns.append(factory.benign_campaign(abuse, family))

    # Guarantee every network that can acquire subscribers has something to
    # push; otherwise its publishers would be dead air.
    covered = {name for c in campaigns for name in c.network_names}
    for name, spec in networks.items():
        if spec.paper_nprs > 0 and name not in covered:
            family = rng.choice(BENIGN_AD_FAMILIES)
            campaign = factory.benign_campaign({name: spec.abuse_level}, family)
            campaigns.append(campaign)

    # Register operation hosting facts so meta-cluster verification can see
    # shared IPs/registrants across an operation's domains.
    for op in factory.operations:
        for domain in op.shared_domains:
            ip = rng.choice(op.ip_addresses)
            infra.register(domain, ip, op.registrant)

    return campaigns, factory.operations


def _build_websites(
    config: ScenarioConfig,
    rng: random.Random,
    domain_factory: DomainFactory,
    networks: Dict[str, AdNetworkSpec],
) -> List[Website]:
    websites: List[Website] = []
    alert_weights = [1.0] * len(ALERT_FAMILIES)
    for spec in ALL_SEEDS:
        n_urls = config.scaled(spec.paper_urls)
        n_nprs = min(n_urls, config.scaled(spec.paper_nprs))
        for i in range(n_urls):
            prompts = i < n_nprs
            domain = domain_factory.benign()
            url = Url(host=f"www.{domain}", path="/" if rng.random() < 0.7 else "/index.html")
            if not prompts:
                websites.append(
                    Website(
                        url=url,
                        kind="plain",
                        page_source=plain_page_source(spec.search_keyword),
                        seed_keyword=spec.name,
                    )
                )
                continue
            if spec.is_generic_keyword and rng.random() >= config.publisher_share_of_npr:
                family = rng.choices(ALERT_FAMILIES, weights=alert_weights, k=1)[0]
                websites.append(
                    Website(
                        url=url,
                        kind="alert",
                        page_source=alert_page_source(spec.search_keyword),
                        seed_keyword=spec.name,
                        alert_family=family.name,
                        requests_permission=True,
                        double_permission=rng.random() < config.double_permission_rate,
                        opt_in_rate=rng.uniform(0.3, 0.9),
                        active_notifier=rng.random() < config.active_notifier_rate,
                        permission_delay_min=rng.uniform(0.1, 4.0),
                    )
                )
                continue
            if spec.is_generic_keyword:
                # A custom push integration: the page code only matches the
                # generic keyword, but a real ad network serves the pushes.
                # Network choice follows each network's real footprint
                # (its NPR count), so big platforms dominate here too.
                roster = sorted(networks.values(), key=lambda s: s.name)
                weights = [s.paper_nprs + 1 for s in roster]
                embedded = (rng.choices(roster, weights=weights, k=1)[0],)
                markers = (spec.search_keyword,)
            else:
                embedded = (spec,)
                markers = (spec.sdk_marker,)
            own_family = rng.choices(ALERT_FAMILIES, weights=alert_weights, k=1)[0]
            websites.append(
                Website(
                    url=url,
                    kind="publisher",
                    page_source=publisher_page_source(markers),
                    seed_keyword=spec.name,
                    network_names=tuple(s.name for s in embedded),
                    own_content_family=own_family.name,
                    requests_permission=True,
                    double_permission=rng.random() < config.double_permission_rate,
                    opt_in_rate=rng.uniform(0.02, 0.6),
                    active_notifier=rng.random() < config.active_notifier_rate,
                    permission_delay_min=rng.uniform(0.1, 4.0),
                )
            )
    return websites


def generate_ecosystem(
    config: ScenarioConfig, tracer: Optional[Tracer] = None
) -> WebEcosystem:
    """Build the full simulated world for one scenario, deterministically.

    ``tracer`` (optional) records a ``webenv.generate`` span with child
    spans for campaign, website, and index construction; tracing never
    affects the generated world.
    """
    tracer = tracer if tracer is not None else Tracer()
    with tracer.span("webenv.generate") as span:
        rngs = RngFactory(config.seed)
        domain_factory = DomainFactory(rngs.stream("domains"))
        infra = LandingInfrastructure(rngs.stream("infra"))
        networks = {
            spec.name: spec for spec in ALL_SEEDS if not spec.is_generic_keyword
        }

        network_domains = {
            name: domain_factory.ad_network(name) for name in sorted(networks)
        }

        with tracer.span("webenv.campaigns") as campaign_span:
            campaigns, operations = _build_campaigns(
                config, rngs.stream("campaigns"), domain_factory, infra, networks
            )
            campaign_span.gauge("campaigns", len(campaigns))
            campaign_span.gauge("operations", len(operations))
            campaign_span.gauge(
                "malicious_campaigns", sum(1 for c in campaigns if c.malicious)
            )

        with tracer.span("webenv.websites") as site_span:
            websites = _build_websites(
                config, rngs.stream("websites"), domain_factory, networks
            )
            site_span.gauge("websites", len(websites))
            site_span.gauge(
                "prompting_websites",
                sum(1 for w in websites if w.requests_permission),
            )

        with tracer.span("webenv.search_index") as index_span:
            search_engine = CodeSearchEngine()
            search_engine.index_many(websites)
            index_span.gauge("indexed_pages", len(websites))

        popularity = PopularityIndex(
            rngs.stream("alexa"), ranked_fraction=config.ranked_fraction
        )
        span.gauge("networks", len(networks))
        span.gauge("domains_issued", domain_factory.issued_count())

        ecosystem = WebEcosystem(
            config=config,
            networks=networks,
            network_domains=network_domains,
            campaigns=campaigns,
            operations=operations,
            websites=websites,
            search_engine=search_engine,
            popularity=popularity,
            infrastructure=infra,
            redirect_builder=RedirectChainBuilder(
                rngs.stream("redirects"), network_domains
            ),
        )
        ecosystem._landing_rng = rngs.stream("landing-prompts")
    return ecosystem
