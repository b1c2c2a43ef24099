"""Container sessions: one isolated browser profile per visited URL.

Implements the paper's crawl policy (section 6.1.2): visit the URL, wait up
to 5 minutes for a permission prompt, auto-grant it, keep the container
alive 15 minutes for the first notification(s), then suspend and resume
periodically so FCM-queued messages drain over the two-month study. Every
displayed notification is automatically clicked after a short delay and the
resulting redirect chain + landing page recorded.

A visit without a permission prompt is fully determined by its site: the
page renders, nothing is drawn, subscribed or sent, and the session yields
no record. Such a session builds no browser, broker, keyed stream or device;
only prompting sites pay for a container.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.browser.android import AndroidDevice
from repro.browser.browser import ClickOutcome, InstrumentedBrowser
from repro.browser.network import NetworkRequest
from repro.browser.notifications import WebNotification
from repro.core.records import WpnRecord, WpnTruth
from repro.push.fcm import FcmService, PushDelivery
from repro.push.subscription import PushSubscription
from repro.util.rng import RngFactory
from repro.webenv.campaigns import MessageCreative
from repro.webenv.content import family_by_name
from repro.webenv.generator import WebEcosystem
from repro.webenv.scenario import ScenarioConfig
from repro.webenv.website import Website


def session_key(platform: str, url: str) -> str:
    """Stable per-process-safe identity of one ``(platform, url)`` session.

    blake2b rather than the builtin ``hash`` (salted per process); the key
    prefixes WPN ids and FCM endpoints, so every id a session mints depends
    only on what it visited — never on how many sessions ran before it in
    the same interpreter or worker process.
    """
    digest = hashlib.blake2b(
        f"{platform}|{url}".encode("utf-8"), digest_size=6
    )
    return digest.hexdigest()


def session_rng(seed: int, platform: str, url: str) -> random.Random:
    """The session's own named stream, keyed by ``(seed, platform, url)``.

    Replaces the old scheduler-wide shared ``random.Random``: with a keyed
    stream, a session's draws are identical whether it runs first, last,
    serially, or on any worker of a sharded crawl.
    """
    factory = RngFactory(seed).child("crawl-session")
    return factory.stream(f"{platform}|{url}")


@dataclass(frozen=True)
class LandingLead:
    """A click-discovered URL that may deserve its own crawl session."""

    url: str
    requests_permission: bool
    network_names: Tuple[str, ...]
    discovered_at_min: float


@dataclass
class SessionResult:
    """Everything one container session produced."""

    site: Website
    platform: str
    requested_permission: bool
    subscriptions: int
    records: List[WpnRecord] = field(default_factory=list)
    landing_leads: List[LandingLead] = field(default_factory=list)
    sw_requests: List[NetworkRequest] = field(default_factory=list)
    first_latency_min: Optional[float] = None


class ContainerSession:
    """Visit one URL in an isolated browser; collect its WPNs.

    Only a prompting site gets a container: broker, keyed stream, browser
    and, on mobile, the Android device. The broker and stream derive from
    what the session visits (:func:`session_key`, :func:`session_rng`), so
    a session is a self-contained pure kernel. For any other site ``fcm``,
    ``rng``, ``browser`` and ``device`` stay ``None`` and :meth:`run`
    returns the bare result.
    """

    def __init__(
        self,
        ecosystem: WebEcosystem,
        *,
        site: Website,
        platform: str,
        start_min: float,
        emulated: bool = False,
    ):
        self.ecosystem = ecosystem
        self.config: ScenarioConfig = ecosystem.config
        self.site = site
        self.platform = platform
        self.session_key = session_key(platform, str(site.url))
        self.start_min = start_min
        self.emulated = emulated
        self._wpn_index = 0
        self._sent_alerts: List[MessageCreative] = []
        self.fcm: Optional[FcmService] = None
        self.rng: Optional[random.Random] = None
        self.browser: Optional[InstrumentedBrowser] = None
        self.device: Optional[AndroidDevice] = None
        if not site.requests_permission:
            return
        self.fcm = FcmService(namespace=self.session_key)
        self.rng = session_rng(ecosystem.config.seed, platform, str(site.url))
        self.browser = InstrumentedBrowser(
            ecosystem, self.fcm, rng=self.rng, platform=platform
        )
        if platform == "mobile":
            self.device = AndroidDevice(browser=self.browser)

    # ------------------------------------------------------------------
    # Online-window schedule (suspend / resume policy)
    # ------------------------------------------------------------------
    def next_online_min(self, t: float) -> float:
        """Earliest instant >= t at which this container is online."""
        cfg = self.config
        live_end = self.start_min + cfg.permission_wait_min + cfg.live_window_min
        if t <= live_end:
            return max(t, self.start_min)
        study_end = self.start_min + cfg.study_minutes
        # Periodic resumes after the live window: if t falls inside the
        # current resume window the container is already online; otherwise
        # the message waits for the next resume (or the final drain).
        k = math.floor((t - self.start_min) / cfg.resume_every_min)
        resume_at = self.start_min + k * cfg.resume_every_min
        if k >= 1 and resume_at <= t <= resume_at + cfg.resume_window_min:
            return t
        next_resume = self.start_min + (k + 1) * cfg.resume_every_min
        return min(next_resume, study_end)  # final drain at study end

    # ------------------------------------------------------------------
    # Push stream planning (what the ad server / site sends us)
    # ------------------------------------------------------------------
    @property
    def _stream(self) -> random.Random:
        """The session's keyed stream; only a prompting session has one."""
        if self.rng is None:
            raise RuntimeError(f"{self.site.url} never prompts; nothing to draw")
        return self.rng

    def _plan_message_count(self, subscription: PushSubscription) -> int:
        cfg = self.config
        if subscription.is_ad_subscription:
            mean = cfg.mean_messages_per_sub
            if self.platform == "mobile":
                mean *= cfg.mobile_message_factor
        else:
            mean = cfg.mean_alert_messages
        # Geometric with the configured mean, at least one message.
        p = 1.0 / max(mean, 1.0)
        count = 1
        while self._stream.random() > p and count < 200:
            count += 1
        return count

    def _plan_send_times(self, subscribe_min: float, count: int) -> List[float]:
        cfg = self.config
        first = subscribe_min + self._stream.lognormvariate(
            math.log(cfg.first_latency_median_min), cfg.first_latency_sigma
        )
        study_end = self.start_min + cfg.study_minutes
        first = min(first, study_end)
        times = [first]
        for _ in range(count - 1):
            times.append(self._stream.uniform(first, study_end))
        return sorted(times)

    def _make_creative(
        self, subscription: PushSubscription, sent_at_min: float
    ) -> Optional[MessageCreative]:
        rng = self._stream
        if not subscription.is_ad_subscription:
            return self._alert_creative(
                subscription.alert_family, subscription.origin.split("//", 1)[1]
            )
        spec = self.ecosystem.networks.get(subscription.network_name)
        ad_share = spec.ad_share if spec else 0.9
        if rng.random() < ad_share or self.site.own_content_family is None:
            return self.ecosystem.sample_ad_message(
                subscription.network_name, self.platform, rng,
                emulated=self.emulated, at_min=sent_at_min,
            )
        # The publisher's own content notification relayed via the network.
        return self._alert_creative(self.site.own_content_family, self.site.domain)

    def _alert_creative(self, family_name: str, domain: str) -> MessageCreative:
        """A site's own alert; sites often resend an identical alert
        (re-engagement reminders), which is what yields the paper's
        single-source non-singleton clusters like WPN-C3."""
        rng = self._stream
        if self._sent_alerts and rng.random() < self.config.alert_repeat_rate:
            return rng.choice(self._sent_alerts)
        creative = self.ecosystem.sample_alert_message(family_name, domain, rng)
        self._sent_alerts.append(creative)
        return creative

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SessionResult:
        browser, fcm = self.browser, self.fcm
        if browser is None or fcm is None:
            # No prompt: the page renders and nothing else can happen.
            return SessionResult(
                site=self.site,
                platform=self.platform,
                requested_permission=False,
                subscriptions=0,
            )
        visit = browser.visit(self.site, self.start_min)
        result = SessionResult(
            site=self.site,
            platform=self.platform,
            requested_permission=True,
            subscriptions=len(visit.subscriptions),
        )
        if not visit.subscriptions or not self.site.active_notifier:
            return result

        # The ad server / site schedules its sends up front; FCM queues them.
        for subscription in visit.subscriptions:
            count = self._plan_message_count(subscription)
            for sent_at in self._plan_send_times(subscription.created_at_min, count):
                creative = self._make_creative(subscription, sent_at)
                if creative is not None:
                    fcm.send(subscription.endpoint, creative, sent_at)

        # Drain the FCM queue, mapping each send time onto the earliest
        # online window (live window, periodic resume, or final drain).
        deliveries: List[PushDelivery] = []
        for subscription in visit.subscriptions:
            for queued in fcm.deliver(subscription.endpoint, float("inf")):
                deliveries.append(
                    PushDelivery(
                        subscription=queued.subscription,
                        creative=queued.creative,
                        sent_at_min=queued.sent_at_min,
                        delivered_at_min=self.next_online_min(queued.sent_at_min),
                    )
                )
        deliveries.sort(key=lambda d: d.delivered_at_min)

        for delivery in deliveries:
            record, lead = self._process_delivery(delivery, browser)
            result.records.append(record)
            if lead is not None:
                result.landing_leads.append(lead)
            # First-notification latency: time from the permission grant
            # (subscription creation) to when the site *sent* its first
            # push — what the paper's 96-hour pilot measured.
            send_latency = (
                delivery.sent_at_min - delivery.subscription.created_at_min
            )
            if result.first_latency_min is None or send_latency < result.first_latency_min:
                result.first_latency_min = send_latency

        result.sw_requests = [
            r for r in browser.network.requests if r.initiator == "service_worker"
        ]
        return result

    def _process_delivery(
        self, delivery: PushDelivery, browser: InstrumentedBrowser
    ) -> Tuple[WpnRecord, Optional[LandingLead]]:
        now = delivery.delivered_at_min
        if self.device is not None:
            notification = self.device.receive_push(delivery, now)
            outcomes = self.device.auto_interact(now, self.config.click_delay_min)
            outcome = outcomes[-1]
        else:
            notification = browser.receive_push(delivery, now)
            outcome = browser.click_notification(
                notification, now + self.config.click_delay_min
            )
        record = self._record_from(delivery, notification, outcome)
        lead = None
        if outcome.landing_page is not None:
            lead = LandingLead(
                url=str(outcome.landing_page.url),
                requests_permission=outcome.landing_page.requests_permission,
                network_names=self.ecosystem.networks_of_landing(delivery.creative),
                discovered_at_min=outcome.clicked_at_min,
            )
        return record, lead

    def _record_from(
        self,
        delivery: PushDelivery,
        notification: WebNotification,
        outcome: ClickOutcome,
    ) -> WpnRecord:
        creative = delivery.creative
        campaign = (
            self.ecosystem.campaign(creative.campaign_id)
            if creative.campaign_id
            else None
        )
        family = family_by_name(creative.family_name)
        truth = WpnTruth(
            kind=family.kind if campaign is None else "ad",
            family_name=creative.family_name,
            category=family.category,
            campaign_id=creative.campaign_id,
            operation_id=campaign.operation_id if campaign else None,
            malicious=creative.malicious,
            is_one_off=creative.is_one_off,
        )
        landing = outcome.landing_page
        self._wpn_index += 1
        return WpnRecord(
            wpn_id=f"wpn-{self.session_key}-{self._wpn_index:04d}",
            platform=self.platform,
            source_url=str(self.site.url),
            network_name=delivery.subscription.network_name,
            sw_script_url=delivery.subscription.sw_script_url,
            title=notification.title,
            body=notification.body,
            icon_url=notification.icon_url,
            sent_at_min=delivery.sent_at_min,
            shown_at_min=notification.shown_at_min,
            clicked_at_min=outcome.clicked_at_min,
            valid=outcome.valid,
            landing_url=str(landing.url) if landing else None,
            redirect_hops=tuple(str(u) for u in outcome.chain.hops)
            if outcome.chain
            else (),
            visual_hash=landing.visual_hash if landing else None,
            landing_ip=landing.ip_address if landing else None,
            landing_registrant=landing.registrant if landing else None,
            truth=truth,
            page_signals=landing.page_signals if landing else (),
        )
