"""The instrumented browser: visit, subscribe, receive pushes, click.

One ``InstrumentedBrowser`` corresponds to one isolated browsing profile —
the crawler launches one per container/URL, exactly like the paper's
one-Docker-container-per-URL policy (which defeats ad-network cross-session
tracking).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.browser.events import EventKind, EventLog
from repro.browser.network import NetworkRequest, NetworkStack
from repro.browser.notifications import NotificationCenter, WebNotification
from repro.browser.permissions import PermissionManager, QuietUiPolicy
from repro.browser.service_worker import (
    ServiceWorkerRegistration,
    ServiceWorkerRuntime,
)
from repro.browser.tracking import CookieJar, CrossSessionTracker
from repro.push.fcm import FcmService, PushDelivery
from repro.push.subscription import PushSubscription
from repro.webenv.generator import WebEcosystem
from repro.webenv.landing import LandingPage, RedirectChain
from repro.webenv.website import Website


@dataclass(frozen=True)
class VisitResult:
    """What happened when the browser visited a URL."""

    site: Website
    decision: Optional[str]           # permission decision, if a prompt fired
    subscriptions: Tuple[PushSubscription, ...]


@dataclass(frozen=True)
class ClickOutcome:
    """Everything recorded for one automated notification click."""

    notification: WebNotification
    clicked_at_min: float
    sw_requests: Tuple[NetworkRequest, ...]
    chain: Optional[RedirectChain]
    landing_page: Optional[LandingPage]
    crashed: bool

    @property
    def valid(self) -> bool:
        """True when the click produced an analyzable landing page."""
        return self.landing_page is not None


class InstrumentedBrowser:
    """A single instrumented browsing profile on one platform."""

    def __init__(
        self,
        ecosystem: WebEcosystem,
        fcm: FcmService,
        rng: random.Random,
        platform: str = "desktop",
        quiet_ui: Optional[QuietUiPolicy] = None,
        event_log: Optional[EventLog] = None,
        tracker: Optional["CrossSessionTracker"] = None,
        cookie_jar: Optional["CookieJar"] = None,
    ):
        if platform not in ("desktop", "mobile"):
            raise ValueError(f"unknown platform: {platform!r}")
        self.platform = platform
        self.ecosystem = ecosystem
        self.fcm = fcm
        self.rng = rng
        self.events = event_log if event_log is not None else EventLog()
        self.permissions = PermissionManager(self.events, quiet_ui=quiet_ui)
        self.sw_runtime = ServiceWorkerRuntime(
            self.events, ecosystem.network_domains
        )
        self.notification_center = NotificationCenter(self.events)
        self.network = NetworkStack(self.events)
        self.tracker = tracker
        self.cookie_jar = cookie_jar if cookie_jar is not None else CookieJar()
        self._registration_by_endpoint: Dict[str, ServiceWorkerRegistration] = {}

    # ------------------------------------------------------------------
    # Visiting pages
    # ------------------------------------------------------------------
    def visit(self, site: Website, now_min: float) -> VisitResult:
        """Navigate to a site; auto-grant its permission prompt if any.

        A granted prompt registers the controlling service worker(s) and
        creates one push subscription per SW.
        """
        self.network.navigate(site.url, now_min)
        self.events.emit(
            EventKind.PAGE_RENDERED, now_min, url=str(site.url), page_kind=site.kind
        )
        if not site.requests_permission:
            return VisitResult(site=site, decision=None, subscriptions=())

        # Cross-session tracking (section 8): a profile the ad network has
        # already fingerprinted may simply never get the prompt again. The
        # crawler defeats this with a fresh profile per URL.
        if self.tracker is not None and site.kind == "publisher":
            allowed = self.tracker.allows_prompt(
                self.cookie_jar, site.network_names, self.rng
            )
            self.tracker.record_visit(self.cookie_jar, site.network_names)
            if not allowed:
                return VisitResult(site=site, decision=None, subscriptions=())

        prompt_at = now_min + site.permission_delay_min
        decision = self.permissions.request_permission(site, prompt_at)
        if decision != PermissionManager.GRANTED:
            return VisitResult(site=site, decision=decision, subscriptions=())

        subscriptions: List[PushSubscription] = []
        if site.kind == "publisher":
            for network_name in site.network_names:
                subscriptions.append(
                    self._register_and_subscribe(site, network_name, None, prompt_at)
                )
        elif site.kind == "alert":
            subscriptions.append(
                self._register_and_subscribe(site, None, site.alert_family, prompt_at)
            )
        return VisitResult(
            site=site, decision=decision, subscriptions=tuple(subscriptions)
        )

    def _register_and_subscribe(
        self,
        site: Website,
        network_name: Optional[str],
        alert_family: Optional[str],
        now_min: float,
    ) -> PushSubscription:
        registration = self.sw_runtime.register(
            origin=site.url.origin,
            scope_url=str(site.url),
            network_name=network_name,
            now_min=now_min,
        )
        subscription = self.fcm.subscribe(
            origin=site.url.origin,
            source_url=str(site.url),
            sw_script_url=registration.script_url,
            network_name=network_name,
            platform=self.platform,
            alert_family=alert_family,
            now_min=now_min,
        )
        self._registration_by_endpoint[subscription.endpoint] = registration
        self.events.emit(
            EventKind.SUBSCRIPTION_CREATED,
            now_min,
            endpoint=subscription.endpoint,
            origin=subscription.origin,
            network=network_name,
            alert_family=alert_family,
        )
        return subscription

    # ------------------------------------------------------------------
    # Push reception and clicks
    # ------------------------------------------------------------------
    def receive_push(
        self, delivery: PushDelivery, now_min: float
    ) -> WebNotification:
        """Route a delivered push to its SW, which shows the notification."""
        registration = self._registration_by_endpoint.get(
            delivery.subscription.endpoint
        )
        if registration is None:
            raise KeyError(
                f"no SW registered for endpoint {delivery.subscription.endpoint}"
            )
        self.sw_runtime.handle_push(registration, delivery, now_min)
        return self.notification_center.show(registration, delivery, now_min)

    def click_notification(
        self, notification: WebNotification, now_min: float
    ) -> ClickOutcome:
        """Automated click: SW click handler fires, navigation follows.

        With probability ``1 - valid_click_rate`` the resulting tab fails to
        produce an analyzable landing page (crash or no navigation), which
        the paper filtered out of its clustering dataset.
        """
        self.notification_center.click(notification, now_min)
        registration = notification.sw_registration
        sw_requests = tuple(
            self.sw_runtime.handle_notification_click(registration, now_min)
        )
        for request in sw_requests:
            self.network.record(request, now_min)

        creative = notification.delivery.creative
        valid_rate = (
            self.ecosystem.config.desktop_valid_click_rate
            if self.platform == "desktop"
            else self.ecosystem.config.mobile_valid_click_rate
        )
        if self.rng.random() >= valid_rate:
            self.events.emit(
                EventKind.TAB_CRASHED,
                now_min,
                notification_id=notification.notification_id,
            )
            return ClickOutcome(
                notification=notification,
                clicked_at_min=now_min,
                sw_requests=sw_requests,
                chain=None,
                landing_page=None,
                crashed=True,
            )

        chain, landing = self.ecosystem.resolve_click(
            creative, registration.network_name, rng=self.rng
        )
        self.network.follow_chain(chain, now_min)
        self.events.emit(
            EventKind.PAGE_RENDERED,
            now_min,
            url=str(landing.url),
            page_kind="landing",
            visual_hash=landing.visual_hash,
            requests_permission=landing.requests_permission,
        )
        return ClickOutcome(
            notification=notification,
            clicked_at_min=now_min,
            sw_requests=sw_requests,
            chain=chain,
            landing_page=landing,
            crashed=False,
        )
