"""FCM-like push broker with offline queueing.

The broker assigns registration IDs on subscribe, accepts messages addressed
to an endpoint at a given (simulated) time, and releases each message the
first time its subscriber is online at or after the send time. The crawler's
suspend/resume container policy interacts with exactly this behaviour.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.push.subscription import PushSubscription
from repro.webenv.campaigns import MessageCreative


@dataclass(frozen=True)
class QueuedMessage:
    """A push payload sitting in the broker, waiting for its subscriber."""

    endpoint: str
    creative: MessageCreative
    sent_at_min: float


@dataclass(frozen=True)
class PushDelivery:
    """A payload handed to a browser, with both send and delivery times."""

    subscription: PushSubscription
    creative: MessageCreative
    sent_at_min: float
    delivered_at_min: float

    @property
    def latency_min(self) -> float:
        return self.delivered_at_min - self.sent_at_min


class FcmService:
    """Central push broker: subscribe, send, deliver-on-resume.

    ``namespace`` prefixes every minted endpoint / registration ID. The
    parallel crawl gives each container session its own broker named after
    the session key, so ids stay globally unique and deterministic even
    though no counter is shared across sessions (or worker processes).
    """

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._prefix = f"{namespace}-" if namespace else ""
        self._counter = itertools.count(1)
        self._subs: Dict[str, PushSubscription] = {}
        self._queues: Dict[str, List[QueuedMessage]] = {}
        self.total_sent = 0
        self.total_delivered = 0

    def subscribe(
        self,
        origin: str,
        source_url: str,
        sw_script_url: str,
        network_name: Optional[str],
        platform: str,
        alert_family: Optional[str] = None,
        now_min: float = 0.0,
    ) -> PushSubscription:
        """Create a subscription; mints registration ID + endpoint."""
        number = next(self._counter)
        sub = PushSubscription(
            endpoint=f"https://fcm.example/send/{self._prefix}{number:08d}",
            registration_id=f"reg-{self._prefix}{number:08d}",
            origin=origin,
            source_url=source_url,
            sw_script_url=sw_script_url,
            network_name=network_name,
            platform=platform,
            alert_family=alert_family,
            created_at_min=now_min,
        )
        self._subs[sub.endpoint] = sub
        self._queues[sub.endpoint] = []
        return sub

    def subscription(self, endpoint: str) -> PushSubscription:
        return self._subs[endpoint]

    @property
    def subscriptions(self) -> List[PushSubscription]:
        return list(self._subs.values())

    def send(
        self, endpoint: str, creative: MessageCreative, now_min: float
    ) -> None:
        """Accept a push for an endpoint; it queues until delivery."""
        if endpoint not in self._subs:
            raise KeyError(f"unknown endpoint: {endpoint!r}")
        self._queues[endpoint].append(
            QueuedMessage(endpoint=endpoint, creative=creative, sent_at_min=now_min)
        )
        self.total_sent += 1

    def pending(self, endpoint: str, now_min: float) -> int:
        """Messages queued for the endpoint with send time <= now."""
        return sum(
            1 for m in self._queues.get(endpoint, []) if m.sent_at_min <= now_min
        )

    def deliver(self, endpoint: str, now_min: float) -> List[PushDelivery]:
        """Release every queued message already sent by ``now_min``.

        Called when the subscriber's browser is (back) online; models the
        FCM queue draining on container resume.
        """
        if endpoint not in self._subs:
            raise KeyError(f"unknown endpoint: {endpoint!r}")
        queue = self._queues[endpoint]
        ready = [m for m in queue if m.sent_at_min <= now_min]
        self._queues[endpoint] = [m for m in queue if m.sent_at_min > now_min]
        deliveries = [
            PushDelivery(
                subscription=self._subs[m.endpoint],
                creative=m.creative,
                sent_at_min=m.sent_at_min,
                delivered_at_min=now_min,
            )
            for m in ready
        ]
        self.total_delivered += len(deliveries)
        return deliveries
