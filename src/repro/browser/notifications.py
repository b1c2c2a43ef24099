"""Notification display: the browser's message center.

Models Chromium's ``MessageCenterNotificationManager::Add`` (where the
paper's instrumentation hooks the display and schedules an automatic
``WebNotificationDelegate::Click``) and the ``showNotification`` call that
records title/body/icon/target metadata.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List

from repro.browser.events import EventKind, EventLog
from repro.browser.service_worker import ServiceWorkerRegistration
from repro.push.fcm import PushDelivery


@dataclass(frozen=True)
class WebNotification:
    """A displayed web push notification and its provenance."""

    notification_id: str
    title: str
    body: str
    icon_url: str
    sw_registration: ServiceWorkerRegistration
    delivery: PushDelivery
    shown_at_min: float
    actions: tuple = ()   # custom action-button labels, if any

    @property
    def source_origin(self) -> str:
        return self.sw_registration.origin


class NotificationCenter:
    """Displays notifications and propagates (automated) clicks."""

    def __init__(self, event_log: EventLog):
        self._log = event_log
        self._counter = itertools.count(1)
        self._shown: List[WebNotification] = []
        self._clicked_ids: set = set()

    @property
    def shown(self) -> List[WebNotification]:
        return list(self._shown)

    def show(
        self,
        sw_registration: ServiceWorkerRegistration,
        delivery: PushDelivery,
        now_min: float,
    ) -> WebNotification:
        """``showNotification`` hook: display + log the full metadata."""
        creative = delivery.creative
        icon_name = creative.icon_brand or f"push-{creative.family_name}"
        notification = WebNotification(
            notification_id=f"ntf{next(self._counter):07d}",
            title=creative.title,
            body=creative.body,
            icon_url=f"{sw_registration.origin}/icons/{icon_name}.png",
            sw_registration=sw_registration,
            delivery=delivery,
            shown_at_min=now_min,
            actions=tuple(creative.actions),
        )
        self._shown.append(notification)
        self._log.emit(
            EventKind.NOTIFICATION_SHOWN,
            now_min,
            notification_id=notification.notification_id,
            sw_id=sw_registration.sw_id,
            origin=sw_registration.origin,
            title=creative.title,
            body=creative.body,
            icon_url=notification.icon_url,
            actions=list(notification.actions),
        )
        return notification

    def click(self, notification: WebNotification, now_min: float) -> None:
        """``WebNotificationDelegate::Click`` hook (the automated click)."""
        if notification.notification_id in self._clicked_ids:
            raise ValueError(
                f"notification {notification.notification_id} already clicked"
            )
        self._clicked_ids.add(notification.notification_id)
        self._log.emit(
            EventKind.NOTIFICATION_CLICKED,
            now_min,
            notification_id=notification.notification_id,
            origin=notification.source_origin,
        )

    def click_action(
        self, notification: WebNotification, action_index: int, now_min: float
    ) -> str:
        """A click on one of the notification's custom action buttons.

        Returns the action label; the SW's ``notificationclick`` handler
        receives the action name in the real API.
        """
        if not 0 <= action_index < len(notification.actions):
            raise IndexError(
                f"notification {notification.notification_id} has "
                f"{len(notification.actions)} actions; index {action_index} invalid"
            )
        if notification.notification_id in self._clicked_ids:
            raise ValueError(
                f"notification {notification.notification_id} already clicked"
            )
        self._clicked_ids.add(notification.notification_id)
        label = notification.actions[action_index]
        self._log.emit(
            EventKind.NOTIFICATION_ACTION_CLICKED,
            now_min,
            notification_id=notification.notification_id,
            origin=notification.source_origin,
            action=label,
        )
        return label

    def close(self, notification: WebNotification, now_min: float) -> None:
        """The user dismisses the notification without clicking it."""
        if notification.notification_id in self._clicked_ids:
            raise ValueError(
                f"notification {notification.notification_id} already clicked"
            )
        self._clicked_ids.add(notification.notification_id)
        self._log.emit(
            EventKind.NOTIFICATION_CLOSED,
            now_min,
            notification_id=notification.notification_id,
            origin=notification.source_origin,
        )

    def was_clicked(self, notification: WebNotification) -> bool:
        return notification.notification_id in self._clicked_ids
