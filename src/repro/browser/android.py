"""Android environment: OS notification tray + accessibility automation.

On Android, WPNs are displayed by the OS (not the browser), and the paper
automates interaction with a privileged Accessibility Service app that
swipes down the tray and taps every notification, while browser logs stream
out over ADB logcat. We model the tray, the accessibility service, and the
logcat channel so the mobile crawl path is structurally distinct from the
desktop one, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.browser.browser import ClickOutcome, InstrumentedBrowser
from repro.browser.events import BrowserEvent
from repro.browser.notifications import WebNotification


class AndroidNotificationTray:
    """The OS notification shade: holds WPNs until something taps them."""

    def __init__(self):
        self._pending: List[WebNotification] = []
        self._listeners: List[Callable[[WebNotification], None]] = []

    def post(self, notification: WebNotification) -> None:
        """OS receives a notification; fires TYPE_NOTIFICATION_STATE_CHANGED."""
        self._pending.append(notification)
        for listener in self._listeners:
            listener(notification)

    def on_state_changed(
        self, listener: Callable[[WebNotification], None]
    ) -> None:
        """Register an accessibility-event listener."""
        self._listeners.append(listener)

    def take_pending(self) -> List[WebNotification]:
        """Remove and return everything currently in the shade."""
        pending, self._pending = self._pending, []
        return pending

    def __len__(self) -> int:
        return len(self._pending)


class AccessibilityService:
    """The automation app: taps every notification that appears."""

    def __init__(self, tray: AndroidNotificationTray):
        self._tray = tray
        self.taps = 0
        tray.on_state_changed(self._on_notification)
        self._queue: List[WebNotification] = []

    def _on_notification(self, notification: WebNotification) -> None:
        self._queue.append(notification)

    def drain(
        self, browser: InstrumentedBrowser, now_min: float, click_delay_min: float
    ) -> List[ClickOutcome]:
        """Swipe down and tap each queued notification, in arrival order."""
        outcomes = []
        self._tray.take_pending()
        queue, self._queue = self._queue, []
        for notification in queue:
            self.taps += 1
            outcomes.append(
                browser.click_notification(
                    notification, now_min + click_delay_min
                )
            )
        return outcomes


class AdbLogcat:
    """The ADB logcat channel mirroring browser events off the device."""

    def __init__(self):
        self.lines: List[str] = []

    def write_event(self, event: BrowserEvent) -> None:
        payload = " ".join(f"{k}={v}" for k, v in sorted(event.data.items()))
        self.lines.append(
            f"[{event.time_min:10.2f}] chromium/{event.kind}: {payload}"
        )


@dataclass
class AndroidDevice:
    """A physical Android device running the instrumented browser.

    The browser posts notifications to the OS tray; the accessibility
    service taps them; logcat mirrors every instrumentation event.
    """

    browser: InstrumentedBrowser
    tray: AndroidNotificationTray = field(default_factory=AndroidNotificationTray)
    logcat: AdbLogcat = field(default_factory=AdbLogcat)
    accessibility: Optional[AccessibilityService] = None

    def __post_init__(self):
        if self.browser.platform != "mobile":
            raise ValueError("AndroidDevice requires a mobile-platform browser")
        if self.accessibility is None:
            self.accessibility = AccessibilityService(self.tray)

    def receive_push(self, delivery, now_min: float) -> WebNotification:
        """Push arrives: SW shows it, the OS tray gets it."""
        notification = self.browser.receive_push(delivery, now_min)
        self.tray.post(notification)
        return notification

    def auto_interact(self, now_min: float, click_delay_min: float) -> List[ClickOutcome]:
        """Let the accessibility service tap everything pending."""
        outcomes = self.accessibility.drain(
            self.browser, now_min, click_delay_min
        )
        self.sync_logcat()
        return outcomes

    def sync_logcat(self) -> None:
        """Mirror the browser events not yet on the log channel.

        The channel holds one line per mirrored event, so its length is
        where the unmirrored tail of the event log starts.
        """
        for event in self.browser.events.since(len(self.logcat.lines)):
            self.logcat.write_event(event)
