"""Tests for the Android environment: tray, accessibility service, logcat."""

import pytest

from repro.browser.android import (
    AccessibilityService,
    AdbLogcat,
    AndroidDevice,
    AndroidNotificationTray,
)
from repro.browser.browser import InstrumentedBrowser
from repro.push.fcm import FcmService
from repro.util.rng import RngFactory


def mobile_browser(ecosystem, seed=1):
    return InstrumentedBrowser(
        ecosystem, FcmService(), rng=RngFactory(seed).stream("m"),
        platform="mobile",
    )


def mobile_publisher(ecosystem):
    for site in ecosystem.websites:
        if site.kind == "publisher" and site.requests_permission:
            return site
    raise AssertionError("no publisher")


def push_once(device, ecosystem):
    site = mobile_publisher(ecosystem)
    visit = device.browser.visit(site, 0.0)
    sub = visit.subscriptions[0]
    rng = RngFactory(3).stream("push")
    creative = None
    while creative is None:
        creative = ecosystem.sample_ad_message(sub.network_name, "mobile", rng)
    device.browser.fcm.send(sub.endpoint, creative, 1.0)
    delivery = device.browser.fcm.deliver(sub.endpoint, 2.0)[0]
    return device.receive_push(delivery, 2.0)


class TestTray:
    def test_post_and_drain(self, small_ecosystem):
        tray = AndroidNotificationTray()
        seen = []
        tray.on_state_changed(seen.append)
        tray.post("notification-object")
        assert len(tray) == 1
        assert seen == ["notification-object"]
        assert tray.take_pending() == ["notification-object"]
        assert len(tray) == 0


class TestAndroidDevice:
    def test_requires_mobile_browser(self, small_ecosystem):
        desktop = InstrumentedBrowser(
            small_ecosystem, FcmService(),
            rng=RngFactory(1).stream("d"), platform="desktop",
        )
        with pytest.raises(ValueError):
            AndroidDevice(browser=desktop)

    def test_push_lands_in_os_tray(self, small_ecosystem):
        device = AndroidDevice(browser=mobile_browser(small_ecosystem))
        push_once(device, small_ecosystem)
        assert len(device.tray) == 1

    def test_accessibility_taps_everything(self, small_ecosystem):
        device = AndroidDevice(browser=mobile_browser(small_ecosystem))
        push_once(device, small_ecosystem)
        outcomes = device.auto_interact(now_min=2.0, click_delay_min=0.05)
        assert len(outcomes) == 1
        assert device.accessibility.taps == 1
        assert len(device.tray) == 0
        # Tapping twice does nothing new.
        assert device.auto_interact(2.1, 0.05) == []

    def test_logcat_mirrors_events(self, small_ecosystem):
        device = AndroidDevice(browser=mobile_browser(small_ecosystem))
        push_once(device, small_ecosystem)
        device.auto_interact(2.0, 0.05)
        assert len(device.logcat.lines) == len(device.browser.events)
        assert any("notification_shown" in line for line in device.logcat.lines)

    def test_logcat_after_many_interactions_is_a_full_render(
        self, small_ecosystem
    ):
        device = AndroidDevice(browser=mobile_browser(small_ecosystem))
        visit = device.browser.visit(mobile_publisher(small_ecosystem), 0.0)
        sub = visit.subscriptions[0]
        rng = RngFactory(5).stream("pushes")
        for step in range(5):
            creative = None
            while creative is None:
                creative = small_ecosystem.sample_ad_message(
                    sub.network_name, "mobile", rng
                )
            now = 1.0 + step
            device.browser.fcm.send(sub.endpoint, creative, now)
            delivery = device.browser.fcm.deliver(sub.endpoint, now)[0]
            device.receive_push(delivery, now)
            device.auto_interact(now, 0.05)
        device.sync_logcat()  # idempotent once caught up
        full = AdbLogcat()
        for event in device.browser.events:
            full.write_event(event)
        assert device.accessibility.taps == 5
        assert device.logcat.lines == full.lines

    def test_mobile_click_validity_rate_is_low(self, small_ecosystem):
        # The paper's mobile crawl lost ~70% of clicks to missing landings.
        valid = 0
        total = 40
        for i in range(total):
            device = AndroidDevice(browser=mobile_browser(small_ecosystem, seed=i))
            push_once(device, small_ecosystem)
            outcomes = device.auto_interact(2.0, 0.05)
            valid += sum(1 for o in outcomes if o.valid)
        rate = valid / total
        expected = small_ecosystem.config.mobile_valid_click_rate
        assert abs(rate - expected) < 0.2
