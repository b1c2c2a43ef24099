"""Tests for container sessions: timing policy and record production."""

from dataclasses import replace

import pytest

from repro.crawler.session import ContainerSession


def make_session(ecosystem, site, platform="desktop", start=0.0):
    return ContainerSession(
        ecosystem=ecosystem, site=site, platform=platform, start_min=start
    )


def active_publisher(ecosystem):
    for site in ecosystem.websites:
        if site.kind == "publisher" and site.requests_permission and site.active_notifier:
            return site
    raise AssertionError("no active publisher")


def inactive_site(ecosystem):
    for site in ecosystem.websites:
        if site.requests_permission and not site.active_notifier:
            return site
    raise AssertionError("none found")


class TestOnlineWindows:
    def test_within_live_window_is_immediate(self, small_ecosystem):
        session = make_session(small_ecosystem, active_publisher(small_ecosystem))
        config = small_ecosystem.config
        t = config.permission_wait_min + 2.0
        assert session.next_online_min(t) == t

    def test_after_live_window_waits_for_resume(self, small_ecosystem):
        session = make_session(small_ecosystem, active_publisher(small_ecosystem))
        config = small_ecosystem.config
        t = config.permission_wait_min + config.live_window_min + 5.0
        delivered = session.next_online_min(t)
        assert delivered > t
        assert (delivered - session.start_min) % config.resume_every_min == 0

    def test_inside_resume_window_is_immediate(self, small_ecosystem):
        session = make_session(small_ecosystem, active_publisher(small_ecosystem))
        config = small_ecosystem.config
        t = config.resume_every_min + config.resume_window_min / 2
        assert session.next_online_min(t) == t

    def test_never_beyond_study_end(self, small_ecosystem):
        session = make_session(small_ecosystem, active_publisher(small_ecosystem))
        config = small_ecosystem.config
        t = config.study_minutes - 1.0
        assert session.next_online_min(t) <= config.study_minutes


class TestRun:
    def test_inactive_site_produces_nothing(self, small_ecosystem):
        result = make_session(small_ecosystem, inactive_site(small_ecosystem)).run()
        assert result.records == []
        assert result.requested_permission

    def test_active_publisher_produces_records(self, small_ecosystem):
        result = make_session(small_ecosystem, active_publisher(small_ecosystem)).run()
        assert result.records
        for record in result.records:
            assert record.platform == "desktop"
            assert record.source_url == str(result.site.url)
            assert record.title
            assert record.shown_at_min >= record.sent_at_min
            if record.valid:
                assert record.landing_url is not None
                assert record.redirect_hops
            else:
                assert record.landing_url is None

    def test_records_have_consistent_truth(self, small_ecosystem):
        result = make_session(small_ecosystem, active_publisher(small_ecosystem)).run()
        for record in result.records:
            if record.truth.campaign_id is not None:
                campaign = small_ecosystem.campaign(record.truth.campaign_id)
                assert record.truth.malicious == campaign.malicious
                assert record.truth.kind == "ad"
            else:
                assert not record.truth.malicious

    def test_leads_only_from_valid_landings(self, small_ecosystem):
        result = make_session(small_ecosystem, active_publisher(small_ecosystem)).run()
        valid = sum(1 for r in result.records if r.valid)
        assert len(result.landing_leads) == valid

    def test_first_latency_is_send_latency(self, small_ecosystem):
        result = make_session(small_ecosystem, active_publisher(small_ecosystem)).run()
        if result.first_latency_min is not None:
            assert result.first_latency_min >= 0.0

    def test_sw_requests_collected(self, small_ecosystem):
        result = make_session(small_ecosystem, active_publisher(small_ecosystem)).run()
        assert result.sw_requests
        assert all(r.initiator == "service_worker" for r in result.sw_requests)

    def test_mobile_session_uses_android_path(self, small_ecosystem):
        site = active_publisher(small_ecosystem)
        session = make_session(small_ecosystem, site, platform="mobile")
        result = session.run()
        assert session.device is not None
        assert session.device.accessibility.taps == len(result.records)

    def test_alert_repeats_happen(self, small_ecosystem):
        # With repeat rate > 0, an alert-heavy site eventually resends a
        # creative verbatim. The session stream is keyed by the config
        # seed, so each seed gives the same site a fresh stream.
        for site in small_ecosystem.websites:
            if site.kind == "alert" and site.requests_permission:
                break
        site = replace(site, active_notifier=True)
        repeats = 0
        for seed in range(12):
            ecosystem = replace(
                small_ecosystem, config=replace(small_ecosystem.config, seed=seed)
            )
            result = make_session(ecosystem, site).run()
            titles = [r.title for r in result.records]
            if len(titles) != len(set(titles)):
                repeats += 1
        assert repeats > 0
