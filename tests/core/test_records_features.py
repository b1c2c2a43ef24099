"""Tests for WPN records and feature extraction."""

import dataclasses
import json
import pickle

import pytest

from repro.core.features import extract_all, extract_features
from repro.core.pipeline import PushAdMiner
from repro.core.records import WpnRecord, WpnTruth
from repro.io import record_to_dict, save_records
from repro.util.urls import Url


def make_record(**overrides):
    defaults = dict(
        wpn_id="wpn0000001",
        platform="desktop",
        source_url="https://www.pub.example.com/",
        network_name="Ad-Maven",
        sw_script_url="https://www.pub.example.com/sw/admaven-push-sw.js",
        title="You have been selected!",
        body="Claim your $500 voucher now.",
        icon_url="https://www.pub.example.com/icons/x.png",
        sent_at_min=1.0,
        shown_at_min=2.0,
        clicked_at_min=2.1,
        valid=True,
        landing_url="https://win-prize.xyz/of12a/survey/start.php?sid=9&src=push",
        redirect_hops=("https://click.admaven.com/c/redirect?nid=1",
                       "https://win-prize.xyz/of12a/survey/start.php?sid=9&src=push"),
        visual_hash="abc123",
        landing_ip="185.1.2.3",
        landing_registrant="reg@privacyguard.example",
        truth=WpnTruth(
            kind="ad", family_name="survey_scam", category="survey scam",
            campaign_id="cmp00001", operation_id="op0001",
            malicious=True, is_one_off=False,
        ),
    )
    defaults.update(overrides)
    return WpnRecord(**defaults)


class TestWpnRecord:
    def test_valid_requires_landing(self):
        with pytest.raises(ValueError):
            make_record(landing_url=None)

    def test_platform_validated(self):
        with pytest.raises(ValueError):
            make_record(platform="tv")

    def test_derived_domains(self):
        record = make_record()
        assert record.source_domain == "www.pub.example.com"
        assert record.source_etld1 == "example.com"
        assert record.landing_domain == "win-prize.xyz"
        assert record.landing_etld1 == "win-prize.xyz"

    def test_text_concatenation(self):
        record = make_record()
        assert record.text == f"{record.title} {record.body}"

    def test_invalid_record_has_no_landing(self):
        record = make_record(valid=False, landing_url=None, redirect_hops=(),
                             visual_hash=None, landing_ip=None,
                             landing_registrant=None)
        assert record.landing is None
        assert record.landing_etld1 is None

    def test_delivery_latency(self):
        assert make_record().delivery_latency_min == 1.0


class TestFeatures:
    def test_text_tokens(self):
        features = extract_features(make_record())
        assert "selected" in features.text_tokens
        assert "voucher" in features.text_tokens

    def test_url_tokens_exclude_domain_and_values(self):
        features = extract_features(make_record())
        assert "win-prize" not in features.url_tokens
        assert "xyz" not in features.url_tokens
        assert "sid" in features.url_tokens
        assert "survey" in features.url_tokens
        assert "9" not in features.url_tokens
        assert features.has_url_tokens

    def test_invalid_record_rejected(self):
        record = make_record(valid=False, landing_url=None, redirect_hops=(),
                             visual_hash=None, landing_ip=None,
                             landing_registrant=None)
        with pytest.raises(ValueError):
            extract_features(record)

    def test_extract_all_preserves_order(self):
        a = make_record()
        b = make_record(wpn_id="wpn0000002", title="other title")
        features = extract_all([a, b])
        assert len(features) == 2
        assert "other" in features[1].text_tokens


#: Every derived observable a record caches on first read.
DERIVED = ("source_domain", "source_etld1", "landing", "landing_domain",
           "landing_etld1", "features")


def _fingerprint(record):
    """The record's field-level identity: io JSON line, asdict, hash."""
    return (
        json.dumps(record_to_dict(record), sort_keys=True),
        dataclasses.asdict(record),
        hash(record),
    )


class TestDerivedCache:
    """Derived observables are cached outside the dataclass fields."""

    def test_reads_leave_field_identity_unchanged(self, tmp_path):
        record, twin = make_record(), make_record()
        before = _fingerprint(record)
        save_records([record], tmp_path / "before.jsonl")
        for name in DERIVED:
            getattr(record, name)
        # The reads were cached, outside the dataclass fields.
        assert len(vars(record)) > len(dataclasses.fields(record))
        save_records([record], tmp_path / "after.jsonl")
        assert (tmp_path / "after.jsonl").read_bytes() == (
            tmp_path / "before.jsonl"
        ).read_bytes()
        assert _fingerprint(record) == before
        assert record == twin and hash(record) == hash(twin)
        assert pickle.loads(pickle.dumps(record)) == twin

    def test_cached_values_equal_a_fresh_derivation(self):
        record = make_record()
        first = [getattr(record, name) for name in DERIVED]
        assert [getattr(make_record(), name) for name in DERIVED] == first
        # A second read returns the very object the first one cached.
        assert all(getattr(record, n) is v for n, v in zip(DERIVED, first))

    def test_replace_derives_afresh(self):
        record = make_record()
        assert record.landing_etld1 == "win-prize.xyz"
        moved = dataclasses.replace(
            record, landing_url="https://other.example.org/a/b.php"
        )
        assert moved.landing_etld1 == "example.org"
        assert moved.features.url_tokens == frozenset({"a", "b", "php"})

    def test_invalid_record_refuses_features_on_every_read(self):
        record = make_record(valid=False, landing_url=None, redirect_hops=(),
                             visual_hash=None, landing_ip=None,
                             landing_registrant=None)
        assert record.source_etld1 == "example.com"
        for _ in range(2):
            with pytest.raises(ValueError, match="no landing page"):
                record.features

    def test_two_verdict_passes_parse_each_url_once(
        self, small_dataset, small_result, monkeypatch
    ):
        # Fresh copies: no derived value is cached on them yet.
        records = [dataclasses.replace(r) for r in small_result.records]
        parsed = []
        parse = Url.parse.__func__

        def counting(cls, text):
            parsed.append(text)
            return parse(cls, text)

        monkeypatch.setattr(Url, "parse", classmethod(counting))
        miner = PushAdMiner.for_dataset(small_dataset)
        first = miner.run_verdict_stages(records, small_result.labels)
        second = miner.run_verdict_stages(records, small_result.labels)
        # One source and one landing URL per record, across both passes.
        assert len(parsed) <= 2 * len(records)
        assert second.labeling == first.labeling
        assert second.suspicion == first.suspicion


class TestPageSignals:
    def test_page_signals_default_empty(self):
        assert make_record().page_signals == ()

    def test_crawled_records_carry_signals(self, small_dataset):
        valid = small_dataset.valid_records
        with_signals = [r for r in valid if r.page_signals]
        # The 0.85 per-element render rate leaves almost every page with
        # at least one recorded element.
        assert len(with_signals) > 0.7 * len(valid)

    def test_invalid_records_have_no_signals(self, small_dataset):
        for record in small_dataset.records:
            if not record.valid:
                assert record.page_signals == ()

    def test_tech_support_pages_show_phone_numbers(self, small_dataset):
        pages = [
            r for r in small_dataset.valid_records
            if r.truth.family_name == "tech_support"
        ]
        if pages:
            with_phone = sum(
                1 for r in pages if "support-phone-number" in r.page_signals
            )
            assert with_phone / len(pages) > 0.5
