"""Tests for the temporal analysis of the WPN stream."""

import pytest

from repro.core.timeline import timeline_report
from tests.core.test_records_features import make_record


class TestTimelineReport:
    def test_bucket_partition(self, small_dataset):
        report = timeline_report(small_dataset.records)
        assert report.total == len(small_dataset.records)
        for bucket in report.buckets:
            assert bucket.malicious <= bucket.total
            assert bucket.ads <= bucket.total

    def test_queue_dominates_long_study(self, small_dataset):
        # With a 15-minute live window on a two-month study, most messages
        # wait for a resume drain — the design the paper built around FCM
        # queueing.
        report = timeline_report(small_dataset.records)
        assert report.queued_share > 0.5

    def test_bucket_boundaries(self):
        records = [
            make_record(wpn_id="a", sent_at_min=10.0, shown_at_min=10.5),
            make_record(wpn_id="b", sent_at_min=1500.0, shown_at_min=1500.1),
        ]
        report = timeline_report(records, bucket_minutes=1440.0)
        assert len(report.buckets) == 2
        assert report.buckets[0].total == 1
        assert report.buckets[1].total == 1

    def test_live_vs_queued_classification(self):
        records = [
            make_record(wpn_id="live", sent_at_min=5.0, shown_at_min=5.2),
            make_record(wpn_id="queued", sent_at_min=5.0, shown_at_min=700.0),
        ]
        report = timeline_report(records)
        assert report.live_deliveries == 1
        assert report.queued_deliveries == 1
        assert report.queued_share == pytest.approx(0.5)

    def test_empty(self):
        report = timeline_report([])
        assert report.total == 0
        assert report.peak_bucket() is None
        assert report.queued_share == 0.0

    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            timeline_report([], bucket_minutes=0)

    def test_peak_bucket(self):
        records = [
            make_record(wpn_id=f"x{i}", sent_at_min=100.0 + i, shown_at_min=200.0)
            for i in range(5)
        ] + [make_record(wpn_id="y", sent_at_min=5000.0, shown_at_min=5001.0)]
        report = timeline_report(records, bucket_minutes=1440.0)
        assert report.peak_bucket().total == 5

