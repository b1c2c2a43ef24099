"""Temporal analysis of the collected WPN stream.

The crawl spans two simulated months; this module buckets the collected
messages over time to answer the longitudinal questions the paper's
methodology raises: how quickly subscriptions start paying out, how the
malicious share evolves, and how much of the stream arrives via the
suspend/resume queue drains rather than the live window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.records import WpnRecord
from repro.util.stats import safe_ratio


@dataclass(frozen=True)
class TimeBucket:
    """One time slice of the collected stream."""

    start_min: float
    end_min: float
    total: int
    malicious: int
    ads: int

    @property
    def malicious_share(self) -> float:
        return safe_ratio(self.malicious, self.total)


@dataclass
class TimelineReport:
    """Bucketed WPN arrivals over the study."""

    buckets: List[TimeBucket]
    bucket_minutes: float
    queued_deliveries: int     # delivered on a resume, not in real time
    live_deliveries: int

    @property
    def total(self) -> int:
        return sum(b.total for b in self.buckets)

    @property
    def queued_share(self) -> float:
        return safe_ratio(
            self.queued_deliveries, self.queued_deliveries + self.live_deliveries
        )

    def peak_bucket(self) -> Optional[TimeBucket]:
        non_empty = [b for b in self.buckets if b.total]
        return max(non_empty, key=lambda b: b.total) if non_empty else None


def timeline_report(
    records: Sequence[WpnRecord],
    bucket_minutes: float = 24 * 60.0,
    queue_threshold_min: float = 1.0,
) -> TimelineReport:
    """Bucket records by *send* time; classify live vs queued delivery.

    A delivery is "queued" when it reached the browser more than
    ``queue_threshold_min`` after it was sent — i.e. it waited for a
    container resume rather than arriving during a live window.
    """
    if bucket_minutes <= 0:
        raise ValueError("bucket_minutes must be positive")
    records = list(records)
    if not records:
        return TimelineReport(
            buckets=[], bucket_minutes=bucket_minutes,
            queued_deliveries=0, live_deliveries=0,
        )

    horizon = max(r.sent_at_min for r in records)
    n_buckets = int(horizon // bucket_minutes) + 1
    counts = [[0, 0, 0] for _ in range(n_buckets)]
    queued = live = 0
    for record in records:
        index = int(record.sent_at_min // bucket_minutes)
        counts[index][0] += 1
        if record.truth.malicious:
            counts[index][1] += 1
        if record.truth.kind == "ad":
            counts[index][2] += 1
        if record.delivery_latency_min > queue_threshold_min:
            queued += 1
        else:
            live += 1

    buckets = [
        TimeBucket(
            start_min=i * bucket_minutes,
            end_min=(i + 1) * bucket_minutes,
            total=total,
            malicious=malicious,
            ads=ads,
        )
        for i, (total, malicious, ads) in enumerate(counts)
    ]
    return TimelineReport(
        buckets=buckets,
        bucket_minutes=bucket_minutes,
        queued_deliveries=queued,
        live_deliveries=live,
    )
