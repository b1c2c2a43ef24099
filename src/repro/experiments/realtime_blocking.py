"""What-if: deploying the detector as a real-time WPN blocker.

The paper closes by proposing that malicious WPNs "can be accurately
detected and blocked in real time". This experiment evaluates that
deployment honestly, respecting time:

1. Run the measurement pipeline on the WPNs *sent during the first part of
   the study* (the analyst's labeling pass happens on collected data).
2. Train the record-level detector on those pipeline labels.
3. Replay the *later* WPNs in send order, scoring each at delivery time,
   and measure — against ground truth — how many malicious WPNs the user
   would have been spared and how many benign notifications would have
   been wrongly suppressed, across blocking thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.detector import MaliciousWpnDetector
from repro.core.pipeline import PushAdMiner
from repro.crawler.harvest import WpnDataset
from repro.util.stats import safe_ratio


@dataclass(frozen=True)
class OperatingPoint:
    """Blocking outcome at one detector threshold."""

    threshold: float
    blocked_malicious: int
    blocked_benign: int
    missed_malicious: int
    passed_benign: int

    @property
    def block_rate_malicious(self) -> float:
        total = self.blocked_malicious + self.missed_malicious
        return safe_ratio(self.blocked_malicious, total)

    @property
    def false_block_rate(self) -> float:
        total = self.blocked_benign + self.passed_benign
        return safe_ratio(self.blocked_benign, total)


@dataclass
class RealtimeBlockingResult:
    """Full outcome of the deployment simulation."""

    train_wpns: int
    deploy_wpns: int
    deploy_malicious: int
    operating_points: List[OperatingPoint]

    def best_under_false_block_budget(
        self, budget: float = 0.01
    ) -> Optional[OperatingPoint]:
        """Highest-recall threshold keeping false blocks under ``budget``."""
        eligible = [
            p for p in self.operating_points if p.false_block_rate <= budget
        ]
        if not eligible:
            return None
        return max(eligible, key=lambda p: p.block_rate_malicious)


def run_realtime_blocking(
    dataset: WpnDataset,
    train_days: float = 30.0,
    thresholds: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
) -> RealtimeBlockingResult:
    """Simulate the train-then-deploy split over the study timeline."""
    valid = sorted(dataset.valid_records, key=lambda r: r.sent_at_min)
    cutoff = train_days * 24 * 60.0
    train = [r for r in valid if r.sent_at_min < cutoff]
    deploy = [r for r in valid if r.sent_at_min >= cutoff]
    if len(train) < 20 or not deploy:
        raise ValueError(
            f"not enough data to split at day {train_days}: "
            f"{len(train)} train / {len(deploy)} deploy"
        )

    # The analysts label the first month's collection with the pipeline...
    miner = PushAdMiner.for_dataset(dataset)
    labeled = miner.run(train)
    malicious_labels = (
        labeled.labeling.confirmed_malicious_ids
        | labeled.suspicion.confirmed_malicious_ids
    )

    # ...and the detector learned from it scores later WPNs at delivery.
    detector = MaliciousWpnDetector().fit(train, malicious_labels)
    scores = detector.score(deploy)
    truth = np.array([r.truth.malicious for r in deploy], dtype=bool)

    points: List[OperatingPoint] = []
    for threshold in thresholds:
        blocked = scores >= threshold
        points.append(
            OperatingPoint(
                threshold=float(threshold),
                blocked_malicious=int((blocked & truth).sum()),
                blocked_benign=int((blocked & ~truth).sum()),
                missed_malicious=int((~blocked & truth).sum()),
                passed_benign=int((~blocked & ~truth).sum()),
            )
        )
    return RealtimeBlockingResult(
        train_wpns=len(train),
        deploy_wpns=len(deploy),
        deploy_malicious=int(truth.sum()),
        operating_points=points,
    )
