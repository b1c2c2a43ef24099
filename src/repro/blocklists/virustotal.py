"""VirusTotal model: a multi-engine URL scanner with time-lagged coverage.

Paper observations reproduced here:

* first scan flags <1% of submitted landing URLs;
* rescanning the same set one month later flags 11.31% (coverage grows as
  engines catch up with campaign domains);
* a flagged URL does not imply its whole domain is flagged — detection is
  per full URL;
* ~3.2% of flags are false positives (the paper manually weeded out 44 of
  1,388).
"""

from __future__ import annotations

from typing import Dict

from repro.blocklists.base import ScanVerdict, UrlTruth, url_unit_draw


class VirusTotalModel:
    """Deterministic VT stand-in; scan verdicts depend only on the URL."""

    def __init__(
        self,
        truth: UrlTruth,
        seed: int = 0,
        early_rate: float = 0.035,
        late_rate: float = 0.50,
        fp_rate: float = 0.004,
        engines: int = 70,
    ):
        if not 0.0 <= early_rate <= late_rate <= 1.0:
            raise ValueError("need 0 <= early_rate <= late_rate <= 1")
        if not 0.0 <= fp_rate <= 1.0:
            raise ValueError("fp_rate must be in [0, 1]")
        self.truth = truth
        self.seed = seed
        self.early_rate = early_rate
        self.late_rate = late_rate
        self.fp_rate = fp_rate
        self.engines = engines
        self.scan_count = 0

    def scan(self, url: str, months_elapsed: int = 0) -> ScanVerdict:
        """Scan a full URL; coverage grows with ``months_elapsed``.

        Detection is nested over time: any URL flagged at month *m* is also
        flagged at every later month.
        """
        if months_elapsed < 0:
            raise ValueError("months_elapsed must be >= 0")
        self.scan_count += 1
        draw = url_unit_draw(url, salt="vt", seed=self.seed)
        if self.truth.is_malicious(url):
            rate = self._coverage_at(months_elapsed)
            flagged = draw < rate
        else:
            flagged = draw < self.fp_rate
        if not flagged:
            return ScanVerdict(url=url, flagged=False, total_engines=self.engines)
        positives = 1 + int(
            url_unit_draw(url, salt="vt-positives", seed=self.seed) * 6
        )
        return ScanVerdict(
            url=url,
            flagged=True,
            positives=positives,
            total_engines=self.engines,
        )

    def _coverage_at(self, months_elapsed: int) -> float:
        """Coverage ramps from early_rate toward late_rate within a month
        and saturates slowly after (engines keep adding signatures)."""
        if months_elapsed == 0:
            return self.early_rate
        if months_elapsed == 1:
            return self.late_rate
        remaining = 1.0 - self.late_rate
        return self.late_rate + remaining * (1.0 - 0.7 ** (months_elapsed - 1)) * 0.3

    def scan_many(
        self, urls, months_elapsed: int = 0
    ) -> Dict[str, ScanVerdict]:
        """Scan a collection of URLs; returns url -> verdict."""
        return {url: self.scan(url, months_elapsed) for url in urls}
