"""Ad blocker browser extensions, as they behaved in the studied browser.

Extensions intercept network requests via the webRequest API — but in the
Chromium generation the paper instrumented, requests issued by service
workers were invisible to extensions entirely (a since-acknowledged
Chromium bug). An extension therefore blocks page-initiated ad requests it
has rules for, and *zero* SW-initiated ones, regardless of its list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.adblock.rules import FilterList
from repro.browser.network import NetworkRequest


@dataclass
class AdBlockerExtension:
    """One installed ad-blocking extension."""

    name: str
    filters: FilterList
    sees_sw_requests: bool = False  # Chromium <= 80: extensions are blind
    blocked_count: int = 0
    observed_count: int = 0

    def would_block(self, request: NetworkRequest) -> bool:
        """Decide whether the extension blocks this request.

        SW-initiated requests never reach the extension unless the browser
        exposes them (``sees_sw_requests``).
        """
        self.observed_count += 1
        if request.initiator == "service_worker" and not self.sees_sw_requests:
            return False
        blocked = self.filters.should_block(str(request.url))
        if blocked:
            self.blocked_count += 1
        return blocked


def popular_extensions(filters: FilterList) -> List[AdBlockerExtension]:
    """The two highly-popular blockers the paper installed."""
    return [
        AdBlockerExtension(name="AdBlock Plus (model)", filters=filters),
        AdBlockerExtension(name="uBlock Origin (model)", filters=filters),
    ]
