"""Cross-session tracking by ad networks.

Paper section 8 ("Evading Crawling Detection"): a few ad networks use
cookies or device fingerprints to recognize a browser across sessions, and
a recognized browser is much less likely to be shown a fresh notification
permission prompt. The paper's mitigation is one Docker container (fresh
profile) per visited URL; this module models the tracking so that design
choice is measurable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Set


@dataclass
class CookieJar:
    """Per-browser-profile cookie store (ad-network trackers only)."""

    trackers: Set[str] = field(default_factory=set)

    def has_tracker(self, network_name: str) -> bool:
        return network_name in self.trackers

    def set_tracker(self, network_name: str) -> None:
        self.trackers.add(network_name)

    def clear(self) -> None:
        self.trackers.clear()

    def __len__(self) -> int:
        return len(self.trackers)


class CrossSessionTracker:
    """Decides whether a tracked profile still gets a permission prompt.

    ``tracking_networks`` are the networks that fingerprint browsers;
    ``reprompt_rate`` is the chance a recognized profile is prompted again
    (low: the network already knows this browser ignored or saw the offer).
    """

    def __init__(
        self,
        tracking_networks: Optional[Set[str]] = None,
        reprompt_rate: float = 0.25,
    ):
        if not 0.0 <= reprompt_rate <= 1.0:
            raise ValueError("reprompt_rate must be in [0, 1]")
        # The aggressive monetizers are the ones that bother fingerprinting.
        self.tracking_networks = (
            tracking_networks
            if tracking_networks is not None
            else {"Ad-Maven", "PopAds", "PropellerAds", "AdsTerra"}
        )
        self.reprompt_rate = reprompt_rate

    def allows_prompt(
        self, jar: CookieJar, network_names, rng: random.Random
    ) -> bool:
        """Would the site's network(s) still prompt this profile?"""
        tracked = [
            n for n in network_names
            if n in self.tracking_networks and jar.has_tracker(n)
        ]
        if not tracked:
            return True
        return rng.random() < self.reprompt_rate

    def record_visit(self, jar: CookieJar, network_names) -> None:
        """After a visit, tracking networks drop their identifier."""
        for name in network_names:
            if name in self.tracking_networks:
                jar.set_tracker(name)
