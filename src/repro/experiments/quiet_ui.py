"""Chrome 80 quiet-notification-UI test (paper section 6.4).

Chrome 80 (Feb 2020) can suppress permission prompts from origins with a
low crowd-sourced notification opt-in rate. The paper revisited 300
previously-prompting sites with Chrome 80: *every one* could still prompt —
the feature had no crowd data for these (long-tail) origins yet. This
experiment reproduces that, and also projects what the feature would block
once fully trained (full crowd coverage).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.browser.browser import InstrumentedBrowser
from repro.browser.permissions import PermissionManager, QuietUiPolicy
from repro.crawler.harvest import WpnDataset
from repro.push.fcm import FcmService
from repro.util.rng import RngFactory


@dataclass
class QuietUiResult:
    """Prompt suppression counts under two crowd-coverage assumptions."""

    visited_sites: int
    suppressed_now: int          # with today's (empty) crowd data
    suppressed_if_trained: int   # with full crowd coverage

    @property
    def blocked_none_today(self) -> bool:
        return self.suppressed_now == 0


def run_quiet_ui_experiment(
    dataset: WpnDataset,
    n_sites: int = 300,
    optin_threshold: float = 0.10,
) -> QuietUiResult:
    """Visit previously-prompting sites with the quiet UI enabled."""
    ecosystem = dataset.ecosystem
    rngs = RngFactory(ecosystem.config.seed).child("quiet-ui")
    rng = rngs.stream("sample")

    candidates = dataset.discovery.npr_sites()
    sample = candidates if len(candidates) <= n_sites else rng.sample(candidates, n_sites)

    def run_pass(crowd_has_data: bool) -> int:
        suppressed = 0
        fcm = FcmService()
        policy = QuietUiPolicy(
            enabled=True, optin_threshold=optin_threshold, crowd_coverage=1.0
        )
        for site in sample:
            browser = InstrumentedBrowser(
                ecosystem,
                fcm,
                rng=rngs.stream(f"visit-{crowd_has_data}-{site.domain}"),
                quiet_ui=policy,
            )
            prompt_at = 0.0 + site.permission_delay_min
            decision = browser.permissions.request_permission(
                site, prompt_at, has_crowd_data=crowd_has_data
            )
            if decision == PermissionManager.SUPPRESSED:
                suppressed += 1
        return suppressed

    return QuietUiResult(
        visited_sites=len(sample),
        suppressed_now=run_pass(crowd_has_data=False),
        suppressed_if_trained=run_pass(crowd_has_data=True),
    )
