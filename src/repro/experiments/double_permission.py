"""Double-permission adoption check (paper section 8).

Months after the main crawl, the authors re-checked 200 random URLs that
had previously requested permission directly: 49 (about a quarter) had
switched to a JS "double permission" pre-prompt — a dialog mimicking the
browser prompt, shown first so a "Block" never permanently silences the
origin. The crawler defeats it by interacting with the pre-prompt too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.blocklists.base import url_unit_draw
from repro.browser.browser import InstrumentedBrowser
from repro.browser.events import EventKind
from repro.crawler.harvest import WpnDataset
from repro.push.fcm import FcmService
from repro.util.rng import RngFactory


@dataclass
class DoublePermissionResult:
    """Outcome of the re-check."""

    rechecked_sites: int
    switched_to_double: int
    prompts_still_reachable: int   # crawler still obtained the real prompt

    @property
    def switched_fraction(self) -> float:
        return self.switched_to_double / self.rechecked_sites if self.rechecked_sites else 0.0


def run_double_permission_check(
    dataset: WpnDataset,
    n_sites: int = 200,
    adoption_rate: float = 0.25,
) -> DoublePermissionResult:
    """Revisit previously-direct-prompting sites in the later era.

    ``adoption_rate`` is the per-site probability of having switched to a
    JS pre-prompt in the months since the crawl (deterministic per domain).
    """
    ecosystem = dataset.ecosystem
    rngs = RngFactory(ecosystem.config.seed).child("double-permission")
    rng = rngs.stream("sample")

    candidates = [
        s for s in dataset.discovery.npr_sites() if not s.double_permission
    ]
    sample = candidates if len(candidates) <= n_sites else rng.sample(candidates, n_sites)

    switched = 0
    reachable = 0
    fcm = FcmService()
    for site in sample:
        now_double = (
            url_unit_draw(str(site.url), salt="double-perm", seed=ecosystem.config.seed)
            < adoption_rate
        )
        if now_double:
            switched += 1
        revisit_site = replace(site, double_permission=now_double)
        browser = InstrumentedBrowser(
            ecosystem, fcm, rng=rngs.stream(f"visit-{site.domain}")
        )
        visit = browser.visit(revisit_site, now_min=0.0)
        # The crawler interacts with the JS pre-prompt, so the real browser
        # prompt must still have fired.
        if browser.events.count(EventKind.PERMISSION_REQUESTED) > 0:
            reachable += 1
        if now_double and not browser.events.count(
            EventKind.DOUBLE_PERMISSION_PROMPT
        ):
            raise AssertionError("double-permission site did not pre-prompt")

    return DoublePermissionResult(
        rechecked_sites=len(sample),
        switched_to_double=switched,
        prompts_still_reachable=reachable,
    )
