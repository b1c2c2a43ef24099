"""Website model: the pages the crawler visits.

Three flavours exist in the generated ecosystem:

* **publisher** — embeds one or more push-ad network SDKs; granting its
  notification permission subscribes the browser to that network's campaign
  stream (the page source contains the network's SDK marker, which is what
  the code-search seeding finds);
* **alert** — a legitimate site running its own service worker and pushing
  site-specific alerts (news, weather, bank offers) that land on its own
  origin;
* **plain** — matched a search keyword but never requests notification
  permission (the large majority of Table 1's URL column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.util.urls import Url


@dataclass
class Website:
    """One crawlable URL and its push behaviour."""

    url: Url
    kind: str                              # "publisher" | "alert" | "plain"
    page_source: str                       # searchable source w/ SDK markers
    seed_keyword: str                      # Table 1 row that discovered it
    network_names: Tuple[str, ...] = ()    # ad networks embedded (publishers)
    alert_family: Optional[str] = None     # content family (alert sites)
    own_content_family: Optional[str] = None  # publisher's own alerts pushed
                                              # through its network's service
    requests_permission: bool = False
    double_permission: bool = False        # JS pre-prompt before browser prompt
    opt_in_rate: float = 0.5               # site-wide Allow rate (quiet-UI model)
    active_notifier: bool = True           # actually sends WPNs during study
    permission_delay_min: float = 0.5      # minutes until the prompt appears
    discovered_via_click: bool = False     # found by clicking a WPN, not seeding

    def __post_init__(self):
        if self.kind not in ("publisher", "alert", "plain"):
            raise ValueError(f"unknown website kind: {self.kind!r}")
        if self.kind == "publisher" and not self.network_names:
            raise ValueError("publisher sites must embed at least one network")
        if self.kind == "alert" and self.alert_family is None:
            raise ValueError("alert sites need an alert content family")
        if self.requests_permission and not self.url.is_secure:
            raise ValueError("only HTTPS origins may request push permission")
        if not 0.0 <= self.opt_in_rate <= 1.0:
            raise ValueError("opt_in_rate must be in [0, 1]")

    @property
    def domain(self) -> str:
        return self.url.host

    @property
    def can_push(self) -> bool:
        """True when granting permission can ever produce a WPN."""
        return self.requests_permission and self.kind in ("publisher", "alert")


def publisher_page_source(sdk_markers: Tuple[str, ...]) -> str:
    """Minimal HTML-ish source embedding the networks' push SDK snippets."""
    scripts = "\n".join(
        f'<script src="https://{marker}" async></script>'
        if marker.endswith(".js")
        else f"<script>/* {marker} */ Notification.requestPermission();"
        "navigator.serviceWorker.register('/push-sw.js');</script>"
        for marker in sdk_markers
    )
    return f"<html><head>{scripts}</head><body>content</body></html>"


def alert_page_source(keyword: str) -> str:
    """Source of a legitimate PWA that manages its own notifications.

    Embeds only the single generic keyword that discovered the site, so
    seed rows do not double-count one page.
    """
    return (
        "<html><head><script>"
        "if ('serviceWorker' in navigator) {"
        " navigator.serviceWorker.register('/sw.js');"
        f" /* {keyword} */"
        "}</script></head><body>site</body></html>"
    )


def plain_page_source(keyword: str) -> str:
    """A page that merely *mentions* push code; never actually prompts."""
    return (
        f"<html><head><script>/* docs: {keyword} */</script></head>"
        "<body>article about web push</body></html>"
    )
