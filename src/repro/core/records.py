"""WPN records: the dataset the analysis pipeline mines.

A ``WpnRecord`` holds exactly the observables the paper's instrumented
browser logs for one push notification: source page, message metadata,
click outcome, redirect chain and landing page details. Generator ground
truth rides along in a separate ``WpnTruth`` object that the *analysis*
modules never read — only the evaluation/verification oracle does.

Every observable derived from a record's fields (parsed URLs, hosts,
effective second-level domains and the clustering features) is computed
once, on the first read of any of them, and kept in one
``functools.cached_property`` slot of the instance ``__dict__``. The
record is frozen, so the cache never goes stale, and it stays outside the
dataclass fields: ``==``, ``hash``, ``dataclasses.asdict`` and the
:mod:`repro.io` JSON bytes are those of the fields alone. The verdict
stages, the incremental miner and the snapshot export read one record
many times per absorbed batch, and pay each derivation once per record
instead.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

from repro.util.domains import effective_second_level_domain
from repro.util.textproc import tokenize_text, tokenize_url_path
from repro.util.urls import Url


@dataclass(frozen=True)
class WpnTruth:
    """Generator-side ground truth for one WPN (hidden from the miner)."""

    kind: str                     # "ad" | "alert"
    family_name: str
    category: str
    campaign_id: Optional[str]
    operation_id: Optional[str]
    malicious: bool
    is_one_off: bool


@dataclass(frozen=True)
class WpnFeatures:
    """The clustering features of one WPN (see :mod:`repro.core.features`)."""

    text_tokens: Tuple[str, ...]
    url_tokens: frozenset

    @property
    def has_url_tokens(self) -> bool:
        return len(self.url_tokens) > 0


class _Derived(NamedTuple):
    """What a record derives from its fields, computed together."""

    source_domain: str
    source_etld1: str
    landing: Optional[Url]
    landing_domain: Optional[str]
    landing_etld1: Optional[str]
    features: Optional[WpnFeatures]  # None without a landing page


@dataclass(frozen=True)
class WpnRecord:
    """One collected web push notification with its full click trail."""

    wpn_id: str
    platform: str                 # "desktop" | "mobile"
    source_url: str
    network_name: Optional[str]   # ad network SW, None for site-own SW
    sw_script_url: str
    title: str
    body: str
    icon_url: str
    sent_at_min: float
    shown_at_min: float
    clicked_at_min: Optional[float]
    valid: bool                   # click produced an analyzable landing page
    landing_url: Optional[str]
    redirect_hops: Tuple[str, ...]
    visual_hash: Optional[str]
    landing_ip: Optional[str]
    landing_registrant: Optional[str]
    truth: WpnTruth
    page_signals: Tuple[str, ...] = ()  # elements seen on the landing page
                                        # (forms, phone numbers, timers...)

    def __post_init__(self):
        if self.platform not in ("desktop", "mobile"):
            raise ValueError(f"unknown platform: {self.platform!r}")
        if self.valid and self.landing_url is None:
            raise ValueError("valid records must carry a landing URL")

    # ------------------------------------------------------------------
    # Derived observables used by the clustering features (cached: see
    # the module docstring)
    # ------------------------------------------------------------------
    @cached_property
    def _derived(self) -> _Derived:
        # One slot, not one per observable: CPython keeps an instance dict
        # compact only while at most one key is added after __init__.
        source = Url.parse(self.source_url).host
        landing = Url.parse(self.landing_url) if self.landing_url else None
        if landing is None:
            return _Derived(
                source, effective_second_level_domain(source),
                None, None, None, None,
            )
        # Tokens are interned: the features live as long as the record,
        # and a corpus repeats a few thousand distinct tokens.
        features = WpnFeatures(
            text_tokens=tuple(map(sys.intern, tokenize_text(self.text))),
            url_tokens=frozenset(
                map(sys.intern, tokenize_url_path(landing.path, landing.query))
            ),
        )
        return _Derived(
            source, effective_second_level_domain(source),
            landing, landing.host,
            effective_second_level_domain(landing.host), features,
        )

    @property
    def source_domain(self) -> str:
        return self._derived.source_domain

    @property
    def source_etld1(self) -> str:
        """Effective second-level domain of the notifying website."""
        return self._derived.source_etld1

    @property
    def text(self) -> str:
        """Concatenated title + body, the message-text feature."""
        return f"{self.title} {self.body}"

    @property
    def landing(self) -> Optional[Url]:
        return self._derived.landing

    @property
    def landing_domain(self) -> Optional[str]:
        return self._derived.landing_domain

    @property
    def landing_etld1(self) -> Optional[str]:
        return self._derived.landing_etld1

    @property
    def features(self) -> WpnFeatures:
        """Message-text and landing-path tokens. Requires a landing page."""
        features = self._derived.features
        if features is None:
            raise ValueError(
                f"record {self.wpn_id} has no landing page; filter invalid "
                "records before feature extraction"
            )
        return features

    @property
    def delivery_latency_min(self) -> float:
        return self.shown_at_min - self.sent_at_min
