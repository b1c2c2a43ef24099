"""Manual-verification oracle (the authors' role in the paper).

PushAdMiner's automated labels (blocklists + propagation + suspicion rules)
are all manually verified in the paper (section 5.4). The oracle plays the
analysts: given a record and the analysis context, it applies the paper's
four explainable factors and — like a human who can actually browse the
landing page — falls back to ground truth, with a small configurable
"could not confirm" rate for genuinely ambiguous pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Set, Tuple

from repro.blocklists.base import url_unit_draw
from repro.core.records import WpnRecord

#: Message keywords the analysts treat as "too good to be true" / alarmist.
_SCAM_KEYWORDS: Tuple[str, ...] = (
    "won", "winner", "prize", "claim", "congratulations", "leaked",
    "infected", "virus", "verify", "locked", "limited", "selected",
    "jackpot", "reward",
)

#: Landing-page elements analysts treat as smoking guns (the scam phone
#: number of Figure 1, credential forms, scareware pressure UI).
_SCAM_PAGE_SIGNALS = frozenset(
    {"support-phone-number", "credential-form", "fullscreen-popup-loop",
     "fake-scan-animation", "prize-wheel"}
)


@dataclass
class VerificationContext:
    """What the analysts know when verifying: confirmed-malicious artifacts."""

    malicious_visual_hashes: Set[str] = field(default_factory=set)
    malicious_texts: Set[str] = field(default_factory=set)
    malicious_ips: Set[str] = field(default_factory=set)
    malicious_registrants: Set[str] = field(default_factory=set)

    def absorb(self, record: WpnRecord) -> None:
        """Add a confirmed-malicious record's artifacts to the knowledge base."""
        if record.visual_hash:
            self.malicious_visual_hashes.add(record.visual_hash)
        self.malicious_texts.add(record.text)
        if record.landing_ip:
            self.malicious_ips.add(record.landing_ip)
        if record.landing_registrant:
            self.malicious_registrants.add(record.landing_registrant)


class ManualVerificationOracle:
    """Deterministic stand-in for the paper's manual analysis."""

    def __init__(self, seed: int = 0, unconfirmable_rate: float = 0.02):
        if not 0.0 <= unconfirmable_rate <= 1.0:
            raise ValueError("unconfirmable_rate must be in [0, 1]")
        self.seed = seed
        self.unconfirmable_rate = unconfirmable_rate
        self.context = VerificationContext()
        self.inspections = 0

    # ------------------------------------------------------------------
    def matched_factors(self, record: WpnRecord) -> List[str]:
        """The paper's manual factors that match this record (section 5.4)."""
        ctx = self.context
        factors: List[str] = []
        if record.visual_hash and record.visual_hash in ctx.malicious_visual_hashes:
            factors.append("visually-similar-landing")
        if record.text in ctx.malicious_texts:
            factors.append("same-message-different-landing")
        text = record.text.lower()
        if any(keyword in text for keyword in _SCAM_KEYWORDS):
            factors.append("likely-malicious-content")
        if set(record.page_signals) & _SCAM_PAGE_SIGNALS:
            factors.append("scam-page-elements")
        if (record.landing_ip and record.landing_ip in ctx.malicious_ips) or (
            record.landing_registrant
            and record.landing_registrant in ctx.malicious_registrants
        ):
            factors.append("shared-infrastructure")
        return factors

    def confirm_malicious(self, record: WpnRecord) -> bool:
        """Would the analysts, after inspection, call this WPN malicious?

        The analysts can actually load the page, so the ground truth wins —
        except for a small deterministic slice of truly-malicious pages that
        present nothing conclusive at inspection time (the paper's "we were
        not able to confirm" cases).
        """
        self.inspections += 1
        if not record.truth.malicious:
            return False
        draw = url_unit_draw(
            record.landing_url or record.wpn_id, salt="manual", seed=self.seed
        )
        if draw < self.unconfirmable_rate and not self.matched_factors(record):
            return False
        self.context.absorb(record)
        return True

    def confirm_many(
        self, records: Iterable[WpnRecord]
    ) -> Tuple[List[WpnRecord], List[WpnRecord]]:
        """Split records into (confirmed malicious, unconfirmed)."""
        confirmed: List[WpnRecord] = []
        unconfirmed: List[WpnRecord] = []
        for record in records:
            (confirmed if self.confirm_malicious(record) else unconfirmed).append(
                record
            )
        return confirmed, unconfirmed
