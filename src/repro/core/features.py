"""Feature extraction from WPN records (paper section 5.1.1).

Two feature streams per notification:

* message text — the concatenated title + body, tokenized to words;
* landing URL path — directory components, page name and query-string
  parameter *names*; the domain and parameter values are deliberately
  excluded (campaigns rotate domains and randomize values).

Everything else collected by the browser (domains, screenshots, IPs) is
kept out of the clustering features and used only for validation.

A record computes its features once (:attr:`WpnRecord.features` is
cached on the frozen record); every caller — the batch pipeline, the
incremental miner and the snapshot export — reads that one cache.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.records import WpnFeatures, WpnRecord

__all__ = ["WpnFeatures", "extract_all", "extract_features"]


def extract_features(record: WpnRecord) -> WpnFeatures:
    """Featurize one record. Requires a valid landing page."""
    return record.features


def extract_all(records: Sequence[WpnRecord]) -> List[WpnFeatures]:
    """Featurize a corpus of valid records, preserving order."""
    return [extract_features(r) for r in records]
