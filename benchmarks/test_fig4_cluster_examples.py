"""Figure 4: example WPN clusters (WPN-C1 .. WPN-C4).

Paper panels: C1 — a 40-message multi-source sweepstakes campaign mostly
flagged by VT; C2 — a 12-message fake-PayPal duplicate-ads campaign VT
missed entirely; C3 — 4 identical loan alerts from one bank site; C4 — a
singleton.
"""

from repro.core.campaigns import is_ad_campaign
from repro.core.report import fig4_cluster_examples


def test_fig4_examples(bench_result):
    examples = fig4_cluster_examples(bench_result)

    print()
    for example in examples:
        cluster = example.cluster
        print(f"[{example.label}] n={len(cluster)} "
              f"sources={len(cluster.source_etld1s)} "
              f"landing-domains={len(cluster.landing_etld1s)} — "
              f"{example.description}")
        for source, title, landing in example.sample_messages(3):
            print(f"    {source:26s} {title[:40]:42s} -> {landing}")

    by_label = {e.label: e for e in examples}
    assert {"WPN-C1", "WPN-C2", "WPN-C3", "WPN-C4"} <= set(by_label)

    c1 = by_label["WPN-C1"].cluster
    assert is_ad_campaign(c1)
    assert c1.wpn_ids & bench_result.labeling.known_malicious_ids

    c2 = by_label["WPN-C2"].cluster
    assert is_ad_campaign(c2)
    assert not (c2.wpn_ids & bench_result.labeling.known_malicious_ids)
    assert len(c2.landing_etld1s) > 1        # duplicate ads

    c3 = by_label["WPN-C3"].cluster
    assert len(c3.source_etld1s) == 1 and len(c3) > 1

    assert by_label["WPN-C4"].cluster.is_singleton
