"""Ablation: clustering feature channels (text vs URL path vs combined).

The paper's distance is the mean of the soft-cosine text distance and the
URL-path Jaccard distance. This ablation clusters with each channel alone
and with the combination, and scores (a) campaign *purity* — non-singleton
clusters should not mix ground-truth campaigns — and (b) how many WPN ads
the multi-source campaign rule recovers.
"""

import numpy as np

from repro.core.campaigns import ad_campaign_clusters, build_clusters
from repro.core.clustering import cluster_records
from repro.core.distance import compute_distances
from repro.core.report import render_table


def _score(records, distances):
    labels, _, threshold, _ = cluster_records(distances)
    clusters = build_clusters(records, labels)
    non_singletons = [c for c in clusters if len(c) > 1]
    mixed = sum(
        1
        for c in non_singletons
        if len({r.truth.campaign_id for r in c.records}) > 1
    )
    campaign_ads = {
        r.wpn_id for c in ad_campaign_clusters(clusters) for r in c.records
    }
    truth_ads = {r.wpn_id for r in records if r.truth.kind == "ad"}
    recall = len(campaign_ads & truth_ads) / len(truth_ads) if truth_ads else 0.0
    precision = (
        len(campaign_ads & truth_ads) / len(campaign_ads) if campaign_ads else 0.0
    )
    purity = 1.0 - mixed / len(non_singletons) if non_singletons else 1.0
    return threshold, len(clusters), purity, recall, precision


def test_feature_channel_ablation(bench_dataset):
    records = bench_dataset.valid_records[:800]
    matrices = compute_distances(records)

    results = {
        "text only": _score(records, matrices.text),
        "URL path only": _score(records, matrices.url),
        "combined (paper)": _score(records, matrices.total),
    }

    rows = [
        (name, f"{t:.3f}", k, f"{purity:.3f}", f"{recall:.3f}", f"{precision:.3f}")
        for name, (t, k, purity, recall, precision) in results.items()
    ]
    print("\n" + render_table(
        ["features", "cut", "#clusters", "campaign purity",
         "ad recall", "ad precision"],
        rows,
    ))

    combined = results["combined (paper)"]
    text_only = results["text only"]
    # The paper combines both channels for robustness: the combination must
    # keep near-perfect ad precision and high purity while recovering far
    # more ads than the weaker (text) channel alone. (Strict campaign-id
    # purity under-counts: identical creatives from two advertiser accounts
    # are "the same or similar product" by the paper's campaign definition.)
    assert combined[4] >= 0.95          # ad precision
    assert combined[2] > 0.8            # campaign purity
    assert combined[3] > text_only[3]   # recall vs text-only
