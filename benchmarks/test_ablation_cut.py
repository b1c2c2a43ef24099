"""Ablation: the conservative silhouette-selected dendrogram cut.

The paper tunes clustering to be conservative ("tight" clusters) and picks
the cut by silhouette. This ablation compares the selected cut against a
much looser and a much tighter fixed cut on campaign purity and ad recall.
"""

from repro.core.campaigns import ad_campaign_clusters, build_clusters
from repro.core.clustering import AgglomerativeClusterer, evaluate_cuts
from repro.core.distance import compute_distances
from repro.core.report import render_table


def _evaluate(records, labels):
    clusters = build_clusters(records, labels)
    non_singletons = [c for c in clusters if len(c) > 1]
    mixed = sum(
        1 for c in non_singletons
        if len({r.truth.campaign_id for r in c.records}) > 1
    )
    purity = 1.0 - mixed / len(non_singletons) if non_singletons else 1.0
    truth_ads = {r.wpn_id for r in records if r.truth.kind == "ad"}
    found = {r.wpn_id for c in ad_campaign_clusters(clusters) for r in c.records}
    recall = len(found & truth_ads) / len(truth_ads) if truth_ads else 0.0
    return len(clusters), purity, recall


def test_cut_selection_ablation(bench_dataset):
    records = bench_dataset.valid_records[:800]
    distances = compute_distances(records).total
    linkage = AgglomerativeClusterer().fit(distances)

    selection = evaluate_cuts(linkage, distances)
    selected_t, selected_labels = selection.threshold, selection.labels

    rows = []
    for name, labels in [
        ("very tight (t=0.02)", linkage.cut(0.02)),
        (f"silhouette-selected (t={selected_t:.3f})", selected_labels),
        ("loose (t=0.45)", linkage.cut(0.45)),
        ("very loose (t=0.75)", linkage.cut(0.75)),
    ]:
        k, purity, recall = _evaluate(records, labels)
        rows.append((name, k, f"{purity:.3f}", f"{recall:.3f}"))
    print("\n" + render_table(
        ["cut", "#clusters", "campaign purity", "ad recall"], rows,
    ))

    _, selected_purity, selected_recall = _evaluate(records, selected_labels)
    _, _, tight_recall = _evaluate(records, linkage.cut(0.02))
    _, loose_purity, _ = _evaluate(records, linkage.cut(0.75))

    # The selected cut keeps purity high while recovering at least as many
    # ads as an over-tight cut; a loose cut destroys purity.
    assert selected_purity > 0.8
    assert selected_recall >= tight_recall
    assert loose_purity < selected_purity
