"""Table 3: the headline measurement — WPNs, campaigns, ads, 51% malicious.

The session's ``bench_result`` is the complete analysis pipeline
(features, distances, clustering, labeling, meta-clustering, suspicion,
verification) over the crawled corpus; this prints the paper's summary
table from it.
"""

from conftest import BENCH_SCALE, paper_vs_measured

from repro.core.report import render_table, table3_summary


def test_table3_full_pipeline(bench_dataset, bench_result):
    summary = table3_summary(bench_dataset, bench_result)
    print("\n" + render_table(["metric", "value"], list(summary.items())))

    scale = BENCH_SCALE
    paper_vs_measured("Table 3", [
        ("collected WPNs", f"21541 (x{scale:.3f} = {21541 * scale:.0f})",
         summary["collected_wpns"]),
        ("valid WPNs", f"12262 (x{scale:.3f} = {12262 * scale:.0f})",
         summary["valid_wpns"]),
        ("WPN ad campaigns", 572, summary["wpn_ad_campaigns"]),
        ("WPN ads", f"5143 (x{scale:.3f} = {5143 * scale:.0f})",
         summary["wpn_ads"]),
        ("malicious campaigns", 318, summary["malicious_campaigns"]),
        ("malicious ads", f"2615 (x{scale:.3f} = {2615 * scale:.0f})",
         summary["malicious_ads"]),
        ("malicious ad share", "51%", f"{summary['malicious_ad_pct']}%"),
    ])

    # The headline shape: about half of all WPN ads are malicious.
    assert 35.0 < summary["malicious_ad_pct"] < 70.0
    # Ads are a big minority of all WPNs (paper: 42%).
    assert 0.3 < summary["wpn_ads"] / summary["valid_wpns"] < 0.6
