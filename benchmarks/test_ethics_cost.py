"""Section 3 (ethics): estimated advertiser cost of the automated clicks.

Paper: using iZooto's standard push CPM of USD 2.54, the maximum cost per
legitimate landing domain over the whole study was USD 1.12 (444 visits),
and the mean USD 0.04 (18 visits per domain on average).
"""

from conftest import BENCH_SCALE, paper_vs_measured

from repro.core.report import STANDARD_CPM_USD, advertiser_cost_report


def test_advertiser_click_cost(bench_result):
    report = advertiser_cost_report(bench_result)

    max_visits = max(report.per_domain_visits.values(), default=0)
    paper_vs_measured("Ethics cost accounting", [
        ("CPM used", "$2.54", f"${report.cpm_usd}"),
        ("max visits to one domain", f"444 (x{BENCH_SCALE:.3f} = "
         f"{444 * BENCH_SCALE:.0f})", max_visits),
        ("max cost per domain", "$1.12", f"${report.max_cost_usd:.3f}"),
        ("mean visits per domain", 18, f"{report.mean_visits:.1f}"),
        ("mean cost per domain", "$0.04", f"${report.mean_cost_usd:.4f}"),
    ])

    assert report.cpm_usd == STANDARD_CPM_USD
    # Negligible-impact shape: even the most-visited legitimate advertiser
    # pays only cents at this scale.
    assert report.max_cost_usd < 1.12
    assert report.mean_cost_usd < 0.05
