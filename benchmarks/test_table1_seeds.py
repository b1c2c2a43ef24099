"""Table 1: URLs and notification-permission-request counts per seed.

Paper: 87,622 URLs across 19 code-search keywords; 5,849 of them issued a
notification permission request (NPR). The bench regenerates the table by
searching the code-search index and visiting every hit.
"""

from conftest import BENCH_SCALE, paper_vs_measured

from repro.core.report import render_table, table1_rows
from repro.crawler.seeds import discover_seeds
from repro.webenv.adnetworks import PAPER_TOTAL_NPRS, PAPER_TOTAL_URLS, seeds_by_name


def test_table1_seed_discovery(bench_dataset):
    discovery = discover_seeds(bench_dataset.ecosystem)

    rows = table1_rows(discovery)
    print("\n" + render_table(["seed", "URLs", "NPRs"], rows))

    specs = seeds_by_name()
    comparison = [
        ("total URLs", PAPER_TOTAL_URLS, discovery.total_urls),
        ("total NPRs", PAPER_TOTAL_NPRS, discovery.total_nprs),
        ("Ad-Maven URLs", specs["Ad-Maven"].paper_urls,
         discovery.row("Ad-Maven").urls_found),
        ("OneSignal NPRs", specs["OneSignal"].paper_nprs,
         discovery.row("OneSignal").npr_count),
    ]
    paper_vs_measured("Table 1", comparison)

    # Shape assertions: scaled totals and the NPR-leader identity.
    assert abs(discovery.total_urls - PAPER_TOTAL_URLS * BENCH_SCALE) < 30
    leader = max(discovery.rows, key=lambda r: r.npr_count)
    assert leader.name == "OneSignal"
