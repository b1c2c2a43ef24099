"""Table 4: measurement results at each clustering stage.

Paper row 1 (after WPN clustering): 8,780 clusters, 572 ad campaigns,
3,213 ads, 758 known-malicious, 367 additional. Row 2 (after meta
clustering): 2,046 metas, 224 ad-related, +1,930 ads, 210 known, 1,280
additional. Totals: 5,143 ads, 968 known, 1,647 additional.
"""

from conftest import BENCH_SCALE, paper_vs_measured

from repro.core.report import render_table, table4_rows


def test_table4_stage_counters(bench_result):
    rows = table4_rows(bench_result)
    print("\n" + render_table(
        ["stage", "#clusters", "#ad-related", "#WPN ads",
         "#known malicious", "#additional malicious"],
        rows,
    ))

    row1, row2, total = rows
    scale = BENCH_SCALE
    paper_vs_measured("Table 4", [
        ("clusters / WPNs ratio", f"{8780 / 12262:.2f}",
         f"{row1[1] / len(bench_records(bench_result)):.2f}"),
        ("stage-1 ads", f"{3213 * scale:.0f}", row1[3]),
        ("stage-2 additional ads", f"{1930 * scale:.0f}", row2[3]),
        ("total ads", f"{5143 * scale:.0f}", total[3]),
        ("total known malicious", f"{968 * scale:.0f}", total[4]),
        ("total additional malicious", f"{1647 * scale:.0f}", total[5]),
    ])

    # Shape: propagation + meta clustering find more malicious ads than the
    # blocklists alone (the paper's additional 1,647 vs known 968).
    assert total[5] > 0
    assert row2[3] > 0                       # meta stage adds ads
    assert total[3] == row1[3] + row2[3]     # totals add up


def bench_records(result):
    return result.records
