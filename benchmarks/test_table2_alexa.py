"""Table 2: Alexa-rank breakdown of notification-requesting domains.

Paper: 2,040 of the 5,697 NPR domains (36%) ranked in Alexa's top 1M, so
push prompts are not confined to low-tier sites.
"""

from conftest import paper_vs_measured

from repro.core.report import render_table, table2_rows


def test_table2_rank_breakdown(bench_dataset):
    rows = table2_rows(bench_dataset)
    print("\n" + render_table(["Alexa rank", "# NPR domains"], rows))

    total = sum(count for _, count in rows)
    ranked = total - dict(rows)["unranked"]
    paper_vs_measured("Table 2", [
        ("NPR domains", 5_697, total),
        ("ranked in top 1M", 2_040, ranked),
        ("ranked share", "36%", f"{100.0 * ranked / total:.0f}%"),
    ])

    assert 0.28 < ranked / total < 0.44
    by_bucket = dict(rows)
    # Long-tail shape: the 100K-1M bucket dominates the ranked mass.
    assert by_bucket["100K - 1M"] >= by_bucket["top 1K"]
