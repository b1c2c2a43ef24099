"""Section 6.3.2: blocklist coverage lag.

Paper: first scan flagged <1% of landing URLs on VT (108 URLs); the same
set a month later: 1,388 URLs = 11.31%. GSB stayed at ~1% both times.
"""

from conftest import paper_vs_measured

from repro.experiments import run_blocklist_lag


def test_blocklist_coverage_lag(bench_dataset):
    result = run_blocklist_lag(bench_dataset)

    paper_vs_measured("Blocklist lag", [
        ("VT initial scan", "<1%", f"{result.vt_initial_pct:.2f}%"),
        ("VT one month later", "11.31%", f"{result.vt_late_pct:.2f}%"),
        ("GSB (stable)", "~1%", f"{result.gsb_late_pct:.2f}%"),
        ("VT late recall of truly-malicious", "~0.5",
         f"{result.vt_recall_late:.2f}"),
    ])

    assert result.vt_initial_pct < 2.0
    assert 5.0 < result.vt_late_pct < 30.0
    assert result.gsb_late_pct < 3.0
    assert result.gsb_flagged_initial == result.gsb_flagged_late
    # Even a month later, most truly-malicious URLs stay undetected — the
    # paper's core defense-gap finding.
    assert result.vt_recall_late < 0.8
