"""Extension: the real-time WPN blocker the paper proposes (section 6.3.3).

Trains on the first month's pipeline labels and replays the second month's
WPNs in send order, printing the blocking operating curve against ground
truth.
"""

from conftest import paper_vs_measured

from repro.core.report import render_table
from repro.experiments import run_realtime_blocking


def test_realtime_blocking_deployment(bench_dataset):
    result = run_realtime_blocking(bench_dataset)

    rows = [
        (
            f"{p.threshold:.1f}",
            f"{100 * p.block_rate_malicious:.1f}%",
            f"{100 * p.false_block_rate:.2f}%",
            p.blocked_malicious,
            p.blocked_benign,
        )
        for p in result.operating_points
    ]
    print("\n" + render_table(
        ["threshold", "malicious blocked", "benign falsely blocked",
         "#blocked malicious", "#blocked benign"],
        rows,
    ))

    best = result.best_under_false_block_budget(0.02)
    paper_vs_measured("Real-time blocking (future work)", [
        ("train WPNs (month 1)", "n/a", result.train_wpns),
        ("deploy WPNs (month 2)", "n/a", result.deploy_wpns),
        ("malicious in deploy window", "n/a", result.deploy_malicious),
        ("recall @ <=2% false blocks", "(proposed)",
         f"{100 * best.block_rate_malicious:.1f}%" if best else "n/a"),
    ])

    loosest = result.operating_points[0]
    assert loosest.block_rate_malicious > 0.6
    assert best is not None
    assert best.block_rate_malicious > 0.5
