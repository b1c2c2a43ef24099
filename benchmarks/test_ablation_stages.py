"""Ablation: how much each labeling stage adds over the blocklists.

The pipeline stacks: (1) raw VT/GSB hits, (2) guilt-by-association within
tight clusters, (3) meta-clustering + suspicion rules + verification. This
ablation measures malicious-WPN recall (against ground truth) after each
stage — quantifying the amplification the paper attributes to clustering.
"""

from conftest import paper_vs_measured

from repro.core.report import render_table


def test_stage_amplification(bench_result):
    truly = {r.wpn_id for r in bench_result.records if r.truth.malicious}

    stage1 = bench_result.labeling.known_malicious_ids
    stage2 = stage1 | bench_result.labeling.propagated_confirmed_ids
    stage3 = stage2 | bench_result.suspicion.confirmed_malicious_ids

    def recall(found):
        return len(found & truly) / len(truly)

    rows = [
        ("blocklists only (VT+GSB)", len(stage1), f"{recall(stage1):.3f}"),
        ("+ cluster propagation", len(stage2), f"{recall(stage2):.3f}"),
        ("+ meta clustering + suspicion", len(stage3), f"{recall(stage3):.3f}"),
    ]
    print("\n" + render_table(
        ["stage", "# malicious WPNs", "recall vs ground truth"], rows,
    ))

    amplification = recall(stage3) / recall(stage1) if recall(stage1) else 0.0
    paper_vs_measured("Stage amplification", [
        ("confirmed malicious growth", "968 -> 2,615 (2.7x)",
         f"{len(stage1)} -> {len(stage3)} ({len(stage3) / max(len(stage1), 1):.1f}x)"),
        ("pipeline/blocklist recall ratio", "~2.7x", f"{amplification:.1f}x"),
    ])

    # Monotone growth and real amplification at every stage.
    assert recall(stage1) < recall(stage2) < recall(stage3)
    assert amplification > 1.5
