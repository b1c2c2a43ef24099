"""Table 5: residual singleton clusters after meta-clustering.

Paper: 7,731 first-stage singletons; 6,876 shared landing domains with
non-singleton clusters, leaving 855 residual singletons — a mix of simple
alerts and spurious suspicious ads (sampled in Table 5).
"""

from conftest import paper_vs_measured

from repro.core.report import render_table, table5_singletons


def test_table5_residual_singletons(bench_result):
    residual = bench_result.residual_singleton_clusters
    rows = table5_singletons(bench_result, sample=8)
    print("\n" + render_table(["message title", "landing domain", "analyst read"], rows))

    singles = [c for c in bench_result.clusters if c.is_singleton]
    paper_vs_measured("Table 5 context", [
        ("singleton clusters", 7_731, len(singles)),
        ("residual after meta", 855, len(residual)),
        ("reconnected share", f"{(7731 - 855) / 7731:.0%}",
         f"{(len(singles) - len(residual)) / max(len(singles), 1):.0%}"),
    ])

    # Shape: meta clustering reconnects a large share of singletons.
    assert len(residual) < len(singles)
    # Residual singletons include both reads the paper found.
    verdicts = {verdict for _, _, verdict in rows}
    assert verdicts <= {"simple alert", "spurious suspicious ad"}
