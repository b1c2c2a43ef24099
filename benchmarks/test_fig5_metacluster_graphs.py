"""Figure 5: bipartite meta-cluster graphs.

Paper: Figure 5a shows WPN-C1 linked to 6 other campaigns of the same
sweepstakes/survey operation through shared landing domains; Figure 5b
shows WPN-C2 with 30 related fake-PayPal clusters none of which VT flagged.
"""

from conftest import paper_vs_measured

from repro.core.report import fig5_meta_graphs


def test_fig5_meta_graphs(bench_result):
    graphs = fig5_meta_graphs(bench_result, 2)
    assert graphs, "no suspicious meta clusters found"

    print()
    for i, graph in enumerate(graphs):
        clusters = [n for n, d in graph.nodes(data=True)
                    if d["bipartite"] == "cluster"]
        domains = [n for n, d in graph.nodes(data=True)
                   if d["bipartite"] == "domain"]
        campaigns = sum(1 for n in clusters if graph.nodes[n]["campaign"])
        print(f"meta graph {i}: {len(clusters)} WPN clusters "
              f"({campaigns} campaigns) x {len(domains)} landing domains, "
              f"{graph.number_of_edges()} edges")
        hubs = sorted(domains, key=graph.degree, reverse=True)[:3]
        for hub in hubs:
            print(f"    hub domain {hub}: degree {graph.degree(hub)}")

    big = graphs[0]
    paper_vs_measured("Figure 5 shape", [
        ("clusters in example component", "7-31",
         sum(1 for _, d in big.nodes(data=True) if d["bipartite"] == "cluster")),
    ])

    # Shape: a component ties multiple clusters through shared domains;
    # some domain is a hub (degree > 1) — that's what merges them.
    for graph in graphs:
        domain_degrees = [graph.degree(n) for n, d in graph.nodes(data=True)
                          if d["bipartite"] == "domain"]
        clusters = sum(1 for _, d in graph.nodes(data=True)
                       if d["bipartite"] == "cluster")
        if clusters > 1:
            assert max(domain_degrees) > 1
