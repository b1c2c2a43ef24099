"""Figure 6: distribution of WPN ads (and malicious ones) per ad network.

Paper shape: the aggressive monetization networks (Ad-Maven, PopAds,
PropellerAds, AdsTerra) carry WPN ads that are mostly malicious, while the
re-engagement platforms (OneSignal, PushEngage, iZooto) carry few.
"""

from repro.core.report import fig6_network_distribution, render_table


def test_fig6_per_network(bench_result):
    rows = fig6_network_distribution(bench_result)
    print("\n" + render_table(["ad network", "#WPN ads", "#malicious"], rows))

    by_network = {name: (ads, malicious) for name, ads, malicious in rows}

    def malicious_share(name):
        ads, malicious = by_network.get(name, (0, 0))
        return malicious / ads if ads else 0.0

    # Who wins: Ad-Maven carries the most ads overall (largest footprint).
    leader = max(rows, key=lambda r: r[1])[0]
    assert leader == "Ad-Maven"

    # Abuse concentration: monetizers vs re-engagement platforms.
    if "Ad-Maven" in by_network and "OneSignal" in by_network:
        assert malicious_share("Ad-Maven") > 0.5
        assert malicious_share("OneSignal") < 0.35
        assert malicious_share("Ad-Maven") > malicious_share("OneSignal")

    # Many networks are abused, not just one (paper: "many of the ad
    # networks we considered are abused").
    abused = sum(1 for _, ads, malicious in rows if malicious > 0)
    assert abused >= 4
