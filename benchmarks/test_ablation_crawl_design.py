"""Ablation: the crawler's anti-evasion design choices (paper sections
6.1.3 and 8).

Two decisions the paper motivates empirically:

* **one container per URL** — ad networks fingerprint browsers and stop
  prompting recognized profiles, so a shared profile collects far fewer
  subscriptions;
* **a real device for the mobile crawl** — malicious campaigns withhold
  payloads from emulators, so an emulated crawl under-measures abuse.
"""

from repro.browser.browser import InstrumentedBrowser
from repro.browser.tracking import CookieJar, CrossSessionTracker
from repro.core.report import render_table
from repro.push.fcm import FcmService
from repro.util.rng import RngFactory


def test_container_isolation_vs_shared_profile(bench_dataset):
    ecosystem = bench_dataset.ecosystem
    tracker = CrossSessionTracker(reprompt_rate=0.25)
    sites = [
        s for s in ecosystem.websites
        if s.kind == "publisher" and s.requests_permission
        and set(s.network_names) & tracker.tracking_networks
    ][:150]

    shared_browser = InstrumentedBrowser(
        ecosystem, FcmService(), rng=RngFactory(3).stream("shared"),
        tracker=tracker, cookie_jar=CookieJar(),
    )
    shared = sum(
        1 for s in sites if shared_browser.visit(s, 0.0).decision == "granted"
    )
    isolated = 0
    for i, site in enumerate(sites):
        browser = InstrumentedBrowser(
            ecosystem, FcmService(), rng=RngFactory(300 + i).stream("iso"),
            tracker=tracker, cookie_jar=CookieJar(),
        )
        if browser.visit(site, 0.0).decision == "granted":
            isolated += 1
    print("\n" + render_table(
        ["crawl design", "tracked-network sites", "subscriptions obtained"],
        [
            ("shared browser profile", len(sites), shared),
            ("one container per URL (paper)", len(sites), isolated),
        ],
    ))
    assert isolated == len(sites)
    assert shared < isolated * 0.6


def test_real_device_vs_emulator(bench_dataset):
    ecosystem = bench_dataset.ecosystem

    def malicious_share(emulated, seed):
        rng = RngFactory(seed).stream("emu-ablation")
        hits = total = 0
        for _ in range(600):
            message = ecosystem.sample_ad_message(
                "Ad-Maven", "mobile", rng, emulated=emulated
            )
            if message is not None:
                total += 1
                hits += message.malicious
        return hits / total

    real, emulated = malicious_share(False, 1), malicious_share(True, 1)
    print("\n" + render_table(
        ["mobile crawl device", "malicious share of served ads"],
        [
            ("real device (paper's Nexus 5)", f"{real:.2f}"),
            ("emulator", f"{emulated:.2f}"),
        ],
    ))
    # The paper's observation: malicious mobile WPNs were "much more likely
    # to appear on real Android devices".
    assert real > emulated * 1.5
