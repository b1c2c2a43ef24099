#!/usr/bin/env python
"""Trace one instrumented browser session, hook by hook.

Follows a single publisher URL through the full WPN lifecycle the paper's
Chromium instrumentation logs: permission prompt -> auto-grant -> service
worker registration -> push subscription -> FCM delivery -> notification
display -> automated click -> SW click-tracking request -> redirect chain
-> landing page. Prints the raw event log, like reading the browser logs
the analysis pipeline consumes.

Usage::

    python examples/browser_session_trace.py [--seed 3] [--mobile]
"""

import argparse

from repro import generate_ecosystem, paper_scenario
from repro.crawler.seeds import discover_seeds
from repro.crawler.session import ContainerSession


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--mobile", action="store_true",
                        help="trace the Android path instead of desktop")
    args = parser.parse_args()

    ecosystem = generate_ecosystem(paper_scenario(seed=args.seed, scale=0.02))
    discovery = discover_seeds(ecosystem)
    platform = "mobile" if args.mobile else "desktop"

    # Find an active publisher that will actually push something.
    site = next(
        s for s in discovery.npr_sites()
        if s.kind == "publisher" and s.active_notifier
    )
    print(f"Visiting {site.url} (embeds: {', '.join(site.network_names)}) "
          f"on {platform}\n")

    session = ContainerSession(
        ecosystem=ecosystem, site=site, platform=platform, start_min=0.0
    )
    result = session.run()

    print("--- instrumentation event log ---")
    for event in session.browser.events:
        interesting = {
            k: v for k, v in event.data.items()
            if k in ("origin", "url", "decision", "title", "script_url",
                     "to_url", "purpose", "page_kind")
        }
        details = "  ".join(f"{k}={str(v)[:56]}" for k, v in interesting.items())
        print(f"[{event.time_min:10.2f} min] {event.kind:22s} {details}")

    print(f"\n--- harvested WPN records: {len(result.records)} ---")
    for record in result.records[:5]:
        flag = "MALICIOUS" if record.truth.malicious else "benign"
        landing = record.landing_url or "(no landing: crashed/invalid)"
        print(f"  [{flag:9s}] {record.title[:40]:42s} -> {landing[:64]}")

    if platform == "mobile" and session.device is not None:
        print(f"\n--- last ADB logcat lines "
              f"({session.device.accessibility.taps} accessibility taps) ---")
        session.device.sync_logcat()
        for line in session.device.logcat.lines[-5:]:
            print(" ", line[:100])


if __name__ == "__main__":
    main()
