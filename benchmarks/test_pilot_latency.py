"""Section 6.1.2 pilot: first-notification latency.

Paper: pilot crawls with up to 96-hour waits over 1,425 URLs showed 98% of
sites send their first WPN within 15 minutes of the permission grant —
which justifies the 15-minute live window in the crawl policy.
"""

from conftest import paper_vs_measured

from repro.experiments import run_latency_pilot


def test_pilot_first_notification_latency(bench_dataset):
    result = run_latency_pilot(bench_dataset.ecosystem, n_sites=1425)

    print(f"\npilot sites with notifications: {result.sites_with_notifications}")
    print("first-notification latency CDF (minutes -> fraction):")
    for minutes, fraction in sorted(result.cdf_minutes.items()):
        print(f"    {minutes:8.1f} min  {fraction:.3f}")

    paper_vs_measured("Pilot latency", [
        ("within 15 min", "98%", f"{result.within_15min_pct}%"),
    ])

    assert result.within_15min_pct > 94.0
    assert result.cdf_minutes[60.0] >= result.cdf_minutes[15.0]
