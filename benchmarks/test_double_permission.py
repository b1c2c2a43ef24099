"""Section 8: double-permission adoption re-check.

Paper: of 200 re-checked URLs that previously prompted directly, 49 (~1/4)
had switched to a JS pre-prompt; the crawler bypasses it by interacting
with the pre-prompt as well.
"""

from conftest import paper_vs_measured

from repro.experiments import run_double_permission_check


def test_double_permission_recheck(bench_dataset):
    result = run_double_permission_check(bench_dataset, n_sites=200)

    paper_vs_measured("Double permission", [
        ("sites re-checked", 200, result.rechecked_sites),
        ("switched to double permission", "49 (~25%)",
         f"{result.switched_to_double} "
         f"({100 * result.switched_fraction:.0f}%)"),
        ("real prompt still reached", 200, result.prompts_still_reachable),
    ])

    assert 0.15 < result.switched_fraction < 0.35
    assert result.prompts_still_reachable == result.rechecked_sites
