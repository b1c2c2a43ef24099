"""The paper suite's shared fixtures and its printout pin.

One paper-scale crawl and one analysis at 1/8 of the paper's URL
population (rates are calibrated so every measured *fraction* should
match the paper), shared by every test. Each test prints its
paper-vs-measured text; ``PRINTOUT_SHA256`` pins that text's sha256 per
test, so a change that moves a printed number fails the suite. Nothing
here is timed: perfbench owns timing. The scale is fixed because the
suite mines dense storage, which does not fit in memory at scale 1.0
(``python -m repro analyze --storage sparse`` measures that scale).
Show the tables with::

    python -m pytest -q -s benchmarks
"""

from __future__ import annotations

import hashlib

import pytest

from repro import PushAdMiner, paper_scenario, run_full_crawl

BENCH_SEED = 7
BENCH_SCALE = 0.125


@pytest.fixture(scope="session")
def bench_config():
    return paper_scenario(seed=BENCH_SEED, scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def bench_dataset(bench_config):
    return run_full_crawl(config=bench_config)


@pytest.fixture(scope="session")
def bench_result(bench_dataset):
    miner = PushAdMiner.for_dataset(bench_dataset)
    return miner.run(bench_dataset.valid_records)


def paper_vs_measured(title, rows):
    """Uniform printout: (metric, paper value, measured value) rows."""
    print(f"\n=== {title} (paper vs measured, scale={BENCH_SCALE}) ===")
    width = max(len(str(r[0])) for r in rows)
    print(f"{'metric'.ljust(width)}  {'paper':>14}  {'measured':>14}")
    for metric, paper, measured in rows:
        print(f"{str(metric).ljust(width)}  {str(paper):>14}  {str(measured):>14}")


# sha256 of each test's printed paper-vs-measured text, at BENCH_SEED and
# BENCH_SCALE. A change that moves a printed number fails its test; re-pin
# by editing the digest here, with the reason in the same change.
PRINTOUT_SHA256 = {
    "test_advertiser_click_cost":
        "d69fa34ff83aed48789906599bb9a36d5d63c8a4614860d837294f8f92c2ab23",
    "test_blocklist_coverage_lag":
        "dd3959005ff8b88575f3899450883cdcd9c828a91dc8b8fb6f8e787046605928",
    "test_container_isolation_vs_shared_profile":
        "24b1d7dc2ec84543df053f2e1ab9ada355230884758c66bb5ecd493421393986",
    "test_cut_selection_ablation":
        "bd871e0c8e30ab9cab337658d95bf2ceac5b26407507b1f1df42f66425b147ea",
    "test_detector_train_eval":
        "50a25bee817e9480a7689e8ab1ba051ce224801b5ae76bd26be67fa4cd535239",
    "test_double_permission_recheck":
        "c7aefa2d95ade45522e858d4c98c52d337ea50fd2856fb937a3da48ea3adaa77",
    "test_feature_channel_ablation":
        "749879f5a6c3d789199e22250fee4f8f6d68eaa27ef4b940fe53dffb80f5343e",
    "test_fig4_examples":
        "2c4847e1e7f1b8d33cc0db99f149724a9ab9bed89a76205b90c7e74e6818e85c",
    "test_fig5_meta_graphs":
        "248335e48618797b765a97a6f59741b5a48d8c3fffe1427e5ad178af828acf5d",
    "test_fig6_per_network":
        "82edfbd8ac236d71d2d01a2687ff616778a980818587769e2557c206ad26564f",
    "test_pilot_first_notification_latency":
        "3db96007a82a5e3a91e5277a2c623de735e3cbe8df0fe58671612bedfe31e951",
    "test_quiet_ui":
        "6676573351a8a37d50f6ae465166ac245a411b4eb967ce4fbf5ae4ecb6f2e547",
    "test_real_device_vs_emulator":
        "0483495b2a1d4b7e96d8bb45ed9e38d60e0bbc86d182617561fbc1181c9fa887",
    "test_realtime_blocking_deployment":
        "eaa68b678aa4a2e1eedefad8e5b783f3771fd5f86ef4e19b95291b6cfa8ce32b",
    "test_revisit_experiment":
        "e827f4691f0c68974759c982507a37f86a40793658eae047d7069f40a24ac8a7",
    "test_stage_amplification":
        "10b87d4c196eb532a7f4f3652c4d6775f739213422d3faad399ae8a215b38ab0",
    "test_table1_seed_discovery":
        "e7856880fd52bcc0e673ea14d7651bdf272dcaab8213932d859e3fae7c8bbf63",
    "test_table2_rank_breakdown":
        "e637383d925f7c5e5d7061f8fdec547f83402f383a46c69d6ec4245eb3168609",
    "test_table3_full_pipeline":
        "16edbc0dc38e065d902d31a873590d2e95f794bae5088180a3eb446cd5b78d5f",
    "test_table4_stage_counters":
        "c2ee4454beb899dfea5758e638aa86677c89a5fea936bdc8fb7cc5bf4dd23cc3",
    "test_table5_residual_singletons":
        "3e8f721d195dd38d13f476ba1e8f8f00447845f1a9daefa2663ee20c394afd6b",
    "test_table6_blocking":
        "f7580a62a8f3aa58361cd7f2d9ae387e0085eb13311776f63ab12647863e6854",
}


@pytest.fixture(autouse=True)
def pinned_printout(request, capsys):
    """Fail a test whose stdout differs from its ``PRINTOUT_SHA256`` pin.

    pytest hands the captured text on to the terminal (``-s``) or to the
    failure report when the call ends, so the tables still show.
    """
    yield
    text = capsys.readouterr().out
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    name = request.node.name
    pinned = PRINTOUT_SHA256.get(name)
    if digest != pinned:
        pytest.fail(
            f"{name}: printout sha256 {digest} != pinned {pinned}\n{text}",
            pytrace=False,
        )
