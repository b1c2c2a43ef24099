"""Exact pins of the latency pilot and the revisit experiment.

``test_experiments.py`` checks these experiments against loose paper-shape
bounds. This file pins every field they report (the revisit's
``pipeline`` aside, which the counts below summarise) for one fixed world,
so a rewrite of how the experiments drive the crawl cannot move a number
unseen.
"""

import dataclasses

import pytest

from repro import paper_scenario, run_full_crawl
from repro.experiments import run_latency_pilot, run_revisit_experiment


@pytest.fixture(scope="module")
def pinned_dataset():
    return run_full_crawl(config=paper_scenario(seed=3, scale=0.03))


def test_latency_pilot_pinned(pinned_dataset):
    result = run_latency_pilot(pinned_dataset.ecosystem, n_sites=200)
    assert dataclasses.asdict(result) == {
        "sites_with_notifications": 65,
        "within_15min_pct": 100.0,
        "cdf_minutes": {
            1.0: 0.092,
            5.0: 0.646,
            15.0: 1.0,
            60.0: 1.0,
            1440.0: 1.0,
        },
    }


def test_revisit_experiment_pinned(pinned_dataset):
    result = run_revisit_experiment(pinned_dataset, n_sites=100)
    assert result.pipeline is not None
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "pipeline"
    }
    assert fields == {
        "revisited_sites": 100,
        "active_sites": 14,
        "notifications": 58,
        "valid_notifications": 48,
        "wpn_ads": 6,
        "malicious_ads": 2,
        "vt_flagged_urls": 1,
    }
