"""Scale and absorb contracts of the blocked sparse path, without timing.

URL blocking keeps the batch miner off the dense O(n^2) trajectory, and
absorbing a new batch keeps a continuously crawled corpus from re-paying
the whole pipeline.  Both show up as deterministic counts: candidate and
stored pairs, the peak matrix footprint, absorb accounting and the spans a
traced absorb enters.  This module pins them on world seed 7 under the
default NullClock tracer, so no assertion here depends on host speed.

Three checks bind even if the pins are ever regenerated, and each has a
test feeding it a violating input:

* :func:`assert_dense_fractions` — every counter stays under its share of
  the dense quadratic (all ``n(n-1)/2`` pairs; one ``n x n`` float64
  matrix);
* :func:`assert_growth_bounded` — each counter's fitted growth exponent
  against the record count stays within :data:`GROWTH_EXPONENT_DRIFT` of
  its pinned trajectory;
* :func:`assert_no_remine_spans` — an absorb never enters a full-mine
  stage (features, text model, blocking, distances, linkage or cut).
"""

import math

import pytest

from repro import PushAdMiner, paper_scenario, run_full_crawl
from repro.incremental import IncrementalMiner
from repro.obs import Tracer

SEED = 7
SPARSE = dict(storage="sparse", blocking="url")

#: Per-scale sparse-mine counters, in :data:`SWEEP_KEYS` order.
SWEEP_KEYS = (
    "n_records", "candidate_pairs", "stored_pairs", "peak_matrix_bytes",
    "wpn_clusters",
)
SWEEP_PINS = {
    0.0625: (1008, 116423, 15801, 536064, 641),
    0.125: (1734, 386600, 52907, 1706904, 1141),
    0.25: (3874, 1920426, 262135, 8419320, 2621),
}

#: Ceiling on each counter as a fraction of its dense quadratic; crossing
#: one means candidate pruning collapsed back to all pairs.
DENSE_FRACTION_CEILINGS = {
    "candidate_pairs": 0.50,
    "stored_pairs": 0.125,
    "peak_matrix_bytes": 0.25,
}

#: Endpoint growth exponents of the pinned sweep, and the drift allowed
#: above them before growth counts as pulling toward the dense trajectory.
GROWTH_EXPONENT_PINS = {
    "candidate_pairs": 2.082,
    "stored_pairs": 2.086,
    "peak_matrix_bytes": 2.046,
}
GROWTH_EXPONENT_DRIFT = 0.15

#: The absorb leg holds out the last 5% of the scale-0.25 valid records.
ABSORB_SCALE = 0.25
BATCH_FRACTION = 0.05
ABSORB_PINS = {
    "n_base": 3680, "n_batch": 194, "n_union": 3874,
    "assigned": 53, "opened": 141,
}
UNION_SUMMARY = {
    "ad_campaigns": 302,
    "malicious_ad_pct": 49.5,
    "malicious_ads": 822,
    "malicious_campaigns": 149,
    "meta_clusters": 598,
    "residual_singletons": 705,
    "singleton_clusters": 2013,
    "suspicious_meta_clusters": 123,
    "wpn_ads": 1662,
    "wpn_clusters": 2626,
    "wpns_clustered": 3874,
}

#: Full-mine stages an absorb must never re-enter.
REMINE_SPANS = (
    "pipeline.features", "pipeline.text_model", "pipeline.blocking",
    "pipeline.distances", "pipeline.linkage", "pipeline.cut",
)


# ----------------------------------------------------------------------
# Contract checks
# ----------------------------------------------------------------------
def dense_reference(row, key):
    """The dense quadratic a sweep counter is measured against."""
    n = row["n_records"]
    if key == "peak_matrix_bytes":
        return n * n * 8
    return n * (n - 1) / 2


def assert_dense_fractions(row):
    for key, ceiling in DENSE_FRACTION_CEILINGS.items():
        fraction = row[key] / dense_reference(row, key)
        assert fraction <= ceiling, (
            f"n={row['n_records']}: {key} is {fraction:.1%} of the dense "
            f"quadratic (ceiling {ceiling:.1%})"
        )


def growth_exponent(rows, key):
    """``e`` in ``value ~ n**e``, fitted on the sweep's endpoints."""
    first, last = rows[0], rows[-1]
    return math.log(last[key] / first[key]) / math.log(
        last["n_records"] / first["n_records"]
    )


def assert_growth_bounded(rows):
    for key, pinned in GROWTH_EXPONENT_PINS.items():
        exponent = growth_exponent(rows, key)
        assert exponent <= pinned + GROWTH_EXPONENT_DRIFT, (
            f"{key} grows as n^{exponent:.3f}, over its bound "
            f"n^{pinned + GROWTH_EXPONENT_DRIFT:.3f}"
        )


def assert_no_remine_spans(root):
    entered = sorted({s.name for s in root.walk()} & set(REMINE_SPANS))
    assert not entered, f"absorb re-entered full-mine stages: {entered}"


# ----------------------------------------------------------------------
# Fixtures: one crawl per scale, one sparse mine per scale, one absorb
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def datasets():
    return {
        scale: run_full_crawl(config=paper_scenario(seed=SEED, scale=scale))
        for scale in SWEEP_PINS
    }


def _peak_matrix_bytes(tracer):
    return max(
        int(value)
        for span in tracer.root.walk()
        for name, value in span.metrics.items()
        if name.endswith("_bytes")
    )


@pytest.fixture(scope="module")
def sweep(datasets):
    rows = []
    for scale, dataset in datasets.items():
        tracer = Tracer()
        result = PushAdMiner.for_dataset(
            dataset, tracer=tracer, **SPARSE
        ).run(dataset.valid_records)
        blocking = tracer.root.find("pipeline.blocking")
        rows.append({
            "scale": scale,
            "n_records": len(dataset.valid_records),
            "candidate_pairs": int(blocking.metrics["candidate_pairs"]),
            "stored_pairs": int(blocking.metrics["stored_pairs"]),
            "peak_matrix_bytes": _peak_matrix_bytes(tracer),
            "wpn_clusters": result.summary()["wpn_clusters"],
        })
    return rows


@pytest.fixture(scope="module")
def absorbed(datasets):
    dataset = datasets[ABSORB_SCALE]
    valid = dataset.valid_records
    n_batch = round(len(valid) * BATCH_FRACTION)
    base, batch = valid[:-n_batch], valid[-n_batch:]
    base_result = PushAdMiner.for_dataset(dataset, **SPARSE).run(base)
    tracer = Tracer()
    miner = IncrementalMiner.from_result(base_result, tracer=tracer)
    report = miner.absorb(batch)
    return len(base), report, miner, tracer


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def test_sweep_counters_are_pinned(sweep):
    assert {
        row["scale"]: tuple(row[key] for key in SWEEP_KEYS) for row in sweep
    } == SWEEP_PINS


def test_sweep_stays_under_dense_fraction_ceilings(sweep):
    for row in sweep:
        assert_dense_fractions(row)


def test_sweep_growth_stays_under_exponent_bound(sweep):
    assert_growth_bounded(sweep)


def test_dense_fraction_check_fails_over_a_ceiling():
    n = 1000
    row = {
        "n_records": n,
        "candidate_pairs": 100,
        "stored_pairs": n * (n - 1) // 2 // 4,  # 25% > the 12.5% ceiling
        "peak_matrix_bytes": 8,
    }
    with pytest.raises(AssertionError, match="stored_pairs"):
        assert_dense_fractions(row)


def test_growth_check_fails_over_its_bound():
    # Stored pairs growing as n^2.5 against a pinned ~n^2.09 + 0.15.
    rows = [
        {"n_records": n, "candidate_pairs": n ** 2, "stored_pairs": n ** 2.5,
         "peak_matrix_bytes": n ** 2}
        for n in (1000, 4000)
    ]
    with pytest.raises(AssertionError, match="stored_pairs"):
        assert_growth_bounded(rows)


# ----------------------------------------------------------------------
# The absorb
# ----------------------------------------------------------------------
def test_absorb_accounting_is_pinned(absorbed):
    n_base, report, _, _ = absorbed
    assert {
        "n_base": n_base,
        "n_batch": report.batch_size,
        "n_union": report.corpus_size,
        "assigned": report.assigned,
        "opened": report.opened,
    } == ABSORB_PINS


def test_absorb_union_summary_is_pinned(absorbed):
    _, _, miner, _ = absorbed
    assert miner.result().summary() == UNION_SUMMARY


def test_absorb_enters_no_full_mine_span(absorbed):
    _, _, _, tracer = absorbed
    assert tracer.root.find("incremental.absorb") is not None
    assert_no_remine_spans(tracer.root)


def test_absorb_candidates_stay_under_batch_times_base(absorbed):
    n_base, report, _, _ = absorbed
    assert 0 < report.n_candidates <= report.batch_size * n_base


def test_remine_span_check_fails_on_a_traced_distances_span():
    tracer = Tracer()
    with tracer.span("incremental.absorb"):
        with tracer.span("pipeline.distances"):
            pass
    with pytest.raises(AssertionError, match="pipeline.distances"):
        assert_no_remine_spans(tracer.root)
