"""Every ``IncrementalDriftError`` refusal path, on synthetic inputs.

The incremental path's contract is *never silently approximate*: any
base state it cannot verify, any batch it cannot absorb exactly, and any
artifact it does not maintain must raise the typed error.  Each test
tampers one precondition and asserts both the refusal and (via the
message) that the right check fired.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.textsim import SoftCosineModel
from repro.incremental import (
    IncrementalDriftError,
    IncrementalMiner,
    IncrementalResult,
)
from repro.serve import MinedSnapshot, SnapshotSchemaError
from repro.serve.snapshot import content_hash


def _construct(base_result, **overrides):
    config = overrides.pop("config", base_result.config)
    kwargs = dict(
        records=base_result.records,
        labels=np.asarray(base_result.labels),
        cut_threshold=base_result.cut_threshold,
        text_model=base_result.text_model,
    )
    kwargs.update(overrides)
    return IncrementalMiner(config, **kwargs)


def test_from_result_refuses_missing_text_model(base_result):
    stripped = dataclasses.replace(base_result, text_model=None)
    with pytest.raises(IncrementalDriftError, match="no fitted text model"):
        IncrementalMiner.from_result(stripped)


def test_refuses_empty_base(base_result):
    with pytest.raises(IncrementalDriftError, match="no records"):
        _construct(
            base_result, records=[], labels=np.empty(0, dtype=np.int64)
        )


def test_refuses_misaligned_labels(base_result):
    with pytest.raises(IncrementalDriftError, match="shape"):
        _construct(
            base_result, labels=np.asarray(base_result.labels)[:-1]
        )


def test_refuses_invalid_base_record(base_result):
    records = list(base_result.records)
    records[0] = dataclasses.replace(records[0], valid=False)
    with pytest.raises(IncrementalDriftError, match="invalid records"):
        _construct(base_result, records=records)


def test_refuses_unfitted_model(base_result):
    with pytest.raises(IncrementalDriftError, match="unfitted"):
        _construct(base_result, text_model=SoftCosineModel())


def test_refuses_sparse_cut_at_blocking_bound(sparse_base_result):
    bound = sparse_base_result.config.blocking_bound
    with pytest.raises(IncrementalDriftError, match="blocking"):
        _construct(
            sparse_base_result,
            config=sparse_base_result.config,
            cut_threshold=bound,
        )


def test_refuses_empty_batch(base_result):
    miner = IncrementalMiner.from_result(base_result)
    with pytest.raises(ValueError, match="non-empty"):
        miner.absorb([])


def test_refuses_invalid_batch_record(base_result, batch_records):
    miner = IncrementalMiner.from_result(base_result)
    bad = [dataclasses.replace(batch_records[0], valid=False)]
    with pytest.raises(IncrementalDriftError, match="invalid"):
        miner.absorb(bad)


def test_refuses_wpn_id_already_in_corpus(base_result):
    miner = IncrementalMiner.from_result(base_result)
    with pytest.raises(IncrementalDriftError, match="duplicate wpn id"):
        miner.absorb([base_result.records[0]])


def test_refuses_duplicate_within_batch(base_result, batch_records):
    miner = IncrementalMiner.from_result(base_result)
    with pytest.raises(IncrementalDriftError, match="duplicate wpn id"):
        miner.absorb([batch_records[0], batch_records[0]])


@pytest.mark.parametrize(
    "artifact", ["distances", "linkage", "silhouette"]
)
def test_result_refuses_dendrogram_artifacts(
    base_result, batch_records, artifact
):
    miner = IncrementalMiner.from_result(base_result)
    miner.absorb(batch_records)
    result = miner.result()
    assert isinstance(result, IncrementalResult)
    with pytest.raises(IncrementalDriftError, match="compact"):
        getattr(result, artifact)


def test_from_snapshot_refuses_length_mismatch(base_result):
    snapshot = MinedSnapshot.from_result(base_result)
    with pytest.raises(IncrementalDriftError, match="exact base corpus"):
        IncrementalMiner.from_snapshot(snapshot, base_result.records[:-1])


def test_from_snapshot_refuses_reordered_records(base_result):
    snapshot = MinedSnapshot.from_result(base_result)
    shuffled = [
        base_result.records[1],
        base_result.records[0],
        *base_result.records[2:],
    ]
    with pytest.raises(IncrementalDriftError, match="corpus order"):
        IncrementalMiner.from_snapshot(snapshot, shuffled)


def test_from_snapshot_refuses_drifted_landing_url(base_result):
    snapshot = MinedSnapshot.from_result(base_result)
    records = list(base_result.records)
    records[0] = dataclasses.replace(
        records[0], landing_url="https://drifted.example/landing"
    )
    with pytest.raises(IncrementalDriftError, match="landing URL"):
        IncrementalMiner.from_snapshot(snapshot, records)


@pytest.mark.parametrize(
    "edit, field",
    [
        ({"storage": "condensed"}, "storage"),
        ({"precision": "float32"}, "precision"),
        ({"tile_budget": 64}, "tile_budget"),
    ],
    ids=["removed-storage", "removed-precision", "unknown-key"],
)
def test_from_snapshot_refuses_a_config_this_build_lacks(
    base_result, edit, field
):
    # A hash-valid snapshot whose recorded config names a removed mode or
    # an unknown field is refused as a schema mismatch, not a bare
    # ValueError/TypeError from MinerConfig.
    payload = json.loads(MinedSnapshot.from_result(base_result).to_json())
    payload["provenance"]["config"].update(edit)
    payload["content_hash"] = content_hash(payload)
    snapshot = MinedSnapshot.from_json(json.dumps(payload))
    with pytest.raises(SnapshotSchemaError, match=field):
        IncrementalMiner.from_snapshot(snapshot, base_result.records)
