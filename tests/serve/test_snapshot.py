"""MinedSnapshot: export determinism, round-trips, integrity refusals."""

import dataclasses
import json

import numpy as np
import pytest

from repro.serve import (
    SNAPSHOT_SCHEMA,
    MinedSnapshot,
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotSchemaError,
    canonical_json,
)
from repro.core.pipeline import MinerConfig
from repro.serve.snapshot import (
    _section_hash,
    content_hash,
    decode_array,
    encode_array,
)

#: Editing MinerConfig's fields (names, order or defaults) changes every
#: snapshot's ``config_fingerprint`` and content hash, so the snapshot
#: hash the end-to-end benchmark pins (perfbench/pins.json) moves too.
REPIN = (
    "MinerConfig is the snapshot's provenance schema: this change moves "
    "perfbench/pins.json's snapshot_hash and has to land with a "
    "benchmark re-pin"
)


class TestExport:
    def test_schema_tag(self, snapshot):
        assert snapshot.schema == SNAPSHOT_SCHEMA

    def test_export_is_deterministic(self, snapshot, small_result):
        again = MinedSnapshot.from_result(small_result)
        assert again.to_json() == snapshot.to_json()
        assert again.hash == snapshot.hash

    def test_hash_matches_contents(self, snapshot):
        payload = json.loads(snapshot.to_json())
        assert payload["content_hash"] == content_hash(payload)

    def test_url_tokens_stored_sorted(self, snapshot):
        for row in snapshot.records:
            assert row["url_tokens"] == sorted(row["url_tokens"])

    def test_provenance_carries_config_and_stage_hashes(self, snapshot):
        provenance = snapshot.provenance
        assert provenance["seed"] == snapshot.provenance["config"]["seed"]
        assert set(provenance["stage_hashes"]) == {
            "records", "model", "campaigns", "verdicts", "urls",
        }
        assert provenance["config_fingerprint"]

    def test_unfitted_result_is_rejected(self, small_result):
        import dataclasses

        bare = dataclasses.replace(small_result, text_model=None)
        with pytest.raises(SnapshotError, match="fitted text model"):
            MinedSnapshot.from_result(bare)


class TestConfigSchema:
    def test_field_names_are_pinned(self):
        names = tuple(field.name for field in dataclasses.fields(MinerConfig))
        assert names == (
            "seed", "vt_early_rate", "vt_late_rate", "gsb_rate",
            "vt_fp_rate", "unconfirmable_rate", "cut_threshold",
            "months_elapsed", "tile_size", "workers", "crawl_workers",
            "precision", "storage", "blocking", "blocking_bound",
        ), REPIN

    def test_sparse_config_fingerprint_is_pinned(self):
        config = MinerConfig(storage="sparse", blocking="url")
        fingerprint = _section_hash(dataclasses.asdict(config))
        assert fingerprint == "b0e00bfdc0b3ddc66bc78cb3889b14d5", REPIN


class TestRoundTrip:
    def test_save_load_identity(self, snapshot, snapshot_path):
        loaded = MinedSnapshot.load(snapshot_path)
        assert loaded.to_json() == snapshot.to_json()
        assert loaded.hash == snapshot.hash

    def test_from_json_identity(self, snapshot):
        assert MinedSnapshot.from_json(snapshot.to_json()).hash == snapshot.hash

    def test_model_arrays_are_byte_exact(self, snapshot, snapshot_path):
        loaded = MinedSnapshot.load(snapshot_path)
        original = decode_array(snapshot.model["embeddings"])
        restored = decode_array(loaded.model["embeddings"])
        assert original.tobytes() == restored.tobytes()

    def test_encode_decode_array_round_trip(self):
        array = np.array([[0.1, -2.5e-17], [np.pi, 4.0]])
        restored = decode_array(encode_array(array))
        assert restored.shape == array.shape
        assert restored.tobytes() == array.tobytes()


class TestIntegrity:
    def test_tampered_payload_is_refused(self, snapshot):
        payload = json.loads(snapshot.to_json())
        payload["cut_threshold"] = payload["cut_threshold"] + 0.01
        with pytest.raises(SnapshotIntegrityError, match="hash mismatch"):
            MinedSnapshot.from_payload(payload)

    def test_stale_hash_is_refused(self, snapshot):
        payload = json.loads(snapshot.to_json())
        payload["content_hash"] = "0" * 32
        with pytest.raises(SnapshotIntegrityError) as excinfo:
            MinedSnapshot.from_payload(payload)
        message = str(excinfo.value)
        assert "0" * 32 in message  # names the recorded hash
        assert "stale" in message

    def test_verify_false_skips_the_hash_check(self, snapshot):
        payload = json.loads(snapshot.to_json())
        payload["content_hash"] = "0" * 32
        assert MinedSnapshot.from_payload(payload, verify=False).hash == "0" * 32

    def test_unknown_schema_is_refused(self, snapshot):
        payload = json.loads(snapshot.to_json())
        payload["schema"] = "repro-snapshot/99"
        with pytest.raises(SnapshotSchemaError, match="repro-snapshot/99"):
            MinedSnapshot.from_payload(payload)

    def test_missing_schema_is_refused(self):
        with pytest.raises(SnapshotSchemaError):
            MinedSnapshot.from_payload({"content_hash": ""})

    def test_invalid_json_is_a_snapshot_error(self):
        with pytest.raises(SnapshotError, match="not valid JSON"):
            MinedSnapshot.from_json("{nope")

    def test_non_object_payload_is_a_snapshot_error(self):
        with pytest.raises(SnapshotError, match="JSON object"):
            MinedSnapshot.from_json("[1,2,3]")


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'

    def test_floats_round_trip_exactly(self):
        value = 0.21233822600867486
        assert json.loads(canonical_json({"x": value}))["x"] == value
