"""One encoding per section: the exported text is bitwise canonical JSON.

``MinedSnapshot.from_result`` encodes each payload section once and
derives the stage hashes, the content hash and the ``to_json`` text from
those encodings. These tests hold that text to the definitions it
replaces (``canonical_json(payload)`` and ``content_hash(payload)``) and
to sha256 pins of the snapshot text computed before the change, for a
dense mine, a sparse mine and an incremental result after three absorbed
batches of the shared seed-8, scale-0.03 world.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.serve.snapshot as snapshot_module
from repro import PushAdMiner
from repro.incremental import IncrementalMiner
from repro.serve import MinedSnapshot, canonical_json
from repro.serve.snapshot import content_hash

#: sha256 of ``to_json()`` and the content hash, per result kind.
PINNED = {
    "dense": (
        "fda803ede346ddd407a3634b9edae0d5fd87f9169acbc1cf38b2aa0def6335dc",
        "b362a7aecd2673dfa18c3a49b9c96ff0",
    ),
    "sparse": (
        "e4f71fa8055b6c218bff0b6b1bdc9c9af8795bdd3bff7d28425f8b17ad929ef1",
        "507e47a38cb6fe9824dd7dfa417e70c6",
    ),
    "incremental": (
        "e0369f415891f4fc9f124f0237012f188aba0ab8ccdc0d13e60927b7538611db",
        "7da234a28799335ecd641379445d0726",
    ),
}

#: Held-out records absorbed as three batches of eight.
HOLDOUT, BATCH = 24, 8


@pytest.fixture(scope="module")
def results(small_dataset, small_result):
    valid = small_dataset.valid_records
    sparse = PushAdMiner.for_dataset(
        small_dataset, storage="sparse", blocking="url"
    ).run(valid)
    base = PushAdMiner.for_dataset(small_dataset).run(valid[:-HOLDOUT])
    miner = IncrementalMiner.from_result(base)
    for start in range(len(valid) - HOLDOUT, len(valid), BATCH):
        miner.absorb(valid[start:start + BATCH])
    return {
        "dense": small_result,
        "sparse": sparse,
        "incremental": miner.result(),
    }


@pytest.mark.parametrize("kind", sorted(PINNED))
class TestExportedText:
    def test_text_is_canonical_json_of_payload(self, results, kind):
        snapshot = MinedSnapshot.from_result(results[kind])
        assert snapshot.to_json() == canonical_json(snapshot._payload)

    def test_hash_is_content_hash_of_payload(self, results, kind):
        snapshot = MinedSnapshot.from_result(results[kind])
        assert snapshot.hash == content_hash(snapshot._payload)
        assert MinedSnapshot.from_json(snapshot.to_json()).hash == snapshot.hash

    def test_text_sha256_pinned(self, results, kind):
        snapshot = MinedSnapshot.from_result(results[kind])
        text_sha = hashlib.sha256(snapshot.to_json().encode("utf-8"))
        assert (text_sha.hexdigest(), snapshot.hash) == PINNED[kind]


def test_from_result_encodes_each_top_level_section_once(
    small_result, monkeypatch
):
    encoded = []
    encode = snapshot_module.canonical_json

    def counting(obj):
        encoded.append(obj)
        return encode(obj)

    monkeypatch.setattr(snapshot_module, "canonical_json", counting)
    snapshot = MinedSnapshot.from_result(small_result)
    text = snapshot.to_json()
    monkeypatch.undo()

    payload = snapshot._payload
    containers = {
        key: value for key, value in payload.items()
        if isinstance(value, (dict, list))
    }
    assert {"records", "model", "campaigns", "verdicts", "urls"} <= set(
        containers
    )
    for key, value in containers.items():
        count = sum(1 for obj in encoded if obj is value)
        assert count == 1, f"section {key!r} encoded {count} times"
    # Nothing encodes the whole payload, and to_json encodes nothing.
    assert not any(
        isinstance(obj, dict) and "records" in obj for obj in encoded
    )
    assert snapshot.to_json() is text
