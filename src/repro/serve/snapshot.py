"""``MinedSnapshot``: the frozen, queryable artifact of a miner run.

ROADMAP item 2 splits the system the way the paper's deployment section
implies: a heavy offline :class:`~repro.core.pipeline.PushAdMiner` run, and
a lightweight always-on query endpoint answering "is this URL / WPN part of
a (malicious) push-ad campaign?".  The snapshot is the contract between the
two halves — everything :class:`~repro.serve.core.ServeCore` needs, and
nothing else:

* per-record clustering features (text tokens + *sorted* URL-path tokens)
  and flat cluster assignments, so nearest-campaign queries recompute the
  exact training-time distances;
* the fitted :class:`~repro.core.textsim.SoftCosineModel` (vocabulary +
  word embeddings, byte-exact via base64-encoded float64 buffers);
* campaign / labeling / meta-cluster verdicts, pre-joined per cluster,
  per WPN and per landing URL;
* provenance: the full :class:`~repro.core.pipeline.MinerConfig`, its
  fingerprint, and per-section stage hashes.

The serialized form is schema-versioned (``repro-snapshot/1``) canonical
JSON (sorted keys, no whitespace) carrying a blake2b content hash computed
with the hash field blanked.  :meth:`MinedSnapshot.load` refuses hash
mismatches (:class:`SnapshotIntegrityError`) and unknown schemas
(:class:`SnapshotSchemaError`), so a stale or hand-edited snapshot can
never silently serve wrong answers.

Determinism: every set is sorted before it is written, URL token lists are
stored sorted (``frozenset`` iteration order is hash-randomized across
processes), and floats round-trip exactly through ``repr`` — the same
:class:`~repro.core.pipeline.PipelineResult` always produces the same
snapshot bytes, in any process.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.pipeline import PipelineResult
from repro.core.textsim import SoftCosineModel

SNAPSHOT_SCHEMA = "repro-snapshot/1"

#: Number of example titles stored per cluster (first members, in corpus order).
_EXAMPLE_TITLES = 3


class SnapshotError(ValueError):
    """Base class for snapshot export/load failures."""


class SnapshotSchemaError(SnapshotError):
    """The payload's schema tag is missing or not a supported version, or
    its recorded config names a field or mode this build does not have."""


class SnapshotIntegrityError(SnapshotError):
    """The payload's content hash does not match its contents."""


def canonical_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, minimal separators, exact float repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _text_hash(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def content_hash(payload: Mapping[str, Any]) -> str:
    """blake2b hex digest of the payload with ``content_hash`` blanked."""
    scrubbed = dict(payload)
    scrubbed["content_hash"] = ""
    return _text_hash(canonical_json(scrubbed))


def _section_hash(section: Any) -> str:
    return _text_hash(canonical_json(section))


def _join_canonical(encoded: Mapping[str, str]) -> str:
    """``canonical_json`` of an object, from its values' canonical texts.

    Sorted keys and minimal separators make the object's text the sorted
    ``key:value`` pieces joined by commas, so this is bitwise
    ``canonical_json({key: value, ...})`` without encoding any value again.
    """
    return "{" + ",".join(
        f"{canonical_json(key)}:{encoded[key]}" for key in sorted(encoded)
    ) + "}"


def encode_array(array: np.ndarray) -> Dict[str, Any]:
    """Byte-exact JSON form of a float array (base64 of the C buffer)."""
    contiguous = np.ascontiguousarray(array, dtype=np.float64)
    return {
        "dtype": "float64",
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def decode_array(spec: Mapping[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`; the result is read-only."""
    raw = base64.b64decode(spec["data"])
    array = np.frombuffer(raw, dtype=np.dtype(str(spec["dtype"])))
    return array.reshape([int(dim) for dim in spec["shape"]])


class MinedSnapshot:
    """A versioned, content-hashed export of one completed miner run.

    Construct with :meth:`from_result` (export) or :meth:`load` /
    :meth:`from_json` (import, hash-verified).  The payload sections are
    exposed as read-only properties; :class:`~repro.serve.core.ServeCore`
    is the intended consumer.
    """

    def __init__(self, payload: Dict[str, Any], text: Optional[str] = None):
        self._payload = payload
        # ``from_result`` keeps the canonical text it assembled, so
        # ``to_json`` never encodes the payload again; the payload is
        # therefore read-only once exported.
        self._text = text

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result: PipelineResult) -> "MinedSnapshot":
        """Freeze a completed :class:`PipelineResult` into a snapshot.

        Each section is encoded once, and the stage hashes, the content
        hash and the kept :meth:`to_json` text all derive from those
        encodings (see ``docs/SERVING.md``).
        """
        model = result.text_model
        if model is None or not model.is_fitted:
            raise SnapshotError(
                "PipelineResult carries no fitted text model; snapshots can "
                "only be exported from PushAdMiner.run() results"
            )

        confirmed = (
            result.labeling.known_malicious_ids
            | result.labeling.propagated_confirmed_ids
            | result.suspicion.confirmed_malicious_ids
        )
        ad_ids = result.all_ad_ids

        records: List[Dict[str, Any]] = []
        for record, label in zip(result.records, result.labels):
            features = record.features
            records.append(
                {
                    "wpn_id": record.wpn_id,
                    "cluster_id": int(label),
                    "text_tokens": list(features.text_tokens),
                    "url_tokens": sorted(features.url_tokens),
                    "landing_url": record.landing_url,
                }
            )

        meta_of_cluster: Dict[int, int] = {}
        meta_domains: Dict[int, List[str]] = {}
        for meta in result.metas:
            meta_domains[meta.meta_id] = sorted(meta.domains)
            for cluster_id in meta.cluster_ids:
                meta_of_cluster[cluster_id] = meta.meta_id

        suspicious_meta_ids = result.suspicion.suspicious_meta_ids
        campaigns: Dict[str, Dict[str, Any]] = {}
        for cluster in result.clusters:
            meta_id = meta_of_cluster.get(cluster.cluster_id, -1)
            members = cluster.records
            campaigns[str(cluster.cluster_id)] = {
                "cluster_id": cluster.cluster_id,
                "size": len(members),
                "is_campaign": cluster.cluster_id
                in result.campaign_cluster_ids,
                "is_malicious": bool(cluster.wpn_ids & confirmed),
                "meta_id": meta_id,
                "suspicious": (
                    meta_id in suspicious_meta_ids
                    or cluster.cluster_id
                    in result.suspicion.suspicious_campaign_cluster_ids
                ),
                "wpn_ids": sorted(cluster.wpn_ids),
                "source_etld1s": sorted(cluster.source_etld1s),
                "landing_etld1s": sorted(cluster.landing_etld1s),
                "example_titles": [
                    r.title for r in members[:_EXAMPLE_TITLES]
                ],
            }

        verdicts = {
            row["wpn_id"]: {
                "is_ad": row["wpn_id"] in ad_ids,
                "is_malicious": row["wpn_id"] in confirmed,
            }
            for row in records
        }

        urls: Dict[str, Dict[str, Any]] = {}
        for row in records:
            url = row["landing_url"]
            if not url:
                continue
            entry = urls.setdefault(
                url,
                {
                    "wpn_ids": [],
                    "cluster_ids": [],
                    "flagged": url in result.labeling.flagged_urls,
                    "is_ad": False,
                    "is_malicious": False,
                },
            )
            entry["wpn_ids"].append(row["wpn_id"])
            if row["cluster_id"] not in entry["cluster_ids"]:
                entry["cluster_ids"].append(row["cluster_id"])
            verdict = verdicts[row["wpn_id"]]
            entry["is_ad"] = entry["is_ad"] or verdict["is_ad"]
            entry["is_malicious"] = (
                entry["is_malicious"] or verdict["is_malicious"]
            )
        for entry in urls.values():
            entry["wpn_ids"] = sorted(entry["wpn_ids"])
            entry["cluster_ids"] = sorted(entry["cluster_ids"])

        suspicious_domains = sorted(
            {
                domain
                for meta_id in suspicious_meta_ids
                for domain in meta_domains.get(meta_id, [])
            }
        )

        model_section = {
            "dimensions": model.dimensions,
            "blend": model.blend,
            "vocabulary": dict(model.vocabulary),
            "embeddings": encode_array(model.embeddings),
        }
        config_section = dataclasses.asdict(result.config)
        sections = {
            "records": records,
            "model": model_section,
            "campaigns": campaigns,
            "verdicts": verdicts,
            "urls": urls,
        }
        # Each section is encoded once; its stage hash, the content hash
        # and the snapshot text are all derived from that one encoding.
        encoded = {
            name: canonical_json(section) for name, section in sections.items()
        }
        payload: Dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA,
            "content_hash": "",
            "provenance": {
                "seed": result.config.seed,
                "config": config_section,
                "config_fingerprint": _section_hash(config_section),
                "stage_hashes": {
                    name: _text_hash(encoded[name]) for name in sorted(encoded)
                },
            },
            "cut_threshold": float(result.cut_threshold),
            "summary": result.summary(),
            "suspicious_domains": suspicious_domains,
            **sections,
        }
        for key, value in payload.items():
            if key not in encoded:
                encoded[key] = canonical_json(value)
        # content_hash(payload): the hash of the text with the field blank.
        payload["content_hash"] = _text_hash(_join_canonical(encoded))
        encoded["content_hash"] = canonical_json(payload["content_hash"])
        return cls(payload, text=_join_canonical(encoded))

    # ------------------------------------------------------------------
    # Import
    # ------------------------------------------------------------------
    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], verify: bool = True
    ) -> "MinedSnapshot":
        """Wrap a decoded payload, verifying schema and content hash."""
        schema = payload.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise SnapshotSchemaError(
                f"unsupported snapshot schema {schema!r}; this build reads "
                f"{SNAPSHOT_SCHEMA!r}"
            )
        if verify:
            expected = content_hash(payload)
            actual = payload.get("content_hash", "")
            if actual != expected:
                raise SnapshotIntegrityError(
                    "snapshot content hash mismatch (stale, truncated or "
                    f"hand-edited artifact): recorded {actual!r}, "
                    f"recomputed {expected!r}"
                )
        return cls(payload)

    @classmethod
    def from_json(cls, text: str, verify: bool = True) -> "MinedSnapshot":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"snapshot is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SnapshotError("snapshot payload must be a JSON object")
        return cls.from_payload(payload, verify=verify)

    @classmethod
    def load(cls, path: str, verify: bool = True) -> "MinedSnapshot":
        """Read and hash-verify a snapshot file.

        A damaged file raises a :class:`SnapshotError` subclass, never a
        decoding error: the bytes are decoded inside the same wrap as the
        JSON parse.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"snapshot is not valid UTF-8: {exc}") from exc
        return cls.from_json(text, verify=verify)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON of the payload (what :meth:`save` writes)."""
        if self._text is not None:
            return self._text
        return canonical_json(self._payload)

    def save(self, path: str) -> str:
        """Write the snapshot to ``path``; returns the content hash."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        return self.hash

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def schema(self) -> str:
        return str(self._payload["schema"])

    @property
    def hash(self) -> str:
        """The recorded content hash (verified at load time)."""
        return str(self._payload["content_hash"])

    @property
    def provenance(self) -> Dict[str, Any]:
        return self._payload["provenance"]

    @property
    def cut_threshold(self) -> float:
        return float(self._payload["cut_threshold"])

    @property
    def summary(self) -> Dict[str, Any]:
        return self._payload["summary"]

    @property
    def model(self) -> Dict[str, Any]:
        return self._payload["model"]

    @property
    def records(self) -> List[Dict[str, Any]]:
        return self._payload["records"]

    @property
    def campaigns(self) -> Dict[str, Dict[str, Any]]:
        return self._payload["campaigns"]

    @property
    def verdicts(self) -> Dict[str, Dict[str, Any]]:
        return self._payload["verdicts"]

    @property
    def urls(self) -> Dict[str, Dict[str, Any]]:
        return self._payload["urls"]

    @property
    def suspicious_domains(self) -> Sequence[str]:
        return self._payload["suspicious_domains"]

    @property
    def n_records(self) -> int:
        return len(self.records)

    def restore_text_model(self) -> SoftCosineModel:
        """The fitted text model, byte-exact from the model section.

        Shared by :class:`~repro.serve.core.ServeCore` (query distances)
        and ``repro.incremental`` (frozen-model featurization of new
        batches): both must reproduce the training-time numbers exactly.
        """
        spec = self.model
        model = SoftCosineModel(
            dimensions=int(spec["dimensions"]), blend=float(spec["blend"])
        )
        model.vocabulary = {
            str(token): int(index)
            for token, index in spec["vocabulary"].items()
        }
        model.embeddings = decode_array(spec["embeddings"])
        return model

    def __repr__(self) -> str:
        return (
            f"MinedSnapshot(schema={self.schema!r}, hash={self.hash!r}, "
            f"records={self.n_records})"
        )
