"""Deterministic serving layer over a completed miner run (ROADMAP item 2).

The paper's end product is a *queryable* artifact — campaign assignments,
maliciousness verdicts and blocklist-coverage answers — not the clustering
run itself.  ``repro.serve`` packages that artifact and answers queries
against it:

* :mod:`repro.serve.snapshot` — :class:`MinedSnapshot`, the versioned
  (``repro-snapshot/1``), content-hashed export of one
  :class:`~repro.core.pipeline.PipelineResult`;
* :mod:`repro.serve.core` — :class:`ServeCore`, the framework-free
  request/response engine (``check`` / ``classify`` / ``campaign`` /
  ``stats``) running the training-time distance kernels over an
  :class:`~repro.perf.plan.ExecutionPlan`, with a content-hash LRU
  response cache;
* :mod:`repro.serve.cache` — :class:`ResponseCache`, the thread-safe LRU
  of canonical response strings;
* :mod:`repro.serve.wsgi` — a pure-WSGI adapter (no sockets at import
  time) plus the CLI-edge ``serve_forever``;
* :mod:`repro.serve.loadgen` — the deterministic threaded load generator
  (one response checksum at any thread count).

The package sits above ``util``/``obs``/``perf``/``core`` and below
nothing the tests depend on; ``docs/SERVING.md`` documents the snapshot
lifecycle, cache semantics and determinism guarantees.
"""

from repro.serve.cache import DEFAULT_CACHE_SIZE, ResponseCache, response_cache_key
from repro.serve.core import (
    RESPONSE_SCHEMA,
    InvalidQueryError,
    ServeCore,
    UnknownCampaignError,
)
from repro.serve.loadgen import LoadgenResult, generate_requests, run_load
from repro.serve.snapshot import (
    SNAPSHOT_SCHEMA,
    MinedSnapshot,
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotSchemaError,
    canonical_json,
)
from repro.serve.wsgi import create_app, serve_forever

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "InvalidQueryError",
    "LoadgenResult",
    "MinedSnapshot",
    "RESPONSE_SCHEMA",
    "ResponseCache",
    "SNAPSHOT_SCHEMA",
    "ServeCore",
    "SnapshotError",
    "SnapshotIntegrityError",
    "SnapshotSchemaError",
    "UnknownCampaignError",
    "canonical_json",
    "create_app",
    "generate_requests",
    "response_cache_key",
    "run_load",
    "serve_forever",
]
