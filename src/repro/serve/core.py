"""``ServeCore``: the framework-free deterministic query engine.

Answers the four questions an always-on deployment of the paper's miner
needs (section 7 discussion / ROADMAP item 2), entirely from a
:class:`~repro.serve.snapshot.MinedSnapshot`:

* :meth:`check` — has this landing URL been seen, was it blocklist-flagged,
  does it belong to a (malicious) push-ad campaign, does its eTLD+1 share
  infrastructure with a suspicious meta cluster?
* :meth:`classify` — assign a fresh WPN (title/body/landing URL) to its
  nearest mined campaign via the exact training-time distance (soft-cosine
  text blended with URL-path Jaccard), accepting the assignment only under
  the snapshot's dendrogram cut threshold;
* :meth:`campaign` — the frozen per-cluster dossier;
* :meth:`stats` — snapshot-wide headline numbers and provenance.

Determinism contract: responses are pure functions of ``(snapshot bytes,
canonical query)``.  Batched classification streams the
:func:`~repro.perf.kernels.query_distance_tile` kernel over an
:class:`~repro.perf.plan.ExecutionPlan`, so any worker count or tile size
yields bit-identical distances; the URL vocabulary is rebuilt from the
snapshot's *sorted* token lists, so it is stable across processes; nearest
ties break to the lowest corpus index (``np.argmin``); every response is
canonical-JSON round-tripped before it is returned, so cached (string
replay) and uncached (fresh compute) answers are the same bytes.

The response cache is keyed by content hash of the canonical query plus
the serving snapshot's content hash (see :mod:`repro.serve.cache`), so a
:meth:`ServeCore.refresh` hot-swap can never replay an answer computed
against the previous snapshot.  Hit/miss counters surface two ways: as
``serve.*`` tracer spans when a tracer is injected (single-threaded use
only — :class:`~repro.obs.Tracer` keeps a shared span stack), and via
:meth:`cache_info` (thread-safe, used by the load generator).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.textsim import SoftCosineModel
from repro.core.urlsim import url_membership_matrix, url_token_vocabulary
from repro.obs import Span, Tracer
from repro.perf import (
    ExecutionPlan,
    PairwiseOperands,
    QueryOperands,
    query_distance_tile,
)
from repro.serve.cache import DEFAULT_CACHE_SIZE, ResponseCache, response_cache_key
from repro.serve.snapshot import MinedSnapshot, canonical_json
from repro.util.domains import effective_second_level_domain
from repro.util.textproc import tokenize_text, tokenize_url_path
from repro.util.urls import Url

#: Schema tag stamped on every response object.
RESPONSE_SCHEMA = "repro-serve/1"


class UnknownCampaignError(KeyError):
    """:meth:`ServeCore.campaign` was asked about an id not in the snapshot."""


class InvalidQueryError(ValueError):
    """A classify query's ``landing_url`` is not an absolute http(s) URL."""


@dataclass(frozen=True)
class ServingState:
    """Everything :class:`ServeCore` derives from one snapshot, immutably.

    One bundle per snapshot generation: methods capture the current state
    once at entry and answer entirely from that capture, so a concurrent
    :meth:`ServeCore.refresh` can swap the bundle atomically (one
    attribute store, atomic under the GIL) without any request ever
    observing a half-updated mix of two snapshots.
    """

    snapshot: MinedSnapshot
    model: SoftCosineModel
    url_vocabulary: Dict[str, int]
    corpus: PairwiseOperands
    suspicious_domains: FrozenSet[str]


def _build_state(snapshot: MinedSnapshot) -> ServingState:
    """Derive the immutable serving state from one snapshot."""
    model = snapshot.restore_text_model()
    records = snapshot.records
    texts = [list(row["text_tokens"]) for row in records]
    bow_normed, doc_emb, zero_rows = model.corpus_operands(texts)
    url_lists = [list(row["url_tokens"]) for row in records]
    # Token lists are stored sorted, so first-seen vocabulary order —
    # and therefore every downstream sparse product — is process-stable.
    url_vocabulary = url_token_vocabulary(url_lists)
    member = url_membership_matrix(url_lists, url_vocabulary)
    sizes = np.asarray(member.sum(axis=1)).ravel()
    corpus = PairwiseOperands(
        bow_normed=bow_normed,
        doc_emb=doc_emb,
        zero_rows=zero_rows,
        blend=model.blend,
        url_member=member,
        url_sizes=sizes,
        url_empty=sizes == 0,
    )
    return ServingState(
        snapshot=snapshot,
        model=model,
        url_vocabulary=url_vocabulary,
        corpus=corpus,
        suspicious_domains=frozenset(snapshot.suspicious_domains),
    )


class ServeCore:
    """Deterministic request/response engine over one snapshot.

    ``workers`` / ``tile_size`` configure the classification kernel's
    :class:`ExecutionPlan` (any value is byte-identical); ``cache_size=0``
    disables the response cache; ``tracer`` opts into ``serve.*`` spans.
    :meth:`refresh` hot-swaps a newer snapshot atomically.
    """

    def __init__(
        self,
        snapshot: MinedSnapshot,
        *,
        workers: int = 1,
        tile_size: Optional[int] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        tracer: Optional[Tracer] = None,
    ):
        self._state = _build_state(snapshot)
        self._tracer = tracer

        plan_kwargs: Dict[str, int] = {"workers": workers}
        if tile_size is not None:
            plan_kwargs["tile_size"] = tile_size
        self._plan = ExecutionPlan(**plan_kwargs)
        self._cache: Optional[ResponseCache] = (
            ResponseCache(maxsize=cache_size) if cache_size > 0 else None
        )

    @property
    def snapshot(self) -> MinedSnapshot:
        """The currently-served snapshot (the latest refreshed one)."""
        return self._state.snapshot

    def refresh(self, snapshot: MinedSnapshot) -> str:
        """Atomically hot-swap a newer snapshot; returns its content hash.

        The replacement state (model, corpus operands, vocabulary) is
        built *before* the swap, so in-flight requests keep answering
        from the old state and the swap itself is one atomic attribute
        store — no request ever sees a mix of two snapshots.  The
        response cache is cleared afterwards for hygiene, but staleness
        does not depend on the clear: every cache key is salted with the
        snapshot content hash (:func:`~repro.serve.cache.response_cache_key`),
        so entries computed against the old snapshot are unreachable the
        instant the swap lands, even from requests racing the clear.
        """
        with self._span("serve.refresh") as span:
            state = _build_state(snapshot)
            old_hash = self._state.snapshot.hash
            self._state = state  # the atomic swap
            if self._cache is not None:
                self._cache.clear()
            if span is not None:
                span.gauge("records", snapshot.n_records)
                span.gauge("replaced", int(old_hash != snapshot.hash))
            return snapshot.hash

    # ------------------------------------------------------------------
    # Tracing / caching plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def _span(self, name: str) -> Iterator[Optional[Span]]:
        if self._tracer is None:
            yield None
        else:
            with self._tracer.span(name) as span:
                yield span

    def _cache_fetch(
        self, state: ServingState, method: str, query_json: str
    ) -> Tuple[str, Optional[Dict[str, Any]]]:
        """``(key, decoded response or None)`` for one canonical query.

        The key is salted with ``state``'s snapshot hash, so a lookup can
        only ever hit an entry computed against the same snapshot.
        """
        key = response_cache_key(method, query_json, state.snapshot.hash)
        if self._cache is None:
            return key, None
        cached = self._cache.get(key)
        if cached is None:
            return key, None
        return key, _loads(cached)

    def _cache_store(self, key: str, response: Dict[str, Any]) -> Dict[str, Any]:
        """Canonical-JSON round-trip the response; cache the string form."""
        text = canonical_json(response)
        if self._cache is not None:
            self._cache.put(key, text)
        return _loads(text)

    @staticmethod
    def _mark_span(
        span: Optional[Span], requests: int, hits: int
    ) -> None:
        if span is not None:
            span.gauge("requests", requests)
            span.gauge("cache_hits", hits)
            span.gauge("cache_misses", requests - hits)

    def cache_info(self) -> Dict[str, Any]:
        """Response-cache counters (all zero / disabled when ``cache_size=0``)."""
        if self._cache is None:
            return {
                "enabled": False,
                "hits": 0,
                "misses": 0,
                "size": 0,
                "maxsize": 0,
            }
        return {"enabled": True, **self._cache.info()}

    # ------------------------------------------------------------------
    # check(url)
    # ------------------------------------------------------------------
    def check(self, url: str) -> Dict[str, Any]:
        """Blocklist-style verdict for one landing URL."""
        return self.check_batch([url])[0]

    def check_batch(self, urls: Sequence[str]) -> List[Dict[str, Any]]:
        """:meth:`check` for many URLs under one ``serve.check`` span."""
        with self._span("serve.check") as span:
            state = self._state
            responses: List[Dict[str, Any]] = []
            hits = 0
            for url in urls:
                query_json = canonical_json({"url": url})
                key, cached = self._cache_fetch(state, "check", query_json)
                if cached is not None:
                    hits += 1
                    responses.append(cached)
                    continue
                responses.append(
                    self._cache_store(key, self._check_one(state, url))
                )
            self._mark_span(span, len(urls), hits)
            return responses

    def _check_one(self, state: ServingState, url: str) -> Dict[str, Any]:
        entry = state.snapshot.urls.get(url)
        try:
            etld1: Optional[str] = effective_second_level_domain(
                Url.parse(url).host
            )
        except ValueError:
            etld1 = None
        return {
            "schema": RESPONSE_SCHEMA,
            "kind": "check",
            "url": url,
            "known": entry is not None,
            "flagged_by_blocklist": bool(entry["flagged"]) if entry else False,
            "is_ad": bool(entry["is_ad"]) if entry else False,
            "is_malicious": bool(entry["is_malicious"]) if entry else False,
            "wpn_ids": list(entry["wpn_ids"]) if entry else [],
            "cluster_ids": list(entry["cluster_ids"]) if entry else [],
            "landing_etld1": etld1,
            "suspicious_infrastructure": (
                etld1 in state.suspicious_domains if etld1 else False
            ),
        }

    # ------------------------------------------------------------------
    # classify(wpn)
    # ------------------------------------------------------------------
    def classify(self, wpn: Mapping[str, Any]) -> Dict[str, Any]:
        """Nearest-campaign assignment for one WPN (title/body/landing_url).

        Implemented as a one-element :meth:`classify_batch`, so single and
        batched paths are byte-identical by construction.
        """
        return self.classify_batch([wpn])[0]

    def classify_batch(
        self, wpns: Sequence[Mapping[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Batched nearest-campaign lookup: one kernel pass for all misses."""
        with self._span("serve.classify") as span:
            state = self._state
            queries = [_normalize_wpn(w) for w in wpns]
            responses: List[Optional[Dict[str, Any]]] = [None] * len(queries)
            pending: List[Tuple[int, str, Dict[str, Any]]] = []
            hits = 0
            for i, query in enumerate(queries):
                query_json = canonical_json(
                    {k: query[k] for k in ("title", "body", "landing_url")}
                )
                key, cached = self._cache_fetch(state, "classify", query_json)
                if cached is not None:
                    hits += 1
                    responses[i] = cached
                else:
                    pending.append((i, key, query))
            if pending:
                distances = self._query_distances(
                    state, [q for _, _, q in pending]
                )
                for row, (i, key, query) in zip(distances, pending):
                    responses[i] = self._cache_store(
                        key, self._classify_one(state, query, row)
                    )
            self._mark_span(span, len(queries), hits)
            return [r for r in responses if r is not None]

    def _query_distances(
        self, state: ServingState, queries: Sequence[Dict[str, Any]]
    ) -> np.ndarray:
        """``(q, n)`` combined distances, queries vs the snapshot corpus."""
        texts = [q["text_tokens"] for q in queries]
        q_bow, q_emb, q_zero = state.model.corpus_operands(texts)
        url_lists = [q["url_tokens"] for q in queries]
        q_member = url_membership_matrix(url_lists, state.url_vocabulary)
        q_sizes = np.asarray(
            [len(tokens) for tokens in url_lists], dtype=np.float64
        )
        operands = QueryOperands(
            corpus=state.corpus,
            q_bow_normed=q_bow,
            q_doc_emb=q_emb,
            q_zero_rows=q_zero,
            q_url_member=q_member,
            q_url_sizes=q_sizes,
            q_url_empty=q_sizes == 0,
        )
        n = state.corpus.n
        blocks = self._plan.run(
            query_distance_tile, operands, self._plan.tiles(n)
        )
        return np.concatenate(blocks, axis=1)

    def _classify_one(
        self,
        state: ServingState,
        query: Dict[str, Any],
        distances: np.ndarray,
    ) -> Dict[str, Any]:
        snapshot = state.snapshot
        nearest = int(np.argmin(distances))  # ties break to lowest index
        distance = float(distances[nearest])
        record = snapshot.records[nearest]
        assigned = distance <= snapshot.cut_threshold
        campaign = snapshot.campaigns[str(record["cluster_id"])]
        verdict = snapshot.verdicts[record["wpn_id"]]
        return {
            "schema": RESPONSE_SCHEMA,
            "kind": "classify",
            "assigned": assigned,
            "distance": distance,
            "cut_threshold": snapshot.cut_threshold,
            "nearest": {
                "wpn_id": record["wpn_id"],
                "cluster_id": int(record["cluster_id"]),
            },
            "campaign": (
                {
                    "cluster_id": int(campaign["cluster_id"]),
                    "size": int(campaign["size"]),
                    "is_campaign": bool(campaign["is_campaign"]),
                    "is_malicious": bool(campaign["is_malicious"]),
                    "suspicious": bool(campaign["suspicious"]),
                }
                if assigned
                else None
            ),
            "verdict": (
                {
                    "is_ad": bool(verdict["is_ad"]),
                    "is_malicious": bool(verdict["is_malicious"]),
                }
                if assigned
                else {"is_ad": False, "is_malicious": False}
            ),
        }

    # ------------------------------------------------------------------
    # campaign(id) / stats()
    # ------------------------------------------------------------------
    def campaign(self, cluster_id: int) -> Dict[str, Any]:
        """The frozen dossier of one cluster; raises on unknown ids."""
        with self._span("serve.campaign") as span:
            state = self._state
            query_json = canonical_json({"cluster_id": int(cluster_id)})
            key, cached = self._cache_fetch(state, "campaign", query_json)
            if cached is not None:
                self._mark_span(span, 1, 1)
                return cached
            entry = state.snapshot.campaigns.get(str(int(cluster_id)))
            if entry is None:
                self._mark_span(span, 1, 0)
                raise UnknownCampaignError(
                    f"no campaign/cluster {cluster_id} in snapshot "
                    f"{state.snapshot.hash}"
                )
            response = {
                "schema": RESPONSE_SCHEMA,
                "kind": "campaign",
                **entry,
            }
            self._mark_span(span, 1, 0)
            return self._cache_store(key, response)

    def stats(self) -> Dict[str, Any]:
        """Snapshot-wide headline numbers; never cached, no cache counters."""
        with self._span("serve.stats") as span:
            snapshot = self._state.snapshot
            campaigns = snapshot.campaigns
            response = {
                "schema": RESPONSE_SCHEMA,
                "kind": "stats",
                "snapshot": {
                    "schema": snapshot.schema,
                    "content_hash": snapshot.hash,
                    "seed": snapshot.provenance["seed"],
                    "config_fingerprint": snapshot.provenance[
                        "config_fingerprint"
                    ],
                },
                "records": snapshot.n_records,
                "clusters": len(campaigns),
                "campaigns": sum(
                    1 for c in campaigns.values() if c["is_campaign"]
                ),
                "malicious_clusters": sum(
                    1 for c in campaigns.values() if c["is_malicious"]
                ),
                "known_urls": len(snapshot.urls),
                "suspicious_domains": len(snapshot.suspicious_domains),
                "cut_threshold": snapshot.cut_threshold,
                "summary": dict(snapshot.summary),
            }
            self._mark_span(span, 1, 0)
            return _loads(canonical_json(response))


def _loads(text: str) -> Dict[str, Any]:
    return json.loads(text)


def _normalize_wpn(wpn: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonical query form + precomputed features for one classify input."""
    if not isinstance(wpn, Mapping):
        raise TypeError(
            f"classify() takes a mapping with title/body/landing_url, got "
            f"{type(wpn).__name__}"
        )
    title = str(wpn.get("title", ""))
    body = str(wpn.get("body", ""))
    landing_url = wpn.get("landing_url")
    landing_url = str(landing_url) if landing_url else None
    text_tokens = tokenize_text(f"{title} {body}")
    url_tokens: List[str] = []
    if landing_url:
        try:
            parsed = Url.parse(landing_url)
        except ValueError as exc:
            raise InvalidQueryError(f"invalid landing_url: {exc}") from exc
        url_tokens = sorted(set(tokenize_url_path(parsed.path, parsed.query)))
    return {
        "title": title,
        "body": body,
        "landing_url": landing_url,
        "text_tokens": text_tokens,
        "url_tokens": url_tokens,
    }
