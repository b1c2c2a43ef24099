"""The deployment path the benchmark drives, through the program's public API.

Every workload runs the same path — generate → crawl → sparse mine →
snapshot → serve + absorb — on one pinned world (``WORLD_SEED`` at the
profile's scale), and differs only in which part it repeats for the timed
phase.  This module holds the parts; ``run.py`` composes them into
workloads and turns their timings into metrics.

Each part is timed from outside, around the public call.  When a
:class:`~repro.obs.Tracer` under :class:`~repro.obs.PerfClock` is passed,
the part also hands it to the program, whose existing spans give the
per-layer numbers.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

import numpy as np

from repro.core.pipeline import PipelineResult, PushAdMiner
from repro.core.records import WpnRecord
from repro.crawler.harvest import run_full_crawl
from repro.incremental import AbsorbReport, IncrementalDriftError, IncrementalMiner
from repro.obs import Tracer
from repro.perf import BlockingExactnessError
from repro.serve import MinedSnapshot, ServeCore, canonical_json, create_app
from repro.webenv.scenario import paper_scenario

#: The world every workload mines.  Other seeds change the number of valid
#: records (3,590–3,874 at scale 0.25) and with it every timing, so the
#: world is fixed; ``--seed`` drives the request streams and the probe
#: choice instead.
WORLD_SEED = 7
#: Share of the valid records held out of the batch mine: the WPNs that
#: arrive after it, classified by ``serve`` and absorbed by ``absorb``.
HELD_OUT_FRACTION = 0.10
#: Request mix of a serve round, as exact counts per 100 requests.
MIX = (("check_known", 40), ("check_unseen", 10), ("classify", 35),
       ("campaign", 10), ("stats", 5))
#: Requests between two host-speed probes of a serve round.
PROBE_EVERY = 10


now = time.perf_counter


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark run."""

    scale: float
    warm_scale: float
    #: A serve round: this many requests on a cold cache, its ``/classify``
    #: requests drawing with repeats from every held-out record.  One round
    #: has enough samples for a p99 of each endpoint.
    round_requests: int
    #: Batches the held-out records are split into for absorption.
    batches: int


FULL = Profile(scale=0.25, warm_scale=0.03, round_requests=4000, batches=20)
SMOKE = Profile(scale=0.03, warm_scale=0.015, round_requests=3000, batches=13)


def split_held_out(
    valid: Sequence[WpnRecord],
) -> Tuple[List[WpnRecord], List[WpnRecord]]:
    """``(base, held_out)``: the first 90% of valid records and the rest."""
    n_held = max(1, int(len(valid) * HELD_OUT_FRACTION))
    return list(valid[:-n_held]), list(valid[-n_held:])


def split_batches(records: Sequence[WpnRecord], n: int) -> List[List[WpnRecord]]:
    """``n`` contiguous batches whose sizes differ by at most one."""
    bounds = np.linspace(0, len(records), n + 1).round().astype(int)
    return [list(records[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Batch mine: generate + crawl, sparse mine, snapshot export / load
# ----------------------------------------------------------------------
@dataclass
class Mined:
    """One batch mine of the pinned world and its exported snapshot."""

    base: List[WpnRecord]
    held_out: List[WpnRecord]
    result: PipelineResult
    snapshot: MinedSnapshot
    text: str
    times: Dict[str, float]
    #: When the ``crawl`` and ``mine`` walls of :attr:`times` started.
    at: Dict[str, float]


def mine_world(scale: float, tracer: Optional[Tracer] = None) -> Mined:
    """Generate and crawl the pinned world, sparse-mine its base, export it.

    ``times`` holds ``crawl`` (``run_full_crawl``, world generation
    included), ``mine`` (``PushAdMiner.run``), ``export``
    (``MinedSnapshot.from_result``), ``encode`` (``to_json``) and ``wall``
    (all of it); ``at`` holds when ``crawl`` and ``mine`` started.
    """
    times: Dict[str, float] = {}
    t_start = t0 = now()
    at = {"crawl": t0}
    dataset = run_full_crawl(
        config=paper_scenario(seed=WORLD_SEED, scale=scale),
        tracer=tracer,
        crawl_workers=1,
    )
    times["crawl"] = now() - t0
    base, held_out = split_held_out(dataset.valid_records)
    miner = PushAdMiner.for_dataset(
        dataset, tracer=tracer, storage="sparse", blocking="url")
    t0 = at["mine"] = now()
    result = miner.run(base)
    times["mine"] = now() - t0
    t0 = now()
    snapshot = MinedSnapshot.from_result(result)
    times["export"] = now() - t0
    t0 = now()
    text = snapshot.to_json()
    times["encode"] = now() - t0
    times["wall"] = now() - t_start
    return Mined(base, held_out, result, snapshot, text, times, at)


def mine_dense(mined: Mined) -> Tuple[float, bool]:
    """Wall of a dense reference mine of the same base; equal labels?"""
    config = mined.result.config.replace(storage="dense", blocking="none")
    t0 = now()
    dense = PushAdMiner(config).run(mined.base)
    wall = now() - t0
    same = bool(np.array_equal(dense.labels, mined.result.labels))
    return wall, same


def load_snapshot(text: str) -> Tuple[MinedSnapshot, float]:
    """``MinedSnapshot.from_json`` with hash verification, and its wall."""
    t0 = now()
    snapshot = MinedSnapshot.from_json(text, verify=True)
    return snapshot, now() - t0


# ----------------------------------------------------------------------
# Serve: request streams, the closed loop, and the oracle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One prepared WSGI request; ``key`` names its answer for the oracle."""

    kind: str  # check | classify | campaign | stats
    method: str
    path: str
    query: str
    body: bytes
    key: Any


def wpn_query(record: WpnRecord) -> Dict[str, Any]:
    return {"title": record.title, "body": record.body,
            "landing_url": record.landing_url}


def classify_request(record: WpnRecord) -> Request:
    body = json.dumps(wpn_query(record), sort_keys=True).encode("utf-8")
    return Request("classify", "POST", "/classify", "", body, record.wpn_id)


def request_stream(
    snapshot: MinedSnapshot,
    held_out: Sequence[WpnRecord],
    n: int,
    seed: int,
) -> List[Request]:
    """``n`` requests in the :data:`MIX`, shuffled by ``seed``.

    ``/classify`` draws with repeats from the held-out records (WPNs the
    snapshot never mined), as one push ad reaches many subscribers: the
    response cache answers a repeat if it still holds it, and every other
    classification pays one corpus scan.  Kind counts are exact, so every
    round has the same number of samples per endpoint.
    """
    rng = random.Random(seed)
    urls = sorted(snapshot.urls)
    cluster_ids = sorted(int(c["cluster_id"])
                         for c in snapshot.campaigns.values())
    kinds = [kind for kind, share in MIX for _ in range(n * share // 100)]
    kinds += ["check_known"] * (n - len(kinds))
    rng.shuffle(kinds)
    stream: List[Request] = []
    for i, kind in enumerate(kinds):
        if kind in ("check_known", "check_unseen"):
            url = (rng.choice(urls) if kind == "check_known" else
                   f"https://never-crawled-{rng.randrange(10**6)}.example/p/{i}")
            stream.append(Request("check", "GET", "/check",
                                  urlencode({"url": url}), b"", url))
        elif kind == "classify":
            stream.append(classify_request(rng.choice(held_out)))
        elif kind == "campaign":
            cid = rng.choice(cluster_ids)
            stream.append(Request("campaign", "GET", f"/campaign/{cid}", "",
                                  b"", cid))
        else:
            stream.append(Request("stats", "GET", "/stats", "", b"", None))
    return stream


def call(app: Any, request: Request) -> Tuple[str, bytes]:
    """One in-process WSGI call; ``(status, body)``."""
    status: List[str] = []
    environ = {
        "REQUEST_METHOD": request.method,
        "PATH_INFO": request.path,
        "QUERY_STRING": request.query,
        "CONTENT_LENGTH": str(len(request.body)),
        "wsgi.input": io.BytesIO(request.body),
    }
    body = b"".join(app(environ, lambda s, headers: status.append(s)))
    return status[0], body


@dataclass
class RoundResult:
    """One closed-loop serve round: per-request latency, status and body.

    ``wall`` leaves out the probes taken between requests; ``start`` and
    ``end`` bound the round, probes included.
    """

    wall: float
    start: float
    end: float
    build: float
    kinds: List[str]
    latencies: List[float]
    statuses: List[str]
    bodies: List[bytes]
    cache_hits: int
    cache_misses: int
    #: Traced rounds only: the ServeCore span of each request.
    core_spans: List[Any] = field(default_factory=list)

    def checksum(self) -> str:
        return checksum(self.bodies)


def checksum(bodies: Sequence[bytes]) -> str:
    """Digest of response bodies taken in request order."""
    h = hashlib.blake2b(digest_size=16)
    for body in bodies:
        h.update(body)
    return h.hexdigest()


def serve_round(
    snapshot: MinedSnapshot,
    stream: Sequence[Request],
    tracer: Optional[Tracer] = None,
    probe: Optional[Callable[[], float]] = None,
) -> RoundResult:
    """One client sends ``stream`` in order, each after the last reply.

    Each round serves from a new one-worker :class:`ServeCore`, so every
    round starts with a cold response cache and rounds are alike.  If
    given, ``probe`` runs after every :data:`PROBE_EVERY` replies, outside
    any request; it returns its own wall, which the round's wall leaves out.
    """
    t0 = now()
    core = ServeCore(snapshot, tracer=tracer)
    build = now() - t0
    app = create_app(core)
    n = len(stream)
    latencies = [0.0] * n
    statuses = [""] * n
    bodies = [b""] * n
    spans: List[Any] = []
    probing = 0.0
    t_round = now()
    for i, request in enumerate(stream):
        t0 = now()
        statuses[i], bodies[i] = call(app, request)
        latencies[i] = now() - t0
        if tracer is not None:
            spans.append(tracer.root.children[-1])
        if probe is not None and i % PROBE_EVERY == PROBE_EVERY - 1:
            probing += probe()
    end = now()
    info = core.cache_info()
    return RoundResult(end - t_round - probing, t_round, end, build,
                       [r.kind for r in stream], latencies, statuses, bodies,
                       int(info["hits"]), int(info["misses"]), spans)


class Oracle:
    """What each request must answer, computed without WSGI or cache.

    An uncached :class:`ServeCore` on the exported (never serialized)
    snapshot answers each distinct query through its direct methods;
    ``/classify`` answers come from one batched kernel pass per stream.
    Answers are kept, so rounds that repeat queries pay for them once.
    """

    def __init__(self, snapshot: MinedSnapshot, held_out: Sequence[WpnRecord]):
        self.core = ServeCore(snapshot, cache_size=0)
        self.by_id = {r.wpn_id: r for r in held_out}
        self.memo: Dict[Tuple[str, Any], bytes] = {}

    def bodies(self, stream: Sequence[Request]) -> List[bytes]:
        core, memo = self.core, self.memo
        wanted = sorted({r.key for r in stream if r.kind == "classify"
                         and ("classify", r.key) not in memo})
        classified = dict(zip(wanted, core.classify_batch(
            [wpn_query(self.by_id[k]) for k in wanted])))
        return [self._body(r, classified) for r in stream]

    def _body(self, request: Request, classified: Dict[str, Any]) -> bytes:
        token = (request.kind, request.key)
        memo = self.memo
        if token not in memo:
            core = self.core
            if request.kind == "check":
                payload = core.check(request.key)
            elif request.kind == "classify":
                payload = classified[request.key]
            elif request.kind == "campaign":
                payload = core.campaign(request.key)
            else:
                payload = core.stats()
            memo[token] = (canonical_json(payload) + "\n").encode("utf-8")
        return memo[token]


def classify_digest(snapshot: MinedSnapshot, records: Sequence[WpnRecord]) -> str:
    """Digest of the answers to classifying every held-out record in order."""
    core = ServeCore(snapshot, cache_size=0)
    answers = core.classify_batch([wpn_query(r) for r in records])
    return digest("\n".join(canonical_json(a) for a in answers))


# ----------------------------------------------------------------------
# Absorb: batch → absorb → export → encode → decode → refresh → probe
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Probe:
    """The ``/classify`` answer to one record of an absorbed batch.

    Indices are corpus positions after the absorb; labels are the campaigns
    absorb gave those records.
    """

    status: str
    answer: Dict[str, Any]
    batch_start: int
    index: int
    label: int
    #: The record the answer names as nearest, its label, and whether it
    #: has the probe's title, body and landing URL.
    nearest: int
    nearest_label: int
    identical: bool


@dataclass
class BatchResult:
    """One absorbed batch: its stage walls, accounting and probe answer."""

    times: Dict[str, float]
    #: When the batch arrived, and the wall until the served snapshot
    #: answered it.
    start: float
    fresh: float
    report: Optional[AbsorbReport]
    summary_digest: str
    probe: Optional[Probe]
    snapshot_bytes: int = 0
    error: str = ""


class AbsorbCycle:
    """Held-out batches arriving one at a time after the batch mine.

    The incremental miner adopts the mined base and the serving core
    serves its snapshot, both at ``workers``.  Each :meth:`step` absorbs
    the next batch and makes the served snapshot answer it; the probe
    classifies one record of the batch, chosen by ``seed``.
    """

    def __init__(self, mined: Mined, n_batches: int, *, workers: int,
                 seed: int, tracer: Optional[Tracer] = None):
        base = mined.result
        self.miner = IncrementalMiner(
            base.config.replace(workers=workers),
            records=base.records,
            labels=np.asarray(base.labels),
            cut_threshold=base.cut_threshold,
            text_model=base.text_model,
            tracer=tracer,
        )
        self.core = ServeCore(mined.snapshot, workers=workers, tracer=tracer)
        self.app = create_app(self.core)
        self.batches = split_batches(mined.held_out, n_batches)
        self.done = 0
        self.rng = random.Random(seed)
        self.result = base

    def step(self) -> BatchResult:
        """Absorb → export → encode → decode → refresh → probe one batch."""
        batch = self.batches[self.done]
        self.done += 1
        pick = self.rng.randrange(len(batch))
        times: Dict[str, float] = {}
        t_batch = now()
        try:
            report = self.miner.absorb(batch)
        except (IncrementalDriftError, BlockingExactnessError) as exc:
            return BatchResult({}, t_batch, 0.0, None, "", None,
                               error=f"{type(exc).__name__}: {exc}")
        times["absorb"] = now() - t_batch
        t0 = now()
        self.result = result = self.miner.result()
        snapshot = MinedSnapshot.from_result(result)
        times["export"] = now() - t0
        t0 = now()
        text = snapshot.to_json()
        times["encode"] = now() - t0
        loaded, times["decode"] = load_snapshot(text)
        t0 = now()
        self.core.refresh(loaded)
        times["refresh"] = now() - t0
        t0 = now()
        status, body = call(self.app, classify_request(batch[pick]))
        times["probe"] = now() - t0
        fresh = now() - t_batch
        return BatchResult(
            times, t_batch, fresh, report, digest(canonical_json(result.summary())),
            self.answer(pick, status, body), len(text.encode("utf-8")))

    def probe(self, pick: int) -> Probe:
        """Classify record ``pick`` of the last absorbed batch, untimed."""
        record = self.batches[self.done - 1][pick]
        return self.answer(pick, *call(self.app, classify_request(record)))

    def answer(self, pick: int, status: str, body: bytes) -> Probe:
        records, labels = self.result.records, self.result.labels
        start = len(records) - len(self.batches[self.done - 1])
        answer = json.loads(body)
        nearest_id = (answer.get("nearest") or {}).get("wpn_id")
        nearest = next((i for i, r in enumerate(records)
                        if r.wpn_id == nearest_id), -1)
        identical = wpn_query(records[nearest]) == wpn_query(records[start + pick])
        return Probe(status, answer, start, start + pick,
                     int(labels[start + pick]), nearest, int(labels[nearest]),
                     identical)
