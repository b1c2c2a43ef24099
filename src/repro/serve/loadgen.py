"""Load generator for :class:`~repro.serve.core.ServeCore`.

Drives a deterministic request mix (seeded sampling over the snapshot's
own URLs, records and campaign ids — duplicates included, so the response
cache sees realistic re-asks) against one core from N OS threads, and
reports latency percentiles, throughput and a response checksum.

Determinism discipline:

* request generation uses a seeded ``random.Random`` over *sorted*
  snapshot views — the same ``(snapshot, seed, n)`` always yields the
  same request list;
* requests are partitioned statically (round-robin by index) and every
  thread writes only its own slots of the pre-sized result arrays, so no
  outcome depends on scheduling;
* the response checksum hashes canonical response JSON *in request-index
  order*, making "same answers at any thread count" a single string
  comparison — the property ``tests/serve/test_loadgen.py`` pins;
* wall-clock enters only through an injectable :class:`~repro.obs.Clock`
  (default :class:`~repro.obs.NullClock`: latencies read 0.0 and QPS is
  reported as 0.0, keeping test runs byte-identical).

Threads call the core directly (function calls, not sockets): this
measures the query engine + cache, not a TCP stack.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import Clock, NullClock
from repro.serve.core import ServeCore
from repro.serve.snapshot import MinedSnapshot, canonical_json

#: (method, argument) request forms the generator emits.
Request = Tuple[str, Any]

#: Request-mix weights: (kind, weight). Sampled with replacement.
_MIX: Tuple[Tuple[str, int], ...] = (
    ("check_known", 40),
    ("check_unknown", 10),
    ("classify", 35),
    ("campaign", 10),
    ("stats", 5),
)


@dataclass(frozen=True)
class LoadgenResult:
    """One load-generation run against one core."""

    workers: int
    n_requests: int
    wall_s: float
    qps: float
    p50_ms: float
    p99_ms: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    response_checksum: str

    def row(self) -> Dict[str, Any]:
        """JSON-ready form of one load run."""
        return {
            "workers": self.workers,
            "n_requests": self.n_requests,
            "wall_s": round(self.wall_s, 6),
            "qps": round(self.qps, 2),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "response_checksum": self.response_checksum,
        }


def generate_requests(
    snapshot: MinedSnapshot, n: int, seed: int
) -> List[Request]:
    """A deterministic request mix of size ``n`` for this snapshot."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    urls = sorted(snapshot.urls)
    cluster_ids = sorted(
        int(entry["cluster_id"]) for entry in snapshot.campaigns.values()
    )
    records = snapshot.records  # already in deterministic corpus order
    kinds = [kind for kind, weight in _MIX for _ in range(weight)]

    requests: List[Request] = []
    for i in range(n):
        kind = rng.choice(kinds)
        if kind == "check_known" and urls:
            requests.append(("check", rng.choice(urls)))
        elif kind == "check_unknown":
            requests.append(
                ("check", f"https://never-crawled-{rng.randrange(10**6)}"
                          f".example/landing/{i}")
            )
        elif kind == "classify" and records:
            row = records[rng.randrange(len(records))]
            wpn = {
                "title": " ".join(row["text_tokens"][:6]),
                "body": " ".join(row["text_tokens"][6:]),
                "landing_url": row["landing_url"],
            }
            requests.append(("classify", wpn))
        elif kind == "campaign" and cluster_ids:
            requests.append(("campaign", rng.choice(cluster_ids)))
        else:
            requests.append(("stats", None))
    return requests


def _dispatch(core: ServeCore, request: Request) -> Dict[str, Any]:
    method, arg = request
    if method == "check":
        return core.check(arg)
    if method == "classify":
        return core.classify(arg)
    if method == "campaign":
        return core.campaign(arg)
    if method == "stats":
        return core.stats()
    raise ValueError(f"unknown request method {method!r}")


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 1)))  # ceil(q * n)
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_load(
    core: ServeCore,
    requests: Sequence[Request],
    *,
    workers: int = 1,
    clock: Optional[Clock] = None,
) -> LoadgenResult:
    """Fire ``requests`` at ``core`` from ``workers`` threads.

    The core must be untraced (``tracer=None``): :class:`~repro.obs.Tracer`
    keeps a shared span stack that concurrent requests would corrupt.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if core._tracer is not None:
        raise ValueError(
            "run_load needs an untraced ServeCore (tracer spans are not "
            "thread-safe); read cache_info() for counters instead"
        )
    clock = clock if clock is not None else NullClock()
    n = len(requests)
    latencies = [0.0] * n
    responses: List[str] = [""] * n
    errors: List[Optional[BaseException]] = [None] * min(workers, max(n, 1))

    cache_before = core.cache_info()

    def worker(worker_index: int) -> None:
        try:
            for i in range(worker_index, n, max(workers, 1)):
                started = clock.now()
                response = _dispatch(core, requests[i])
                latencies[i] = clock.now() - started
                responses[i] = canonical_json(response)
        except BaseException as exc:  # surfaced after join
            errors[worker_index] = exc

    started = clock.now()
    threads = [
        threading.Thread(target=worker, args=(w,), name=f"loadgen-{w}")
        for w in range(min(workers, max(n, 1)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = clock.now() - started

    for error in errors:
        if error is not None:
            raise error

    cache_after = core.cache_info()
    hits = int(cache_after["hits"]) - int(cache_before["hits"])
    misses = int(cache_after["misses"]) - int(cache_before["misses"])
    lookups = hits + misses

    checksum = hashlib.blake2b(digest_size=16)
    for response in responses:
        checksum.update(response.encode("utf-8"))
        checksum.update(b"\n")

    ordered = sorted(latencies)
    return LoadgenResult(
        workers=workers,
        n_requests=n,
        wall_s=wall,
        qps=(n / wall) if wall > 0 else 0.0,
        p50_ms=_percentile(ordered, 0.50) * 1000.0,
        p99_ms=_percentile(ordered, 0.99) * 1000.0,
        cache_hits=hits,
        cache_misses=misses,
        cache_hit_rate=(hits / lookups) if lookups else 0.0,
        response_checksum=checksum.hexdigest(),
    )
