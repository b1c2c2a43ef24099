"""Threaded load over the WSGI app: one response checksum at any thread count.

A seeded request mix (known and never-seen URL checks, classifications
resampled from the snapshot's own records, campaign dossiers, stats) is
fired at :func:`~repro.serve.create_app` from a plain
``ThreadPoolExecutor``. ``map`` hands the replies back in request order,
so "the same answers at any thread count, cache on or off" is one
checksum comparison.
"""

import hashlib
import io
import json
import random
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlencode

import pytest

from repro.serve import ServeCore, create_app

#: Request-mix weights, sampled with replacement.
MIX = (("check", 40), ("unseen", 10), ("classify", 35), ("campaign", 10),
       ("stats", 5))


def generate_requests(snapshot, n, seed):
    """``n`` ``(method, path, query, body)`` requests, drawn by ``seed``."""
    rng = random.Random(seed)
    urls = sorted(snapshot.urls)
    cluster_ids = sorted(
        int(entry["cluster_id"]) for entry in snapshot.campaigns.values()
    )
    records = snapshot.records
    kinds = [kind for kind, weight in MIX for _ in range(weight)]
    requests = []
    for i in range(n):
        kind = rng.choice(kinds)
        if kind == "check":
            query = urlencode({"url": rng.choice(urls)})
            requests.append(("GET", "/check", query, b""))
        elif kind == "unseen":
            url = (f"https://never-crawled-{rng.randrange(10**6)}"
                   f".example/landing/{i}")
            requests.append(("GET", "/check", urlencode({"url": url}), b""))
        elif kind == "classify":
            row = records[rng.randrange(len(records))]
            wpn = {
                "title": " ".join(row["text_tokens"][:6]),
                "body": " ".join(row["text_tokens"][6:]),
                "landing_url": row["landing_url"],
            }
            body = json.dumps(wpn, sort_keys=True).encode("utf-8")
            requests.append(("POST", "/classify", "", body))
        elif kind == "campaign":
            path = f"/campaign/{rng.choice(cluster_ids)}"
            requests.append(("GET", path, "", b""))
        else:
            requests.append(("GET", "/stats", "", b""))
    return requests


def run_load(app, requests, threads):
    """Checksum of every ``(status, body)`` reply, in request order."""

    def call(request):
        method, path, query, body = request
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
        status = []
        reply = b"".join(app(environ, lambda s, headers: status.append(s)))
        return status[0], reply

    checksum = hashlib.blake2b(digest_size=16)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for status, reply in pool.map(call, requests):
            checksum.update(status.encode("utf-8") + b"\n" + reply)
    return checksum.hexdigest()


class TestGenerateRequests:
    def test_same_seed_same_requests(self, snapshot):
        assert generate_requests(snapshot, 50, seed=5) == generate_requests(
            snapshot, 50, seed=5
        )

    def test_different_seed_differs(self, snapshot):
        assert generate_requests(snapshot, 50, seed=5) != generate_requests(
            snapshot, 50, seed=6
        )

    def test_covers_every_method(self, snapshot):
        # The checksum identities below span every route.
        paths = {
            path.rsplit("/", 1)[0] if path.startswith("/campaign/") else path
            for _, path, _, _ in generate_requests(snapshot, 200, seed=1)
        }
        assert paths == {"/check", "/classify", "/campaign", "/stats"}


class TestRunLoad:
    def test_thread_counts_share_one_checksum(self, snapshot):
        requests = generate_requests(snapshot, 40, seed=9)
        checksums = {
            threads: run_load(create_app(ServeCore(snapshot)), requests,
                              threads)
            for threads in (1, 2, 4)
        }
        assert checksums[1] == checksums[2] == checksums[4]

    def test_cache_off_same_checksum(self, snapshot):
        # Doubling the list guarantees re-asks, so the cache engages.
        requests = generate_requests(snapshot, 20, seed=9) * 2
        cached, uncached = ServeCore(snapshot), ServeCore(snapshot,
                                                          cache_size=0)
        assert run_load(create_app(cached), requests, 2) == run_load(
            create_app(uncached), requests, 2
        )
        assert cached.cache_info()["hits"] > 0
        info = uncached.cache_info()
        assert info["hits"] == 0 and info["misses"] == 0

    def test_worker_errors_are_reraised(self, snapshot):
        # A reply lost in a worker thread must fail the run, not drop out
        # of the checksum.
        def broken(environ, start_response):
            raise ValueError("handler exploded")

        with pytest.raises(ValueError, match="handler exploded"):
            run_load(broken, generate_requests(snapshot, 5, seed=1), 2)
