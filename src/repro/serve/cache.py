"""Content-hash keyed LRU response cache for :class:`ServeCore`.

Keys are blake2b digests of ``(snapshot content hash, method, canonical
query JSON)``; values are the *canonical JSON strings* of responses,
never the response objects.  Storing strings makes the cache-on/cache-off
byte-identity guarantee trivial to audit: a hit replays exactly the bytes
a fresh computation would re-serialize to, so caching can change latency
but never content.  Salting every key with the snapshot's content hash
makes a :meth:`ServeCore.refresh` hot-swap safe by construction: an entry
computed against an older snapshot can never answer a query against a
newer one, even if a clear were to race a concurrent store.

The cache is guarded by a single lock (lookup + LRU reorder + counter
update are one critical section), so many threads can hammer one core.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional

DEFAULT_CACHE_SIZE = 1024


def response_cache_key(
    method: str, canonical_query: str, snapshot_hash: str = ""
) -> str:
    """Cache key for one request: blake2b over snapshot + method + query.

    ``snapshot_hash`` is the serving snapshot's content hash; keys for
    the same query against different snapshots never collide, which is
    what makes stale entries unservable across a snapshot hot-swap.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(snapshot_hash.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(method.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_query.encode("utf-8"))
    return digest.hexdigest()


class ResponseCache:
    """Thread-safe LRU of canonical response strings with hit/miss counters."""

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: str) -> Optional[str]:
        """The cached canonical response for ``key``, or None (counted)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: str, value: str) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def info(self) -> Dict[str, int]:
        """Point-in-time counters: hits, misses, size, maxsize."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
