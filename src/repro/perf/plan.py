"""Deterministic tile scheduling: serial or process-parallel, same bits.

An :class:`ExecutionPlan` decides *how* a blocked kernel runs, never *what*
it computes. Work is split into row :class:`Tile`\\ s by fixed static
chunking (:func:`row_tiles`), every tile is computed by the same pure
function, and results are reduced strictly in tile-index order. Because
tiles are disjoint and the kernel functions are deterministic, the
assembled output is bit-identical for any worker count — the property the
``tests/perf`` suite locks down.

A kernel receives :func:`tile_operands`: the operands cut to what its
tile reads where they define ``for_tile`` (a query search ships only the
tile's corpus rows), else the operands whole. Every backend, and DetSan's
canonical recompute, cuts through that one function, so each kernel has
one input shape.

The process backend keeps one :class:`ProcessPoolExecutor` per worker
count for the life of the process: it is forked at the first
``workers > 1`` stream, reused by every later one from any thread, and
shut down at interpreter exit. Tile operands are pickled per task, so it
only pays off once per-tile compute dominates serialization. If a worker
dies, the pool is dropped (the next stream forks a fresh one) and the
stream's unfinished tiles run serially in-process, still in tile order —
the kernels are pure, so the rerun gives the same bits. ``workers=1``
(the default) never touches multiprocessing.

``broadcast=True`` ships the operands to each worker **once**, via the
initializer of a pool started for that call, instead of once per tile —
the right mode when the operands are large relative to a tile's result
(the crawl engine's ecosystem is a multi-megabyte pickle shared by every
shard). Under a ``fork`` start method the broadcast is effectively free
(copy-on-write); elsewhere it costs one pickle per worker rather than one
per tile.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, TypeVar

DEFAULT_TILE_SIZE = 512

_R = TypeVar("_R")

#: Worker-process slot the pool initializer fills in; read-only afterwards.
_BROADCAST_OPERANDS: Any = None

#: The kept process pools, one per worker count (see :func:`_kept_pool`).
_POOLS: Dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _install_broadcast_operands(operands: Any) -> None:
    """Pool initializer: stash the shared operands in this worker."""
    global _BROADCAST_OPERANDS
    _BROADCAST_OPERANDS = operands


def _run_broadcast_tile(kernel: Callable[[Any, Tile], _R], tile: Tile) -> _R:
    """Trampoline: apply the kernel to the worker's installed operands."""
    return kernel(tile_operands(_BROADCAST_OPERANDS, tile), tile)


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap broadcast), platform default else."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _kept_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` processes, started on first use."""
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context()
            )
        return pool


def _drop_pool(workers: int, pool: ProcessPoolExecutor) -> None:
    """Forget a broken kept pool, so the next stream starts a fresh one."""
    with _POOLS_LOCK:
        if _POOLS.get(workers) is pool:
            del _POOLS[workers]
    pool.shutdown(wait=False, cancel_futures=True)


def _shutdown_pools() -> None:
    """Stop and join every kept pool (registered to run at exit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def _forget_pools_in_child() -> None:
    """A forked child owns none of its parent's pools (or their lock)."""
    global _POOLS_LOCK
    _POOLS.clear()
    _POOLS_LOCK = threading.Lock()


atexit.register(_shutdown_pools)
os.register_at_fork(after_in_child=_forget_pools_in_child)


@dataclass(frozen=True)
class Tile:
    """A half-open row range ``[start, stop)`` of a pairwise computation."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid tile [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start


def row_tiles(n: int, tile_size: int) -> List[Tile]:
    """Static chunking of ``n`` rows into tiles of at most ``tile_size``.

    The split depends only on ``(n, tile_size)`` — never on worker count or
    runtime load — so a plan's work assignment is reproducible by
    construction.
    """
    if tile_size < 1:
        raise ValueError(f"tile_size must be >= 1, got {tile_size}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return [Tile(start, min(start + tile_size, n)) for start in range(0, n, tile_size)]


def tile_operands(operands: Any, tile: Tile) -> Any:
    """What a kernel receives for ``tile``: ``operands.for_tile(tile)``.

    Operands without a ``for_tile`` method (pairwise, cut and crawl
    operands, whose kernels read every row) are passed whole.
    """
    for_tile = getattr(operands, "for_tile", None)
    return operands if for_tile is None else for_tile(tile)


@dataclass(frozen=True)
class ExecutionPlan:
    """How blocked kernels execute: tile size and worker count.

    ``workers=1`` runs tiles serially in-process; ``workers>1`` fans tiles
    out to the process's kept :class:`ProcessPoolExecutor` and gathers
    results in submission (= tile-index) order. Both paths produce
    bit-identical outputs.
    """

    workers: int = 1
    tile_size: int = DEFAULT_TILE_SIZE

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {self.tile_size}")

    def tiles(self, n: int) -> List[Tile]:
        """The static tile split this plan uses for an ``n``-row problem."""
        return row_tiles(n, self.tile_size)

    def stream(
        self,
        kernel: Callable[[Any, Tile], _R],
        operands: Any,
        tiles: Sequence[Tile],
        broadcast: bool = False,
    ) -> Iterator[_R]:
        """Yield ``kernel(tile_operands(operands, t), t)`` per tile, in order.

        The serial backend computes lazily — at most one tile result is
        alive at a time, which is what keeps blocked assembly's peak
        memory at ``O(tile_size * n)`` beyond the output. The process
        backend submits every tile up front to the kept pool of
        ``workers`` processes, each task carrying only its tile's cut of
        the operands, and yields results in submission order regardless
        of completion order; a dead worker drops the pool and the
        unfinished tiles run serially. With it, ``kernel`` must be a
        module-level function and ``operands`` picklable.
        ``broadcast=True`` instead starts a pool for this call that
        installs the operands once per worker (pool initializer) rather
        than pickling them per tile; the kernel still receives its tile's
        operands and results still arrive in tile-index order, so outputs
        are bit-identical to the per-tile path.
        """
        if self.workers == 1 or len(tiles) <= 1:
            for tile in tiles:
                yield kernel(tile_operands(operands, tile), tile)
            return
        if broadcast:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(tiles)),
                mp_context=_pool_context(),
                initializer=_install_broadcast_operands,
                initargs=(operands,),
            ) as pool:
                futures = [
                    pool.submit(_run_broadcast_tile, kernel, tile)
                    for tile in tiles
                ]
                for future in futures:
                    yield future.result()
            return
        pool = _kept_pool(self.workers)
        futures: List[Future[_R]] = []
        done = 0
        try:
            for tile in tiles:
                futures.append(
                    pool.submit(kernel, tile_operands(operands, tile), tile)
                )
            for future in futures:
                yield future.result()
                done += 1
            return
        except BrokenProcessPool:
            _drop_pool(self.workers, pool)
        finally:
            for future in futures:
                future.cancel()
        for tile in tiles[done:]:
            yield kernel(tile_operands(operands, tile), tile)

    def run(
        self,
        kernel: Callable[[Any, Tile], _R],
        operands: Any,
        tiles: Sequence[Tile],
        broadcast: bool = False,
    ) -> List[_R]:
        """:meth:`stream`, materialized as a list (small workloads/tests)."""
        return list(self.stream(kernel, operands, tiles, broadcast=broadcast))
