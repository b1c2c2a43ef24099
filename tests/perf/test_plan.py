"""Tile scheduling, execution-plan determinism and the kept pool."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.perf import (
    DEFAULT_TILE_SIZE,
    ExecutionPlan,
    PairwiseOperands,
    Tile,
    combined_distance_tile,
    row_tiles,
)


def tiny_operands(n=23, seed=3):
    """Small synthetic corpus operands, picklable for the process backend."""
    rng = np.random.default_rng(seed)
    bow = sparse.random(n, 40, density=0.2, random_state=np.random.RandomState(seed), format="csr")
    norms = np.sqrt(np.asarray(bow.multiply(bow).sum(axis=1)).ravel())
    norms[norms == 0] = 1.0
    bow_normed = sparse.csr_matrix(sparse.diags(1.0 / norms) @ bow)
    emb = rng.normal(size=(n, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    zero_rows = np.zeros(n, dtype=bool)
    zero_rows[::7] = True
    emb[zero_rows] = 0.0
    member = sparse.random(
        n, 30, density=0.15, random_state=np.random.RandomState(seed + 1), format="csr"
    )
    member.data[:] = 1.0
    sizes = np.asarray(member.sum(axis=1)).ravel()
    empty = sizes == 0
    return PairwiseOperands(
        bow_normed=bow_normed,
        doc_emb=emb,
        zero_rows=zero_rows,
        blend=0.4,
        url_member=member,
        url_sizes=sizes,
        url_empty=empty,
    )


def assemble(plan, operands):
    n = operands.n
    text = np.empty((n, n))
    url = np.empty((n, n))
    for tile, (text_rows, url_rows) in zip(
        plan.tiles(n), plan.run(combined_distance_tile, operands, plan.tiles(n))
    ):
        text[tile.start : tile.stop] = text_rows
        url[tile.start : tile.stop] = url_rows
    return text, url


class TestTiles:
    def test_row_tiles_partition_the_range(self):
        for n in (0, 1, 5, 23, 100):
            for tile_size in (1, 3, 7, 100):
                tiles = row_tiles(n, tile_size)
                covered = [i for t in tiles for i in range(t.start, t.stop)]
                assert covered == list(range(n))
                assert all(t.size <= tile_size for t in tiles)

    def test_invalid_tile_raises(self):
        with pytest.raises(ValueError):
            Tile(-1, 4)
        with pytest.raises(ValueError):
            Tile(5, 4)

    def test_invalid_chunking_raises(self):
        with pytest.raises(ValueError):
            row_tiles(10, 0)
        with pytest.raises(ValueError):
            row_tiles(-1, 4)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExecutionPlan(workers=0)
        with pytest.raises(ValueError):
            ExecutionPlan(tile_size=0)
        assert ExecutionPlan().tile_size == DEFAULT_TILE_SIZE


class TestExecutionDeterminism:
    def test_tile_size_never_changes_the_bits(self):
        operands = tiny_operands()
        ref_text, ref_url = assemble(ExecutionPlan(tile_size=1024), operands)
        for tile_size in (1, 4, 7, 23):
            text, url = assemble(ExecutionPlan(tile_size=tile_size), operands)
            assert text.tobytes() == ref_text.tobytes()
            assert url.tobytes() == ref_url.tobytes()

    def test_process_backend_matches_serial_bitwise(self):
        operands = tiny_operands()
        ref = assemble(ExecutionPlan(workers=1, tile_size=6), operands)
        for workers in (2, 4):
            got = assemble(ExecutionPlan(workers=workers, tile_size=6), operands)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()

    @pytest.mark.no_detsan  # asserts laziness, which the sanitizer's
    # permuted-stream wrapper intentionally destroys
    def test_serial_stream_is_lazy(self):
        seen = []

        def kernel(payload, tile):
            seen.append(tile.start)
            return tile.start

        plan = ExecutionPlan(tile_size=5)
        stream = plan.stream(kernel, None, plan.tiles(15))
        assert seen == []  # nothing computed until consumed
        assert next(stream) == 0
        assert seen == [0]
        assert list(stream) == [5, 10]


#: This test process; any other pid running a kernel is a pool worker.
_PARENT_PID = os.getpid()


def exit_in_worker(payload, tile):
    """Kills whichever pool worker runs it; computes in the parent."""
    if os.getpid() != _PARENT_PID:
        os._exit(3)
    return tile.start, tile.stop


def tile_bounds(payload, tile):
    return tile.start, tile.stop


class TestKeptPool:
    def test_streams_reuse_one_pool_and_broadcast_starts_its_own(
        self, pools_started
    ):
        plan = ExecutionPlan(workers=2, tile_size=4)
        tiles = plan.tiles(20)
        expected = [(t.start, t.stop) for t in tiles]
        for _ in range(3):
            assert plan.run(tile_bounds, None, tiles) == expected
        assert len(pools_started) == 1
        assert plan.run(tile_bounds, None, tiles, broadcast=True) == expected
        assert len(pools_started) == 2
        assert pools_started[1] is not None  # the broadcast initializer
        assert plan.run(tile_bounds, None, tiles) == expected
        assert len(pools_started) == 2

    def test_dead_worker_reruns_serially_and_next_stream_starts_a_pool(
        self, pools_started
    ):
        plan = ExecutionPlan(workers=2, tile_size=3)
        tiles = plan.tiles(20)
        got = plan.run(exit_in_worker, None, tiles)
        assert got == [(t.start, t.stop) for t in tiles]
        assert len(pools_started) == 1
        operands = tiny_operands()
        ref = assemble(ExecutionPlan(tile_size=3), operands)
        again = assemble(plan, operands)
        assert again[0].tobytes() == ref[0].tobytes()
        assert again[1].tobytes() == ref[1].tobytes()
        assert len(pools_started) == 2

    def test_no_worker_outlives_the_process(self):
        script = textwrap.dedent(
            """
            import os
            from repro.perf import ExecutionPlan

            def worker_pid(payload, tile):
                return os.getpid()

            plan = ExecutionPlan(workers=2, tile_size=1)
            pids = set(plan.run(worker_pid, None, plan.tiles(16)))
            print(*sorted(pids - {os.getpid()}))
            """
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        pids = [int(p) for p in done.stdout.split()]
        assert pids, done.stdout
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
