"""DetSan: runtime determinism sanitizer cross-validating the flow passes.

The whole-program passes (``flow-parallel-purity``,
``flow-shared-state-race``) statically prove that no output depends on
scheduling or enumeration order. DetSan checks
the same claim *dynamically*: while installed it

* shuffles every filesystem enumeration (``os.listdir``, ``glob``,
  ``Path.iterdir/glob/rglob``) observed from repro code — any consumer
  that forgot its canonical sort produces different bytes immediately,
  instead of only on an unlucky filesystem;
* permutes the tile submission order of every
  :meth:`repro.perf.plan.ExecutionPlan.stream` call and restores results
  to tile-index order afterwards — emulating an adversarial pool whose
  completion order never matches submission order;
* checksums every per-tile kernel result and, in ``verify_tiles`` mode,
  recomputes each tile serially in canonical order and raises
  :class:`DetSanViolation` on any divergence — a kernel whose output
  depends on hidden shared state or execution order cannot pass;
* optionally trips on wall-clock reads and global-RNG draws from repro
  code (``forbid_wallclock``/``forbid_global_rng``), for targeted tests.

Use it directly::

    from repro.analysis.sanitizer import DetSan

    with DetSan(seed=213, verify_tiles=True) as san:
        result = miner.run(records)
    assert san.report.divergences == []

or as a pytest harness: ``REPRO_DETSAN=1 python -m pytest`` installs it
for the whole tier-1 suite via ``tests/conftest.py`` (the glue calls
:func:`plugin_configure` / :func:`plugin_runtest_setup`; a
``@pytest.mark.no_detsan`` marker suspends the hooks for tests that assert
scheduling internals, e.g. serial-stream laziness).

DetSan deliberately lives next to the static passes: both exist so the
crawl → mine pipeline's byte-identity guarantee survives every new
parallel merge point, and a gap in one detector is caught by the other.
"""

from __future__ import annotations

import glob
import hashlib
import os
import pathlib
import pickle
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence

from repro.perf.plan import ExecutionPlan, Tile, tile_operands

_DEFAULT_SEED = 213


class DetSanViolation(AssertionError):
    """A dynamic determinism violation: output depended on ordering."""


@dataclass
class DetSanReport:
    """What one DetSan installation observed."""

    fs_shuffled: int = 0  # filesystem enumerations shuffled
    streams_permuted: int = 0  # ExecutionPlan.stream calls permuted
    tiles_checksummed: int = 0  # per-tile results checksummed
    tiles_verified: int = 0  # tiles recomputed canonically and compared
    divergences: List[str] = field(default_factory=list)


def _checksum(value: Any) -> Optional[str]:
    """Within-process content digest of a kernel result, None if unhashable.

    Raw ``pickle.dumps`` is not round-trip stable: a fresh object graph
    and its loads(dumps(...)) image can serialize to different bytes,
    because interned/shared sub-objects (e.g. dict-key strings) hit the
    pickle memo in one graph but not the other. DetSan compares a pool
    result (one round-trip through the process boundary) against a fresh
    in-process recompute of the *same deterministic computation*, so the
    digest must be invariant to extra round-trips: one loads(dumps(...))
    before the final dumps projects both sides onto the same fixed point.
    (This is *not* a general structural hash — graphs built with
    genuinely different sharing still digest differently.)
    """
    try:
        payload = pickle.dumps(
            pickle.loads(pickle.dumps(value, protocol=4)), protocol=4
        )
    except Exception:
        return None
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _caller_is_repro() -> bool:
    """True when the nearest non-sanitizer caller frame is repro code."""
    frame = sys._getframe(1)
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name == __name__:
            frame = frame.f_back
            continue
        return name == "repro" or name.startswith("repro.")
    return False


class DetSan:
    """Context manager installing the determinism-sanitizer hooks.

    All hooks are process-global while installed (they patch ``os``,
    ``glob``, ``pathlib.Path`` and ``ExecutionPlan``), deterministic
    (driven by one seeded :class:`random.Random`), and fully reversible
    via :meth:`uninstall`. Only calls originating from ``repro.*`` frames
    are perturbed, so the test harness and stdlib internals see the real
    functions.
    """

    def __init__(
        self,
        seed: int = _DEFAULT_SEED,
        *,
        shuffle_fs: bool = True,
        shuffle_pool: bool = True,
        verify_tiles: bool = False,
        forbid_wallclock: bool = False,
        forbid_global_rng: bool = False,
    ):
        self.seed = seed
        self.shuffle_fs = shuffle_fs
        self.shuffle_pool = shuffle_pool
        self.verify_tiles = verify_tiles
        self.forbid_wallclock = forbid_wallclock
        self.forbid_global_rng = forbid_global_rng
        self.report = DetSanReport()
        self._rng = random.Random(seed)
        self._installed = False
        self._suspended = 0
        self._saved: List[Any] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "DetSan":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._installed:
            return
        self._installed = True
        if self.shuffle_fs:
            self._patch(os, "listdir", self._wrap_listdir(os.listdir))
            self._patch(glob, "glob", self._wrap_fs_list(glob.glob))
            self._patch(glob, "iglob", self._wrap_fs_iter(glob.iglob))
            path_cls = pathlib.Path
            self._patch(
                path_cls, "iterdir", self._wrap_fs_iter(path_cls.iterdir)
            )
            self._patch(path_cls, "glob", self._wrap_fs_iter(path_cls.glob))
            self._patch(path_cls, "rglob", self._wrap_fs_iter(path_cls.rglob))
        if self.shuffle_pool:
            self._patch(
                ExecutionPlan, "stream", self._wrap_stream(ExecutionPlan.stream)
            )
        if self.forbid_wallclock:
            for name in ("time", "time_ns", "monotonic", "perf_counter"):
                self._patch(
                    time, name, self._tripwire(f"time.{name}", getattr(time, name))
                )
        if self.forbid_global_rng:
            for name in ("random", "randint", "randrange", "shuffle", "choice"):
                self._patch(
                    random,
                    name,
                    self._tripwire(f"random.{name}", getattr(random, name)),
                )

    def uninstall(self) -> None:
        if not self._installed:
            return
        self._installed = False
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def suspend(self) -> None:
        """Temporarily disable perturbation (``@pytest.mark.no_detsan``)."""
        self._suspended += 1

    def resume(self) -> None:
        if self._suspended > 0:
            self._suspended -= 1

    @property
    def active(self) -> bool:
        return self._installed and self._suspended == 0

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # ------------------------------------------------------------------
    # Filesystem-order hooks
    # ------------------------------------------------------------------
    def _wrap_listdir(self, original: Callable[..., List[str]]) -> Any:
        def listdir(*args: Any, **kwargs: Any) -> List[str]:
            entries = original(*args, **kwargs)
            if self.active and _caller_is_repro():
                self.report.fs_shuffled += 1
                self._rng.shuffle(entries)
            return entries

        return listdir

    def _wrap_fs_list(self, original: Callable[..., List[Any]]) -> Any:
        def fs_list(*args: Any, **kwargs: Any) -> List[Any]:
            entries = list(original(*args, **kwargs))
            if self.active and _caller_is_repro():
                self.report.fs_shuffled += 1
                self._rng.shuffle(entries)
            return entries

        return fs_list

    def _wrap_fs_iter(self, original: Callable[..., Any]) -> Any:
        def fs_iter(*args: Any, **kwargs: Any) -> Iterator[Any]:
            entries = list(original(*args, **kwargs))
            if self.active and _caller_is_repro():
                self.report.fs_shuffled += 1
                self._rng.shuffle(entries)
            return iter(entries)

        return fs_iter

    # ------------------------------------------------------------------
    # Pool completion-order hook
    # ------------------------------------------------------------------
    def _wrap_stream(self, original: Callable[..., Iterator[Any]]) -> Any:
        sanitizer = self

        def stream(
            plan: ExecutionPlan,
            kernel: Callable[[Any, Tile], Any],
            operands: Any,
            tiles: Sequence[Tile],
            broadcast: bool = False,
        ) -> Iterator[Any]:
            if not sanitizer.active:
                return original(
                    plan, kernel, operands, tiles, broadcast=broadcast
                )
            return sanitizer._permuted_stream(
                original, plan, kernel, operands, tiles, broadcast
            )

        return stream

    def _permuted_stream(
        self,
        original: Callable[..., Iterator[Any]],
        plan: ExecutionPlan,
        kernel: Callable[[Any, Tile], Any],
        operands: Any,
        tiles: Sequence[Tile],
        broadcast: bool,
    ) -> Iterator[Any]:
        """Run the plan on adversarially-permuted tiles, restore order.

        A correct plan + pure kernel yields the same per-tile results no
        matter the submission order, so un-permuting reproduces the
        canonical stream byte-for-byte. Anything order- or state-dependent
        surfaces as a checksum divergence in ``verify_tiles`` mode, or as
        different final output bytes otherwise.
        """
        tile_list = list(tiles)
        order = list(range(len(tile_list)))
        self._rng.shuffle(order)
        self.report.streams_permuted += 1

        permuted = [tile_list[i] for i in order]
        results = list(
            original(plan, kernel, operands, permuted, broadcast=broadcast)
        )
        restored: List[Any] = [None] * len(tile_list)
        for position, index in enumerate(order):
            restored[index] = results[position]

        checksums = [_checksum(r) for r in restored]
        self.report.tiles_checksummed += len(checksums)
        if self.verify_tiles:
            self._verify(kernel, operands, tile_list, checksums)
        return iter(restored)

    def _verify(
        self,
        kernel: Callable[[Any, Tile], Any],
        operands: Any,
        tiles: List[Tile],
        checksums: List[Optional[str]],
    ) -> None:
        """Recompute each tile serially, canonically; compare checksums."""
        for index, tile in enumerate(tiles):
            canonical = _checksum(kernel(tile_operands(operands, tile), tile))
            self.report.tiles_verified += 1
            if checksums[index] is None or canonical is None:
                continue
            if checksums[index] != canonical:
                message = (
                    f"kernel {getattr(kernel, '__name__', kernel)!r} "
                    f"tile[{index}]=[{tile.start},{tile.stop}) diverged "
                    f"under permuted submission order: {checksums[index]} "
                    f"!= canonical {canonical}"
                )
                self.report.divergences.append(message)
                raise DetSanViolation(message)

    # ------------------------------------------------------------------
    # Tripwires
    # ------------------------------------------------------------------
    def _tripwire(self, what: str, original: Callable[..., Any]) -> Any:
        def tripped(*args: Any, **kwargs: Any) -> Any:
            if self.active and _caller_is_repro():
                raise DetSanViolation(
                    f"{what} called from repro code under DetSan "
                    f"(nondeterministic source)"
                )
            return original(*args, **kwargs)

        return tripped


# ----------------------------------------------------------------------
# pytest plugin glue (no pytest import here — tests/conftest.py forwards)
# ----------------------------------------------------------------------
_SESSION: Optional[DetSan] = None


def plugin_configure(seed: int = _DEFAULT_SEED) -> DetSan:
    """Install a session-wide DetSan (``REPRO_DETSAN=1`` pytest runs)."""
    global _SESSION
    if _SESSION is None:
        _SESSION = DetSan(seed=seed, verify_tiles=True)
        _SESSION.install()
    return _SESSION


def plugin_unconfigure() -> None:
    global _SESSION
    if _SESSION is not None:
        _SESSION.uninstall()
        _SESSION = None


def plugin_runtest_setup(no_detsan: bool) -> None:
    """Suspend the hooks for tests marked ``@pytest.mark.no_detsan``."""
    if _SESSION is not None and no_detsan:
        _SESSION.suspend()


def plugin_runtest_teardown(no_detsan: bool) -> None:
    if _SESSION is not None and no_detsan:
        _SESSION.resume()


def session_report() -> Optional[DetSanReport]:
    """The live session sanitizer's report, when one is installed."""
    return _SESSION.report if _SESSION is not None else None
