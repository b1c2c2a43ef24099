"""End-to-end benchmark of the PushAdMiner deployment path.

    python3 perfbench/run.py --workload {study,deploy} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the repository root; the program is imported from ``src/``.
Every workload runs generate → crawl → sparse mine → snapshot → serve +
absorb on the world pinned in ``deploy.WORLD_SEED``.  The timed phase
repeats only the workload's own parts for ``--seconds``; the other parts
run in set-up, before it (see ``perfbench/README.md``):

* ``study``  — the batch job: generate, crawl, mine and export, repeated;
* ``deploy`` — the served snapshot's reads and writes: closed-loop WSGI
  rounds, each followed by one held-out batch absorbed, re-exported,
  reloaded, refreshed and probed at two workers.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
End-to-end walls are adjusted to a reference host speed (``hostspeed.py``).
Every output is checked (pinned values in ``pins.json`` and an uncached
oracle for served answers); any failure exits 1.
"""

import time

#: ``setup_s`` counts from here: imports, warm-up and all set-up.
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

#: Miner and ServeCore worker processes per workload (the host has 2 cores).
WORKERS = {"study": 1, "deploy": 2}

#: The parts of the path outside each workload's own, in order: a batch
#: ``mine``, a serve ``round``, or ``batches`` (the next :data:`WINDOW`
#: held-out batches absorbed).  They run in set-up, so that every workload
#: reports every end-to-end metric while its timed phase repeats only its
#: own parts.  A mine runs twice and a round four times: with two rounds,
#: the p99s pooled only 28 ``/classify`` samples beyond the p99 and spread
#: up to 0.3 over five runs.  All of them run before the timed phase, so
#: they meet the same process state in every run.
OUTSIDE = {"study": ("round", "round", "batches", "round", "round", "batches"),
           "deploy": ("mine", "mine")}
#: Absorbed batches per ``batches`` part, and the fewest rounds and batches
#: a ``deploy`` timed phase runs.
WINDOW = 3

#: The seed the request-stream checksums in ``pins.json`` were taken at;
#: other seeds are checked against the oracle alone.
PIN_SEED = 7


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refuses one with < 10 samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))  # ceil(q * n)
    if len(ordered) - rank >= 10:
        return ordered[rank - 1]
    raise ValueError(f"p{q * 100:g} of {len(ordered)} samples has fewer "
                     f"than 10 beyond it")


def adjusted(wall: float, start: float) -> float:
    """``wall`` at the reference host speed (see :mod:`hostspeed`)."""
    return wall * hostspeed.factor(start, start + wall)


def unadjusted(t0: float, t1: float) -> float:
    return 1.0


def latency_ms(rounds: Sequence[Any], kind: str, q: float) -> float:
    """Percentile ``q`` of the rounds' latencies of ``kind``, in ms."""
    return percentile([latency * 1e3 for r in rounds for k, latency in
                       zip(r.kinds, r.latencies) if k == kind], q)


def peak_rss_mb() -> float:
    """Largest RSS of this process or any worker child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_facts() -> Dict[str, Any]:
    import numpy

    blas: Any = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Bench:
    """One run of one workload: its parts, their records and the checks."""

    def __init__(self, workload: str, profile: Any, seed: int, seconds: float,
                 trace: bool, pins: Dict[str, Any]):
        import deploy
        import layers

        self.d = deploy
        self.layers = layers
        self.workload = workload
        self.profile = profile
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.pins = pins
        self.workers = WORKERS[workload]
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.notes: List[str] = []
        # What ran, each record tagged with whether it ran traced.
        self.mines: List[Any] = []     # (times, at, tracer or None)
        self.decodes: List[Any] = []   # (seconds, traced)
        self.rounds: List[Any] = []    # (RoundResult, stream, index, traced)
        self.batches: List[Any] = []   # (BatchResult, index, traced)
        self.traces: List[Any] = []
        self.plan_counts: Dict[str, int] = {"pools_started": 0, "tiles": 0}
        self.dense: Optional[float] = None
        self.overhead_pct: Optional[float] = None
        self.setup_s: Optional[float] = None
        self.setup_wall: Optional[float] = None
        self.mined: Any = None
        self.snapshot: Any = None

    # -- parts ---------------------------------------------------------
    def tracer(self, traced: bool) -> Any:
        if not traced:
            return None
        from repro.obs import PerfClock, Tracer

        tracer = Tracer(clock=PerfClock())
        self.traces.append(tracer)
        return tracer

    def counting(self, traced: bool) -> Any:
        return (self.layers.count_plan(self.plan_counts) if traced
                else nullcontext())

    def mine(self, traced: bool) -> None:
        """One batch mine of the pinned world, loaded back from its JSON."""
        tracer = self.tracer(traced)
        gc.collect()
        with self.counting(traced):
            mined = self.d.mine_world(self.profile.scale, tracer=tracer)
        self.attempted += 1
        self.mines.append((mined.times, mined.at, tracer))
        self.errors += check_mine(mined.snapshot.hash, mined.result.summary(),
                                  self.pins)
        self.mined = mined
        self.snapshot, seconds = self.d.load_snapshot(mined.text)
        self.decodes.append((seconds, traced))

    def serve_round(self, traced: bool) -> None:
        """The run's next serve round, from the loaded snapshot."""
        index = len(self.rounds)
        stream = self.d.request_stream(
            self.snapshot, self.mined.held_out, self.profile.round_requests,
            self.seed * 1000 + index)
        gc.collect()
        with self.counting(traced), hostspeed.paused():
            result = self.d.serve_round(self.snapshot, stream,
                                        tracer=self.tracer(traced),
                                        probe=hostspeed.sample)
        self.attempted += len(stream)
        self.failed += sum(s != "200 OK" for s in result.statuses)
        self.rounds.append((result, stream, index, traced))

    def absorb(self, cycle: Any, traced: bool) -> None:
        """The next held-out batch of ``cycle``."""
        index = cycle.done
        with self.counting(traced):
            batch = cycle.step()
        self.attempted += 1
        self.batches.append((batch, index, traced))
        if batch.error:
            self.failed += 1
            self.errors.append(f"batch {index}: {batch.error}")

    def absorb_cycle(self, traced: bool) -> Any:
        return self.d.AbsorbCycle(self.mined, self.profile.batches,
                                  workers=self.workers, seed=self.seed,
                                  tracer=self.tracer(traced))

    # -- workloads -----------------------------------------------------
    def run(self) -> None:
        """Warm up, set up, then run the timed phase.

        Set-up is one batch mine, loaded back from its JSON, and the
        workload's :data:`OUTSIDE` parts; ``setup_s`` is the adjusted wall
        from the first import to the timed phase.  With tracing, the timed
        phase runs once untraced and once traced, everything else runs
        traced, and a dense reference mine of the same base checks the
        sparse labels.
        """
        traced = self.trace
        self.warm_up()
        if "mine" not in OUTSIDE[self.workload]:
            self.mine(traced)
        self.outside(traced)
        if traced:
            plain = self.timed_phase(traced=False)
            self.overhead_pct = 100.0 * (self.timed_phase(traced=True) / plain - 1)
        else:
            self.timed_phase(traced=False)
        if traced:
            t0 = self.d.now()
            wall, same = self.d.mine_dense(self.mined)
            self.dense = adjusted(wall, t0)
            self.expect(same, "dense reference labels != sparse labels")

    def outside(self, traced: bool) -> None:
        """The workload's :data:`OUTSIDE` parts."""
        cycle = None
        for part in OUTSIDE[self.workload]:
            if part == "mine":
                self.mine(traced)
            elif part == "round":
                self.serve_round(traced)
            else:
                cycle = cycle or self.absorb_cycle(traced)
                for _ in range(WINDOW):
                    self.absorb(cycle, traced)

    def warm_up(self) -> None:
        """The whole path once on a small world, before any timing."""
        d, p = self.d, self.profile
        mined = d.mine_world(p.warm_scale)
        snapshot, _ = d.load_snapshot(mined.text)
        d.serve_round(snapshot, d.request_stream(
            snapshot, mined.held_out, p.round_requests, 0))
        d.AbsorbCycle(mined, 2, workers=self.workers, seed=0).step()

    def timed_phase(self, traced: bool) -> float:
        """The workload's own part, repeated for ``--seconds``.

        ``study`` mines the world again.  ``deploy`` serves the next round,
        then absorbs the next held-out batch until every batch is absorbed,
        at least :data:`WINDOW` times.  Returns the adjusted wall per
        repetition.
        """
        d = self.d
        cycle = self.absorb_cycle(traced) if self.workload == "deploy" else None
        least = WINDOW if cycle else 1
        if self.setup_s is None:
            self.setup_wall = d.now() - T0
            self.setup_s = adjusted(self.setup_wall, T0)
        reps = 0
        t0 = d.now()
        while reps < least or d.now() - t0 < self.seconds:
            reps += 1
            if self.workload == "study":
                self.mine(traced)
            else:
                self.serve_round(traced)
                if cycle.done < len(cycle.batches):
                    self.absorb(cycle, traced)
        return adjusted(d.now() - t0, t0) / reps

    # -- checks --------------------------------------------------------
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def verify(self) -> None:
        """Check every served answer and absorbed batch."""
        d = self.d
        snapshot, held_out = self.mined.snapshot, self.mined.held_out
        self.expect(d.classify_digest(snapshot, held_out)
                    == self.pins["classify_digest"],
                    "held-out classify answers != pinned digest")
        oracle = d.Oracle(snapshot, held_out)
        for result, stream, index, _ in self.rounds:
            self.errors += [f"round {index}: {e}" for e in
                            check_round(result, oracle.bodies(stream))]
            if self.seed == PIN_SEED and index == 0:
                self.errors += check_checksum(result.checksum(), self.pins)
        for batch, index, _ in self.batches:
            if not batch.error:
                self.errors += [f"batch {index}: {e}" for e in
                                check_batch(batch, self.pins["batches"][index])]
                if split_duplicate(batch.probe):
                    self.notes.append(
                        f"batch {index}: probe of record {batch.probe.index} "
                        f"served the campaign of identical record "
                        f"{batch.probe.nearest} of the same batch")

    # -- metrics -------------------------------------------------------
    def end_to_end(self, adjust: bool = True) -> Dict[str, float]:
        """Medians over the run of adjusted walls; raw p99s, pooled.

        Every wall is adjusted to the reference host speed by the probes
        taken while it ran (:mod:`hostspeed`); with ``adjust`` false the
        same figures come from the raw walls.  ``crawl_s`` and ``mine_s``
        are medians over the run's batch mines, ``serve_rps`` over its
        rounds and ``fresh_p50_ms`` over its absorbed batches.  The p99s
        pool every round of the run (one round has only 14 ``/classify``
        samples beyond its p99) and are never adjusted: the tails do not
        slow down with the probe, and adjusting them made them spread two
        to five times as much as the raw ones.
        """
        factor = hostspeed.factor if adjust else unadjusted
        rounds = [r for r, *_ in self.rounds]
        med = statistics.median

        def wall(seconds: float, start: float) -> float:
            return seconds * factor(start, start + seconds)

        return {
            "setup_s": self.setup_s if adjust else self.setup_wall,
            "peak_rss_mb": peak_rss_mb(),
            "crawl_s": med([wall(t["crawl"], at["crawl"])
                            for t, at, _ in self.mines]),
            "mine_s": med([wall(t["mine"], at["mine"])
                           for t, at, _ in self.mines]),
            "serve_rps": med([len(r.kinds) / r.wall / factor(r.start, r.end)
                              for r in rounds]),
            "check_p99_ms": latency_ms(rounds, "check", 0.99),
            "classify_p99_ms": latency_ms(rounds, "classify", 0.99),
            "fresh_p50_ms": med([wall(b.fresh, b.start) * 1e3
                                 for b, *_ in self.batches if not b.error]),
        }

    def per_layer(self) -> Dict[str, float]:
        layers = self.layers
        mines = [(t, tr) for t, _, tr in self.mines if tr is not None]
        batches = [b for b, _, traced in self.batches if traced]
        rounds = [r for r, *rest in self.rounds if rest[-1]]
        out = layers.crawl_and_mine([tr for _, tr in mines])
        out.update(layers.incremental(self.traces, batches))
        out.update(layers.serving(rounds))
        med = layers.median
        out.update({
            "core.mine_dense_s": self.dense,
            "perf.plan.pools_started": self.plan_counts["pools_started"],
            "perf.plan.tiles": self.plan_counts["tiles"],
            "serve.snapshot.export_s": med(
                [t["export"] for t, _ in mines]
                + [b.times["export"] for b in batches]),
            "serve.snapshot.encode_s": med(
                [t["encode"] for t, _ in mines]
                + [b.times["encode"] for b in batches]),
            "serve.snapshot.decode_s": med(
                [t for t, traced in self.decodes if traced]
                + [b.times["decode"] for b in batches]),
            "serve.snapshot.bytes": med(
                [len(self.mined.text.encode("utf-8"))]
                + [b.snapshot_bytes for b in batches]),
            "serve.core.refresh_s": med([b.times["refresh"] for b in batches]),
            "study.unattributed_s": layers.study_unattributed(mines),
            "trace_overhead_pct": self.overhead_pct,
        })
        return out


def check_mine(snapshot_hash: str, summary: Dict[str, Any],
               pins: Dict[str, Any]) -> List[str]:
    """Errors of one batch mine against the pinned hash and summary."""
    errors = []
    if snapshot_hash != pins["snapshot_hash"]:
        errors.append(f"snapshot hash {snapshot_hash} != pinned "
                      f"{pins['snapshot_hash']}")
    if summary != pins["summary"]:
        errors.append(f"summary {summary} != pinned {pins['summary']}")
    return errors


def check_checksum(checksum: str, pins: Dict[str, Any]) -> List[str]:
    """Errors of round 0 at :data:`PIN_SEED` against its pinned checksum."""
    if checksum != pins["round 0"]:
        return [f"round 0 checksum {checksum} != pinned {pins['round 0']} "
                f"at seed {PIN_SEED}"]
    return []


def check_round(result: Any, expected: Sequence[bytes]) -> List[str]:
    """Errors of one serve round: non-200 replies and wrong answers."""
    errors = [f"request {i} answered {s}"
              for i, s in enumerate(result.statuses) if s != "200 OK"]
    wrong = [i for i, (got, want) in enumerate(zip(result.bodies, expected))
             if got != want]
    if wrong or len(result.bodies) != len(expected):
        errors.append(f"{len(wrong)} answers differ from the oracle "
                      f"(first at request {wrong[:1]})")
    return errors


def split_duplicate(probe: Any) -> bool:
    """Is ``probe`` answered from an identical earlier record of its batch?

    Absorb compares a batch's records with the corpus, not with each
    other, so two identical records of one batch can open two singleton
    campaigns.  Serving breaks the tie between them to the lower index and
    answers with the first one's campaign.  This is the one answer
    :func:`check_batch` accepts that is not the probe's own campaign.
    """
    return (probe.identical
            and probe.batch_start <= probe.nearest < probe.index
            and probe.nearest_label != probe.label)


def check_batch(batch: Any, pin: Sequence[Any]) -> List[str]:
    """Errors of one absorbed batch against its pinned accounting.

    The probe must be answered ``assigned`` to the campaign absorb gave the
    probe's record, or else be a :func:`split_duplicate` answered with the
    campaign absorb gave the identical record it names.
    """
    errors = []
    counts = [batch.report.assigned, batch.report.opened]
    if counts != list(pin[:2]):
        errors.append(f"assigned/opened {counts} != pinned {list(pin[:2])}")
    if batch.summary_digest != pin[2]:
        errors.append("summary after the batch != pinned")
    probe = batch.probe
    served = (probe.answer.get("campaign") or {}).get("cluster_id")
    labels = {probe.label}
    if split_duplicate(probe):
        labels.add(probe.nearest_label)
    if (probe.status != "200 OK" or not probe.answer.get("assigned")
            or served not in labels):
        errors.append(f"probe of record {probe.index} answered "
                      f"{probe.status}, campaign {served} via record "
                      f"{probe.nearest}; absorb labelled it {probe.label}")
    return errors


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny world, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    hostspeed.start()
    try:
        return bench_main(args)
    finally:
        hostspeed.stop()


def bench_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import deploy

    profile = deploy.SMOKE if args.smoke else deploy.FULL
    with open(HERE / "pins.json", encoding="utf-8") as handle:
        pins = json.load(handle)[str(profile.scale)]
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    print("host " + json.dumps(host_facts(), sort_keys=True))

    bench = Bench(args.workload, profile, args.seed, args.seconds,
                  bool(args.trace), pins)
    from repro.perf import BlockingExactnessError

    try:
        bench.run()
    except BlockingExactnessError as exc:
        bench.attempted += 1
        bench.failed += 1
        bench.errors.append(f"{type(exc).__name__}: {exc}")
        values: Dict[str, float] = {}
    else:
        bench.verify()
        if args.trace:
            values = bench.per_layer()
        else:
            values = bench.end_to_end()
            print("unadjusted " + json.dumps(bench.end_to_end(adjust=False)))
        print("hostspeed " + json.dumps(hostspeed.summary()))
    units = {m["name"]: m["unit"] for m in spec[
        "per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(values))
    if values and missing:
        bench.errors.append(f"no value for {', '.join(missing)}")
    correct = not bench.errors and bench.failed == 0
    for note in bench.notes:
        print(f"note: {note}")
    for error in bench.errors:
        print(f"check failed: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
